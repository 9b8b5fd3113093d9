import importlib

import pytest


@pytest.mark.parametrize(
    "module",
    [
        "relcode",
        "relcode.engine",
        "relcode.partition",
        "relcode.distributions",
        "relcode.codecs",
        "relcode.codecs.zeta",
        "relcode.codecs.stream",
        "relcode.randomness",
        "relcode.bench",
        "relcode.bench.sweep",
        "relcode.bench.bias",
        "relcode.bench.vector",
    ],
)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
