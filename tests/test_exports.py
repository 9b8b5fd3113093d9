import importlib
import pkgutil

import pytest

import relcode

MODULES = ["relcode"] + [
    info.name for info in pkgutil.walk_packages(relcode.__path__, "relcode.")
]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
