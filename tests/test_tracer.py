"""The benchmark's tracer (perfbench/spans.py) replaces relcode functions
at the names through which they are called.  Installing it here makes a
change that deletes or renames one of those names fail the tests, not only
traced benchmark runs."""

import importlib.util
from pathlib import Path

import relcode.engine as engine

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_tracer_installs_and_uninstalls():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    encode = engine.encode
    tracer = spans.Tracer(spans.Recorder())
    try:
        tracer.install()
        assert engine.encode is not encode
    finally:
        tracer.uninstall()
    assert engine.encode is encode
