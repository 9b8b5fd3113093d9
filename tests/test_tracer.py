"""The benchmark's tracer (perfbench/spans.py) replaces relcode functions
at the names through which they are called.  Installing it here makes a
change that deletes or renames one of those names fail the tests, not only
traced benchmark runs; a small traced run makes a change that stops calling
one of them fail too, instead of zeroing its per-layer metric."""

import ast
import importlib.util
from pathlib import Path

import relcode.bench.vector as bench_vector
import relcode.codecs as codecs
import relcode.engine as engine
from relcode.distributions import gaussian_pair_for_targets

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def span_names() -> set:
    """The string entries of ``SPAN_NAMES`` in perfbench/run.py, read
    without importing it (its harness entry is a name, not a string)."""
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["SPAN_NAMES"]:
            return {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    raise AssertionError("perfbench/run.py defines no SPAN_NAMES")


def test_tracer_installs_and_uninstalls():
    spans = load_spans()
    encode = engine.encode
    tracer = spans.Tracer(spans.Recorder())
    try:
        tracer.install()
        assert engine.encode is not encode
    finally:
        tracer.uninstall()
    assert engine.encode is encode


def test_traced_run_records_every_span_name():
    spans = load_spans()
    rec = spans.Recorder()
    tracer = spans.Tracer(rec)
    pair = gaussian_pair_for_targets(3.0, 5.0)
    vector_pairs = [gaussian_pair_for_targets(kl, kl + 0.75) for kl in (0.05, 0.5)]
    depths = []
    try:
        tracer.install()
        rec.active = True
        for rule in engine.SplitRule:
            res = engine.encode(pair, rule, 3)
            depths.append(res.depth)
            blob = codecs.serialize(res)
            bits = codecs.Bits.from_bytes(blob.to_bytes(), len(blob))
            _, _, index, _ = codecs.deserialize(bits, seed=3)
            assert engine.decode(pair.proposal, rule, 3, index) == res.sample
            engine.encode_batch(pair, rule, range(8))
        bench_vector.encode_vector(vector_pairs, 0, calibration_runs=16)
    finally:
        rec.active = False
        tracer.uninstall()
    assert sorted(depths) == [1, 6, 7]
    names = span_names()
    assert len(names) == 17
    assert names - set(rec.calls()) == set()
