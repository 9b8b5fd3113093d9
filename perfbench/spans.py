"""In-memory span recorder and the wrappers that feed it.

The wrappers replace public ``relcode`` functions at the names through which
they are called (a module attribute, or a method on a class), record one span
per call, and restore the originals on :meth:`Tracer.uninstall`.  Nothing in
``relcode`` itself is edited: the benchmark only swaps attributes for the
duration of its traced pass.

A span is ``(name, start_ns, end_ns, parent)``; a layer's self time is the
duration of its spans minus the time covered by their direct children.  Spans
nest strictly because the benchmark runs on one thread.
"""

from __future__ import annotations

import gzip
import os
from time import perf_counter_ns

import numpy as np

HARNESS = "bench.harness"


class Recorder:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self, clock=perf_counter_ns):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.stack = [-1]
        self.active = False
        # counters keyed by name; rule-split ones are keyed (name, rule)
        self.counts: dict = {}
        self.rule = None

    def add(self, key, value) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1])
        self.ends.append(0)
        self.stack.append(idx)
        self.starts.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        self.stack.pop()

    def self_times_ns(self) -> dict[str, int]:
        """Per span name: summed duration minus the time of direct children."""
        return self_times(self.names, self.starts, self.ends, self.parents)

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for name in self.names:
            out[name] = out.get(name, 0) + 1
        return out

    def write(self, path: str) -> None:
        """Spans as tab-separated ``index name start_ns end_ns parent``."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt") as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\n")
            for i, (n, s, e, p) in enumerate(
                zip(self.names, self.starts, self.ends, self.parents)
            ):
                fh.write(f"{i}\t{n}\t{s}\t{e}\t{p}\n")


def self_times(names, starts, ends, parents) -> dict[str, int]:
    dur = [e - s for s, e in zip(starts, ends)]
    child = [0] * len(dur)
    for i, p in enumerate(parents):
        if p >= 0:
            child[p] += dur[i]
    out: dict[str, int] = {}
    for i, name in enumerate(names):
        out[name] = out.get(name, 0) + dur[i] - child[i]
    return out


def _wrap(rec: Recorder, name: str, fn, on_exit=None):
    def traced(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        idx = rec.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if on_exit is not None:
            on_exit(rec, out)
        return out

    return traced


def _wrap_encode(rec: Recorder, name: str, fn):
    """Engine encodes also set the current rule, so that Philox lanes and
    nodes can be split by rule."""

    def traced(pair, rule, *args, **kwargs):
        if not rec.active:
            return fn(pair, rule, *args, **kwargs)
        outer, rule_name = rec.rule, rule.value
        rec.rule = rule_name
        idx = rec.open(name)
        try:
            out = fn(pair, rule, *args, **kwargs)
        finally:
            rec.close(idx)
            rec.rule = outer
        if hasattr(out, "depths"):
            runs, nodes = len(out.depths), int(out.depths.sum()) + len(out.depths)
        else:
            runs, nodes = 1, out.depth + 1
        rec.add(("runs", rule_name), runs)
        rec.add(("nodes", rule_name), nodes)
        rec.add(("engine_ns", rule_name), rec.ends[idx] - rec.starts[idx])
        return out

    return traced


def _count_lanes(rec, out):
    lanes = int(np.size(out[0]))
    rec.add("randomness.node_uniforms.lanes", lanes)
    rec.add(("lanes", rec.rule), lanes)


def _count_elems(key):
    def count(rec, out):
        rec.add(key, int(np.size(out)))

    return count


class Tracer:
    """Installs the wrappers on ``relcode`` and removes them again."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self._saved: list[tuple[object, str, object]] = []

    def _patch(self, owner, attr: str, make) -> None:
        # keep the raw attribute (classmethod objects included) for restoring
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, make(getattr(owner, attr)))

    def install(self) -> None:
        import relcode.bench.vector as bench_vector
        import relcode.codecs as codecs
        import relcode.codecs.stream as stream
        import relcode.engine as engine
        from relcode.codecs import ArithmeticDecoder, ArithmeticEncoder, Bits
        from relcode.distributions import Distribution1D, DistributionPair

        rec = self.rec

        def plain(name, on_exit=None):
            # also serves methods: a plain function in a class dict binds
            return lambda fn: _wrap(rec, name, fn, on_exit)

        # randomness
        self._patch(engine, "node_uniforms", plain("randomness.node_uniforms", _count_lanes))
        self._patch(engine, "node_randoms", plain("randomness.node_randoms"))
        self._patch(stream, "node_randoms", plain("randomness.node_randoms"))
        self._patch(bench_vector, "derive_seeds", plain("randomness.derive_seeds"))
        # distributions: methods, looked up on the class at each call
        self._patch(Distribution1D, "quantile", plain(
            "distributions.quantile", _count_elems("distributions.quantile.elems")))
        self._patch(DistributionPair, "residual_above", plain(
            "distributions.residual_above", _count_elems("distributions.residual_above.elems")))
        self._patch(DistributionPair, "log_ratio_nats", plain("distributions.log_ratio"))
        self._patch(DistributionPair, "residual_real_line",
                    plain("distributions.residual_real_line"))
        # engine
        for owner in (engine, bench_vector):
            self._patch(owner, "encode_batch",
                        lambda fn: _wrap_encode(rec, "engine.encode_batch", fn))
        self._patch(engine, "encode", lambda fn: _wrap_encode(rec, "engine.encode", fn))
        self._patch(engine, "decode", plain("engine.decode"))
        # partition
        self._patch(engine, "path_bits", plain("partition.path_bits"))
        self._patch(stream, "path_bits", plain("partition.path_bits"))
        # codecs
        self._patch(codecs, "serialize", plain("codecs.serialize"))
        self._patch(codecs, "deserialize", plain("codecs.deserialize"))
        self._patch(Bits, "to_bytes", plain("codecs.bytes"))
        self._patch(Bits, "from_bytes", lambda bound: classmethod(
            _wrap(rec, "codecs.bytes", bound.__func__)))
        for attr in ("encode", "finish"):
            self._patch(ArithmeticEncoder, attr, plain("codecs.arith"))
        for attr in ("__init__", "decode_target", "consume"):
            self._patch(ArithmeticDecoder, attr, plain("codecs.arith"))
        self._patch(bench_vector, "fit_zeta", plain("codecs.fit_zeta"))
        # bench
        self._patch(bench_vector, "encode_vector", plain("bench.encode_vector"))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)
