"""Self-test of the benchmark's own machinery.

    python3 perfbench/selftest.py                 # quick checks, a few seconds
    python3 perfbench/selftest.py --counts batch  # also: counts repeat exactly

The quick checks cover the span self-time arithmetic, the tracer restoring
every attribute it replaced, and seed determinism of the workload inputs.
``--counts`` runs the named workloads twice per mode with one seed and
requires every exact count (and ``bits_over_kl`` and the digest) to match.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads as wls  # noqa: E402


def check_self_times() -> None:
    ticks = iter([0, 10, 20, 30, 40, 50, 70, 100])
    rec = spans.Recorder(clock=lambda: next(ticks))
    root = rec.open("root")         # 0 .. 100
    a = rec.open("a")               # 10 .. 40
    rec.close(rec.open("b"))        # 20 .. 30
    rec.close(a)
    rec.close(rec.open("a"))        # 50 .. 70
    rec.close(root)
    got = rec.self_times_ns()
    assert got == {"root": 50, "a": 40, "b": 10}, got
    assert sum(got.values()) == 100, "self times must add up to the root span"
    assert rec.parents == [-1, 0, 1, 0], rec.parents
    assert rec.calls() == {"root": 1, "a": 2, "b": 1}


def check_tracer_restores() -> None:
    import relcode.bench.vector as bench_vector
    import relcode.codecs as codecs
    import relcode.engine as engine
    from relcode.codecs import ArithmeticEncoder, Bits
    from relcode.distributions import Distribution1D

    owners = [(engine, "node_uniforms"), (engine, "encode"), (codecs, "serialize"),
              (bench_vector, "fit_zeta"), (Distribution1D, "quantile"),
              (ArithmeticEncoder, "encode")]
    before = [getattr(o, a) for o, a in owners]
    raw_from_bytes = Bits.__dict__["from_bytes"]
    tracer = spans.Tracer(spans.Recorder())
    tracer.install()
    assert all(getattr(o, a) is not b for (o, a), b in zip(owners, before))
    bits = Bits([1, 0, 1])
    assert Bits.from_bytes(bits.to_bytes(), 3) == bits  # inactive: plain call
    tracer.uninstall()
    assert all(getattr(o, a) is b for (o, a), b in zip(owners, before))
    assert Bits.__dict__["from_bytes"] is raw_from_bytes


def check_seed_determinism() -> None:
    def args(wl):
        return [np.asarray(op.arg).tolist() for op in wl.ops]

    for cls in wls.WORKLOADS.values():
        a, b, c = cls(7), cls(7), cls(8)
        for wl in (a, b, c):
            wl.setup()
        assert args(a) == args(b), f"{cls.name}: one seed gave two inputs"
        assert args(a) != args(c), f"{cls.name}: two seeds gave one input"


EXACT = ("calls", "lanes", "elems")


def exact_metrics(metrics: dict) -> dict:
    return {
        k: v["value"] for k, v in metrics.items()
        if k.rsplit(".", 1)[-1] in EXACT
        or k in ("engine.nodes", "engine.accept_ratio", "engine.global.blocks_per_node",
                 "codecs.bits_out", "bits_over_kl")
    }


def run_once(workload: str, seed: int, trace: int):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    report, result = (json.loads(x) for x in out.stdout.strip().splitlines()[-2:])
    assert result["correct"] and result["failed"] == 0, result
    return (exact_metrics(result["metrics"]), report["digest"]), report


def check_counts(workload: str, seed: int = 3) -> None:
    for trace in (0, 1):
        (first, report), (second, _) = run_once(workload, seed, trace), run_once(workload, seed, trace)
        assert first == second, f"{workload} trace={trace}: {first} != {second}"
        print(f"{workload} trace={trace}: {len(first[0])} exact metrics and the "
              f"digest repeat ({first[1][:12]})")
        if trace:
            # the self times of all spans add up to the traced ops' wall time
            detail = report["detail"]
            gap = abs(detail["self_time_sum_s"] - detail["traced_phase_s"])
            assert gap <= 0.01 * detail["traced_phase_s"], detail
            print(f"{workload}: self times account for {detail['self_time_sum_s']:.3f} s "
                  f"of {detail['traced_phase_s']:.3f} s traced")


def main() -> int:
    p = argparse.ArgumentParser(description="self-test of the benchmark")
    p.add_argument("--counts", nargs="*", default=[], choices=sorted(wls.WORKLOADS))
    args = p.parse_args()
    wls.import_relcode()
    check_self_times()
    check_tracer_restores()
    check_seed_determinism()
    print("self times, tracer restore and seed determinism: ok")
    for name in args.counts:
        check_counts(name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
