"""Run one benchmark workload of ``relcode`` and print its metrics.

    python3 perfbench/run.py --workload batch --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.
``--trace 0`` times passes over the workload untraced and prints the
end-to-end metrics; ``--trace 1`` runs one pass traced and one untraced and
prints the per-layer metrics.  The last line of standard output is the result
object; the line before it is a report with the breakdowns, the output digest
and the run metadata, which is also written to ``.perfbench_out/``.
See ``README.md`` beside this file for the workloads and metrics.
"""

import time

_T0 = time.perf_counter_ns()  # set-up time counts from here

import os  # noqa: E402

# one thread everywhere: the benchmark is a single-client closed loop
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from time import perf_counter_ns  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, os.path.join(ROOT, "src"))

# the script's directory is first on the path
import reference  # noqa: E402
import spans  # noqa: E402
import workloads as wls  # noqa: E402

RULES = ("sample", "dyadic", "global")
MIN_PASSES = 2


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(wls.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time and exit")
    return p.parse_args(argv)


def run_pass(wl, first_pass, stop_ns=None, rec=None):
    """Run the workload's ops once, in order.

    Returns ``[(elapsed_ns, kernel_ns, ok)]``, where ``kernel_ns`` is the mean
    reference-kernel time around and during the op.  With ``stop_ns`` the
    pass ends early once that time has passed.  Checks run outside the timed
    region, and outside every span when tracing.
    """
    out_times = []
    with reference.Gauge() as gauge:
        for op in wl.ops:
            if stop_ns is not None and perf_counter_ns() >= stop_ns:
                break
            mark = gauge.mark()
            if rec is not None:
                rec.active = True
                idx = rec.open(spans.HARNESS)
            t0 = perf_counter_ns()
            try:
                out = wl.execute(op)
            except Exception as err:  # an op that raises counts as failed
                out = err
            t1 = perf_counter_ns()
            if rec is not None:
                rec.close(idx)
                rec.active = False
            elapsed, kernel_ns = gauge.since(mark, t1 - t0)
            try:
                ok = not isinstance(out, Exception) and wl.verify(op, out, first_pass)
            except Exception as err:  # malformed output: the op failed
                ok, out = False, err
            if not ok:
                print(f"op failed: {out!r}"[:500], file=sys.stderr)
            out_times.append((elapsed, kernel_ns, ok))
    return out_times


def timed_passes(wl, seconds, after_first):
    """Passes over the same inputs until ``seconds`` have passed, at least
    ``MIN_PASSES`` of them.  ``after_first`` runs after the first pass, and
    its time does not count against ``seconds``.

    Returns each op's best time over the passes, both as measured and at the
    reference speed, every op's outcome, and a summary of each pass.
    """
    deadline = perf_counter_ns() + int(seconds * 1e9)
    best_raw = [math.inf] * len(wl.ops)
    best = [math.inf] * len(wl.ops)
    outcomes = []
    passes = []
    while len(passes) < MIN_PASSES or perf_counter_ns() < deadline:
        result = run_pass(wl, not passes, stop_ns=deadline if len(passes) >= MIN_PASSES else None)
        for j, (ns, ref_ns, ok) in enumerate(result):
            if ok:
                best_raw[j] = min(best_raw[j], ns)
                best[j] = min(best[j], ns * reference.NOMINAL_NS / ref_ns)
        outcomes += [ok for _, _, ok in result]
        passes.append({"ops": len(result), "op_s": sum(r[0] for r in result) / 1e9,
                       "kernel_us": statistics.median(r[1] for r in result) / 1e3})
        if len(passes) == 1:
            t0 = perf_counter_ns()
            after_first()
            deadline += perf_counter_ns() - t0
    return best_raw, best, outcomes, passes


def percentile(values, pct: int) -> float:
    """The ``pct``-th percentile, interpolating between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(wl, best):
    """Metrics from each op's best time (ns; ``inf`` for an op that never
    succeeded), with the per-rule breakdown."""
    timed = [(op, ns) for op, ns in zip(wl.ops, best) if ns < math.inf]

    def summary(items):
        out = {"runs_per_s": sum(op.runs for op, _ in items) / (sum(ns for _, ns in items) / 1e9)}
        lat = [ns / 1e6 for op, ns in items if op.latency]
        if lat:
            out.update(op_p50_ms=statistics.median(lat),
                       op_tail_ms=percentile(lat, wl.tail_pct), latency_samples=len(lat))
        return out

    metrics = summary(timed)
    rules = sorted({op.rule.value for op, _ in timed})
    by_rule = {r: summary([x for x in timed if x[0].rule.value == r]) for r in rules}
    return metrics, by_rule


# every span name the tracer records; each gets ``.calls`` and ``.self_s``
SPAN_NAMES = (
    "randomness.node_uniforms", "randomness.node_randoms", "randomness.derive_seeds",
    "distributions.quantile", "distributions.residual_above", "distributions.log_ratio",
    "distributions.residual_real_line",
    "engine.encode_batch", "engine.encode", "engine.decode",
    "partition.path_bits",
    "codecs.serialize", "codecs.deserialize", "codecs.bytes", "codecs.arith", "codecs.fit_zeta",
    "bench.encode_vector", spans.HARNESS,
)


def per_layer(rec, traced, untraced, wl):
    """Per-layer metrics from the traced pass; ``traced`` and ``untraced``
    are the two passes' ``run_pass`` results over the same ops."""
    calls = rec.calls()
    self_ns = rec.self_times_ns()
    counts = rec.counts

    def ratio(a, b):
        return a / b if b else 0.0

    def by_rule(key, rule):
        return counts.get((key, rule), 0)

    m = {}
    for name in SPAN_NAMES:
        m[name + ".calls"] = calls.get(name, 0)
        m[name + ".self_s"] = self_ns.get(name, 0) / 1e9
    lanes = counts.get("randomness.node_uniforms.lanes", 0)
    runs = sum(by_rule("runs", r) for r in RULES)
    nodes = sum(by_rule("nodes", r) for r in RULES)
    m.update({
        "randomness.node_uniforms.lanes": lanes,
        "randomness.node_uniforms.ns_per_lane":
            ratio(self_ns.get("randomness.node_uniforms", 0), lanes),
        "distributions.quantile.elems": counts.get("distributions.quantile.elems", 0),
        "distributions.residual_above.elems":
            counts.get("distributions.residual_above.elems", 0),
        "engine.nodes": nodes,
        "engine.accept_ratio": ratio(runs, nodes),
        "engine.global.blocks_per_node":
            ratio(by_rule("lanes", "global"), by_rule("nodes", "global")),
        "codecs.bits_out": wl.bits,
        # both passes at the reference speed, so a slow spell does not count
        "trace.overhead": sum(ns / k for ns, k, _ in traced) / sum(ns / k for ns, k, _ in untraced),
    })
    for rule in RULES:
        m[f"engine.{rule}.us_per_run"] = ratio(
            by_rule("engine_ns", rule) / 1e3, by_rule("runs", rule))
    return m, {"traced_phase_s": sum(ns for ns, _, _ in traced) / 1e9,
               "untraced_phase_s": sum(ns for ns, _, _ in untraced) / 1e9,
               "self_time_sum_s": sum(self_ns.values()) / 1e9, "spans": len(rec.names)}


UNITS = {
    "setup_s": "s", "runs_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
    "bits_over_kl": "bit", "peak_rss_mb": "MiB",
}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith(".self_s"):
        return "s"
    if name.endswith(".ns_per_lane"):
        return "ns"
    if name.endswith(".us_per_run"):
        return "us"
    if name in ("engine.accept_ratio", "trace.overhead"):
        return "ratio"
    if name == "engine.global.blocks_per_node":
        return "lanes/node"
    if name == "codecs.bits_out":
        return "bit"
    return "count"


def commit_id() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "commit": commit_id(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def child_setup_seconds(args) -> float:
    """Set-up time of a fresh process (``--setup-only``)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=170, check=True)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def main(argv=None) -> int:
    args = parse_args(argv)
    wls.import_relcode()
    wl = wls.WORKLOADS[args.workload](args.seed)
    wl.setup()
    setup_s = (perf_counter_ns() - _T0) / 1e9
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if args.trace:
        rec = spans.Recorder()
        tracer = spans.Tracer(rec)
        tracer.install()
        try:
            traced = run_pass(wl, True, rec=rec)
        finally:
            tracer.uninstall()
        untraced = run_pass(wl, False)
        outcomes = [ok for _, _, ok in traced + untraced]
        metrics, detail = per_layer(rec, traced, untraced, wl)
        rec.write(os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.tsv.gz"))
    else:
        # three set-ups spread over the run, so that one slow spell of the
        # host does not decide their median: this one, one after the first
        # pass and one at the end, the last two in fresh processes
        setups = [setup_s]
        best_raw, best, outcomes, passes = timed_passes(
            wl, args.seconds, lambda: setups.append(child_setup_seconds(args)))
        metrics, by_rule = end_to_end(wl, best)
        detail = {
            "latency_samples": metrics.pop("latency_samples"),
            "tail_percentile": wl.tail_pct,
            "as_measured": end_to_end(wl, best_raw)[0],
            "rules": by_rule,
            "passes": passes,
        }
        metrics["bits_over_kl"] = wl.bits_over_kl()
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setups.append(child_setup_seconds(args))
        metrics["setup_s"] = statistics.median(setups)
        detail["setup_samples_s"] = setups

    attempted = len(outcomes)
    failed = attempted - sum(outcomes)
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "ops_per_pass": len(wl.ops),
        "fail_rate": failed / attempted,
        "digest": wl.digest.hexdigest(),
        "detail": detail,
        "meta": metadata(args.seed),
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"report-{args.workload}-{args.seed}-t{args.trace}.json"),
              "w") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps(report))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
