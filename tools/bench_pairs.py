"""Time a change against its parent in alternating pairs; write BENCH_<tag>.json.

Run from the root of the change's checkout:

    python3 tools/bench_pairs.py --parent HEAD~1 --tag packed_philox --seed 51 \\
        --pairs 10 --seconds 15 --criterion02-pairs 5

The parent commit is exported with ``git archive`` into a temporary
directory; the change is the working tree.  For each pair index and each
workload, ``perfbench/run.py --workload W --seed S --seconds T --trace 0``
runs once in each tree, the parent first for even indices and the change
first for odd ones.  Then criterion 02's setup (the acceptance test's
sweeps) is timed alone under pytest in each tree, alternating the same way.
The file holds every run's metrics, the as-measured figures and digest, and
per workload and metric the medians of both trees, the parent's quartiles
and IQR (inclusive method) and the pairs the change wins (higher
``runs_per_s``, lower otherwise; ties count for neither).  Per workload it
also records whether the parent's and the change's output digests matched
in every pair, and it prints one stderr line for each pair where they did
not.
"""

import argparse
import json
import os
import platform
import re
import shlex
import statistics
import subprocess
import sys
import tempfile

WORKLOADS = ("batch", "roundtrip", "vector")
HIGHER = {"runs_per_s"}
CRITERION_02 = "tests/test_acceptance.py::test_criterion_02_runtime_flatness"


def run_bench(tree, workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    report, result = json.loads(out[-2]), json.loads(out[-1])
    return {
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "as_measured": {k: v for k, v in report["detail"]["as_measured"].items()
                        if k != "latency_samples"},
        "failed": result["failed"],
        "attempted": result["attempted"],
        "digest": report["digest"],
        "meta": {k: report["meta"][k] for k in ("python", "numpy", "scipy", "nproc")},
    }


def criterion_02_setup_s(tree):
    env = dict(os.environ, PYTHONPATH="src")
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--durations=0",
         "--durations-min=0", CRITERION_02],
        cwd=tree, env=env, capture_output=True, text=True, check=True,
    ).stdout
    return float(re.search(r"([\d.]+)s setup\s+" + re.escape(CRITERION_02), out).group(1))


def summary(parent, change, higher):
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    wins = sum(c > p if higher else c < p for p, c in zip(parent, change))
    return {
        "parent": statistics.median(parent),
        "change": statistics.median(change),
        "parent_quartiles": [q1, q3],
        "parent_iqr": q3 - q1,
        "change_wins": wins,
        "pairs": len(parent),
    }


def digest_mismatches(parent, change):
    """The indices of the pairs whose two runs' output digests differ."""
    return [i for i, (p, c) in enumerate(zip(parent, change)) if p["digest"] != c["digest"]]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="the parent commit")
    p.add_argument("--tag", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--criterion02-pairs", type=int, default=5)
    args = p.parse_args(argv)
    change = os.getcwd()
    parent_rev = subprocess.run(["git", "rev-parse", "--short", args.parent], capture_output=True,
                                text=True, check=True).stdout.strip()
    runs = {w: {"parent": [], "change": []} for w in WORKLOADS}
    setups = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as parent:
        subprocess.run(f"git archive {shlex.quote(parent_rev)} | tar -x -C {shlex.quote(parent)}",
                       shell=True, check=True)
        trees = {"parent": parent, "change": change}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for w in WORKLOADS:
                for side in order:
                    runs[w][side].append(run_bench(trees[side], w, args.seed, args.seconds))
                    print(i, w, side, runs[w][side][-1]["metrics"], file=sys.stderr)
        for i in range(args.criterion02_pairs):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                setups[side].append(criterion_02_setup_s(trees[side]))
                print(i, "criterion 02", side, setups[side][-1], file=sys.stderr)
    mismatched = {w: digest_mismatches(runs[w]["parent"], runs[w]["change"]) for w in WORKLOADS}
    for w, pairs in mismatched.items():
        for i in pairs:
            print(f"digest mismatch: {w} pair {i}: parent {runs[w]['parent'][i]['digest']}, "
                  f"change {runs[w]['change'][i]['digest']}", file=sys.stderr)
    out = {
        "tag": args.tag,
        "command": "python3 tools/bench_pairs.py " + " ".join(map(shlex.quote, argv or sys.argv[1:])),
        "parent": parent_rev,
        "host": {"machine": platform.machine(), **runs[WORKLOADS[0]]["change"][0]["meta"]},
        "workloads": {
            w: {
                "scaled": {m: summary([r["metrics"][m] for r in runs[w]["parent"]],
                                      [r["metrics"][m] for r in runs[w]["change"]], m in HIGHER)
                           for m in runs[w]["parent"][0]["metrics"]},
                "as_measured": {m: summary([r["as_measured"][m] for r in runs[w]["parent"]],
                                           [r["as_measured"][m] for r in runs[w]["change"]],
                                           m in HIGHER)
                                for m in runs[w]["parent"][0]["as_measured"]},
                "digests_match": not mismatched[w],
                "runs": runs[w],
            }
            for w in WORKLOADS
        },
        "criterion_02_setup_s": {**summary(setups["parent"], setups["change"], False),
                                 "runs": setups} if setups["parent"] else None,
    }
    with open(f"BENCH_{args.tag}.json", "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
