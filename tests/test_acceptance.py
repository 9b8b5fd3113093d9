"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Statistical criteria use fixed seeds, so outcomes are repeatable.
"""

import math

import numpy as np
import pytest
from scipy import stats

from relcode.bench import (
    SweepConfig,
    bias_study,
    check_bias,
    check_thresholds,
    encode_vector,
    run_sweep,
)
from relcode.bench.sweep import BETA_STEPS, LOG2_E
from relcode.codecs import Bits, deserialize, serialize
from relcode.distributions import gaussian_pair_for_targets
from relcode.engine import (
    SplitRule,
    decode,
    encode,
    encode_batch,
    simulate_bound_masses,
)
from relcode.randomness import derive_seeds

from oracles import DirectGlobalRecursion

SEED = 20260810


def report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status} - {detail}", flush=True)
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def random_pairs():
    rng = np.random.default_rng(SEED)
    pairs = []
    for _ in range(10):
        dkl = float(rng.uniform(0.5, 5.0))
        # offsets below ~0.75 can be infeasible (the m = 0 floor)
        dinf = dkl + float(rng.uniform(0.8, 2.5))
        pairs.append(gaussian_pair_for_targets(dkl, dinf))
    return pairs


@pytest.fixture(scope="module")
def runtime_rows():
    cfg = SweepConfig(
        mode="runtime_vs_dinf",
        dkl_grid=(3.0,),
        dinf_grid=tuple(float(d) for d in range(4, 13)),
        seeds_per_point=4000,
        variants=(SplitRule.SAMPLE, SplitRule.DYADIC),
        seed_base=SEED + 1,
    )
    return cfg, run_sweep(cfg)


@pytest.fixture(scope="module")
def global_runtime_rows():
    cfg = SweepConfig(
        mode="runtime_vs_dinf",
        dkl_grid=(3.0,),
        dinf_grid=tuple(float(d) for d in range(4, 10)),
        seeds_per_point=4000,
        variants=(SplitRule.GLOBAL,),
        seed_base=SEED + 2,
    )
    return cfg, run_sweep(cfg)


@pytest.fixture(scope="module")
def codelength_rows():
    cfg = SweepConfig(
        mode="codelength_vs_dkl",
        dkl_grid=tuple(float(d) for d in range(1, 9)),
        dinf_grid=tuple(float(d) + 2.0 for d in range(1, 9)),
        seeds_per_point=4000,
        variants=(SplitRule.SAMPLE, SplitRule.DYADIC),
        seed_base=SEED + 3,
    )
    return cfg, run_sweep(cfg)


def test_criterion_01_unbiasedness(random_pairs):
    n = 100_000
    failures = []
    lines = []
    for i, pair in enumerate(random_pairs):
        rules = [SplitRule.SAMPLE, SplitRule.DYADIC]
        if pair.dinf_bits <= 8.0:
            rules.append(SplitRule.GLOBAL)
        for rule in rules:
            seeds = derive_seeds(SEED + 10, i, list(SplitRule).index(rule), n)
            out = encode_batch(pair, rule, seeds)
            p_value = float(stats.kstest(out.samples, pair.target.cdf).pvalue)
            lines.append(
                f"dkl={pair.dkl_bits:.2f} dinf={pair.dinf_bits:.2f} "
                f"{rule.value}: p={p_value:.4f}"
            )
            if not p_value > 1e-3:
                failures.append(lines[-1])
    detail = (
        f"KS at 1e-3 over {len(lines)} (pair, variant) runs of {n} samples"
    )
    if failures:
        detail += "; rejected: " + "; ".join(failures)
    report(1, not failures, detail)


def test_criterion_02_runtime_flatness(runtime_rows, global_runtime_rows):
    cfg, rows = runtime_rows
    gcfg, grows = global_runtime_rows
    violations = [
        v for v in check_thresholds(cfg, rows) if "slope" in v
    ]
    slopes = {}
    for variant in ("sample", "dyadic"):
        rs = [r for r in rows if r["variant"] == variant]
        x = np.array([r["dinf_target"] for r in rs])
        y = np.array([r["mean_steps"] for r in rs])
        slopes[variant] = float(np.polyfit(x, y, 1)[0])
    grs = [r for r in grows if not r["reason"]]
    gx = np.array([r["dinf_target"] for r in grs])
    gy = np.log2([r["mean_steps"] for r in grs])
    gslope = float(np.polyfit(gx, gy, 1)[0])
    ok = not violations and abs(slopes["sample"]) < 0.1 and (
        abs(slopes["dyadic"]) < 0.1
    ) and gslope >= math.log2(1.8)
    report(
        2, ok,
        f"slopes: sample {slopes['sample']:+.4f}, dyadic {slopes['dyadic']:+.4f} "
        f"steps/bit (|.| < 0.1); global growth x{2**gslope:.2f}/bit (>= 1.8) "
        f"over dinf 4..9",
    )


def test_criterion_03_sample_split_step_bound(runtime_rows, codelength_rows):
    all_rows = runtime_rows[1] + codelength_rows[1]
    worst = -math.inf
    ok = True
    for r in all_rows:
        if r["variant"] != "sample":
            continue
        bound = BETA_STEPS * r["dkl_target"] + 4.0 + 3.0 * r["se_steps"]
        worst = max(worst, r["mean_steps"] - bound)
        if r["mean_steps"] > bound:
            ok = False
    report(
        3, ok,
        f"mean steps <= {BETA_STEPS:.2f}*dkl + 4 + 3se at every sweep point "
        f"(worst margin {worst:+.2f} steps)",
    )


def test_criterion_04_contraction():
    pair = gaussian_pair_for_targets(3.0, 5.0)
    seeds = derive_seeds(SEED + 4, 0, 0, 4000)
    masses = simulate_bound_masses(pair, SplitRule.SAMPLE, seeds, 10)
    worst = -math.inf
    ok = True
    for d in range(1, 11):
        mean = float(masses[:, d].mean())
        se = float(masses[:, d].std(ddof=1) / math.sqrt(masses.shape[0]))
        slack = 0.75**d + 3 * se - mean
        worst = max(worst, -slack)
        if mean > 0.75**d + 3 * se:
            ok = False
    report(
        4, ok,
        f"mean P(S_d) <= (3/4)^d + 3se for d=1..10 (worst excess {worst:+.4f})",
    )


def test_criterion_05_codelength_bounds(codelength_rows):
    cfg, rows = codelength_rows
    violations = check_thresholds(cfg, rows)
    margins = []
    for r in rows:
        dkl = r["dkl_target"]
        bound = dkl + 2.0 * math.log2(dkl + 1.0) + 11.0
        margins.append(bound - r["mean_bits"])
    report(
        5, not violations,
        "serialized |C| <= dkl + 2*log2(dkl+1) + 11 and path cost <= "
        f"dkl + log2(e) + 3se for dkl=1..8, both variants "
        f"(min codelength margin {min(margins):.2f} bits)"
        + ("; " + "; ".join(violations) if violations else ""),
    )


def test_criterion_06_round_trip_exactness():
    rng = np.random.default_rng(SEED + 6)
    n_pairs, seeds_per_pair = 200, 50
    checked = 0
    for _ in range(n_pairs):
        dkl = float(rng.uniform(0.5, 4.0))
        # the feasibility floor dinf - dkl peaks near 0.75 on this dkl range
        pair = gaussian_pair_for_targets(dkl, dkl + float(rng.uniform(0.8, 2.5)))
        for _ in range(seeds_per_pair):
            seed = int(rng.integers(0, 2**63))
            rule = list(SplitRule)[int(rng.integers(0, 3))]
            res = encode(pair, rule, seed)
            blob = serialize(res)
            tail = Bits([int(b) for b in rng.random(7) < 0.5])
            rule2, depth2, index2, end = deserialize(blob + tail, seed=seed)
            assert end == len(blob), "codeword not consumed exactly"
            assert (rule2, depth2, index2) == (rule, res.depth, res.heap_index)
            got = decode(pair.proposal, rule2, seed, index2)
            assert got == res.sample, "decoded sample differs"
            checked += 1
    report(6, checked == 10_000, f"{checked} serialize/decode round trips bit-exact")


def test_criterion_07_global_matches_direct_recursion():
    pair = gaussian_pair_for_targets(1.0, 2.0)
    seeds = derive_seeds(SEED + 7, 0, 0, 1000)
    out = encode_batch(pair, SplitRule.GLOBAL, seeds)
    mismatches = 0
    for i, s in enumerate(seeds):
        oracle = DirectGlobalRecursion(pair)
        x, d = oracle.run(int(s))
        if d != int(out.depths[i]) or x != float(out.samples[i]):
            mismatches += 1
    report(
        7, mismatches == 0,
        f"direct ruled-out-mass recursion agrees on accept step and sample "
        f"for 1000 shared-randomness runs ({mismatches} mismatches)",
    )


def test_criterion_08_depth_limited_bias():
    rows = bias_study(
        3.0, 5.0, tuple(range(1, 9)), samples_per_group=200, n_groups=10,
        seed_base=SEED + 8,
    )
    violations = check_bias(rows)
    series = ", ".join(
        f"{r['extra_bits']}:{r['bias_bits']:+.3f}" for r in rows
    )
    report(
        8, not violations,
        f"bias nonincreasing within 2se and final within 3se of exact "
        f"(bits: {series})" + ("; " + "; ".join(violations) if violations else ""),
    )


def test_criterion_09_zeta_vs_delta():
    kls = np.linspace(0.05, 0.5, 50)
    pairs = [gaussian_pair_for_targets(float(k), float(k) + 0.75) for k in kls]
    rep = encode_vector(pairs, seed=SEED + 9, calibration_runs=256, repeats=10)
    ok = rep.round_trip_ok and rep.zeta_total_bits <= rep.delta_total_bits
    report(
        9, ok,
        f"50-dim vector: fitted-zeta {rep.zeta_total_bits:.1f} bits <= "
        f"delta {rep.delta_total_bits:.1f} bits "
        f"(sum KL {rep.kl_total_bits:.1f}, sum log2(KL+1) "
        f"{rep.log_overhead_total_bits:.1f}; round trip {rep.round_trip_ok})",
    )


def test_criterion_10_dyadic_runtime_report(codelength_rows):
    _, rows = codelength_rows
    lines = [
        f"dkl={r['dkl_target']:.0f}: mean steps {r['mean_steps']:.2f} "
        f"(+{r['mean_steps'] - r['dkl_target']:+.2f} vs dkl)"
        for r in rows if r["variant"] == "dyadic"
    ]
    report(
        10, True,
        "report only - dyadic mean steps vs dkl: " + "; ".join(lines),
    )
