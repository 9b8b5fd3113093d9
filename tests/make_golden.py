"""Golden outputs: samples, heap indices, codewords, sweep CSV, codec bits.

Run from the root of a checkout to (re)write the fixture that
``tests/test_golden.py`` compares against:

    PYTHONPATH=src python tests/make_golden.py

Before it writes, it prints the path of every leaf whose value the rewrite
changes, adds or drops, or ``no leaf moved``.

Every value is recorded exactly (floats as ``float.hex``, indices as hex,
codewords as byte hex, batch outputs as sha256 digests), so the fixture only
stays unchanged while every sample, heap index and codeword does.  The
``codecs`` section pins the bit strings of the integer codes and the
arithmetic coder, each as ``"<nbits>:<byte hex>"``, and the power-law
models' ``cdf_before`` and ``pmf`` floats.  The inputs come from fixed
integers and ``numpy.random.default_rng``, never from ``relcode``'s own seed
derivation.
The ``trace_*`` leaves of a code pin its active intervals, which
``oracles.path_intervals`` replays from the code's heap index.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

import numpy as np

from relcode.bench import SweepConfig, encode_vector, run_sweep, write_rows
from relcode.codecs import (
    ArithmeticEncoder,
    ZetaModel,
    elias_delta_encode,
    elias_gamma_encode,
    fit_zeta,
    quantize_p0,
    serialize,
)
from relcode.codecs.zeta import N_MAX
from relcode.distributions import Distribution1D, DistributionPair, gaussian_pair_for_targets
from relcode.engine import SplitRule, encode, encode_batch, simulate_bound_masses

from oracles import path_intervals

FIXTURE = Path(__file__).resolve().parent / "golden" / "outputs.json"

STD = Distribution1D(0.0, 1.0)
SEEDS = list(range(16)) + [2**63, 2**64 - 1]
LIMITED_SEEDS = SEEDS[:6]
BATCH_RUNS = 4096


def _pairs() -> dict[str, DistributionPair]:
    pairs = {
        f"targets({dkl:g},{dinf:g})": gaussian_pair_for_targets(dkl, dinf)
        for dkl, dinf in ((1.0, 3.0), (2.0, 4.0), (3.0, 5.0), (8.0, 10.0))
    }
    pairs["narrow N(0,0.5^2)"] = DistributionPair(Distribution1D(0.0, 0.5), STD)
    pairs["identical N(0,1)"] = DistributionPair(STD, STD)
    return pairs


def _cells():
    """(pair name, pair, rule); global only where its ~2^D_inf steps are cheap."""
    for name, pair in _pairs().items():
        for rule in SplitRule:
            if rule is SplitRule.GLOBAL and pair.dinf_bits > 5.0:
                continue
            yield name, pair, rule


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


def _code(pair, rule, seed, d_max) -> dict:
    res = encode(pair, rule, seed, d_max=d_max)
    trace = path_intervals(pair.proposal, rule, seed, res.heap_index)
    ends = ";".join(f"{iv.lo.hex()},{iv.hi.hex()}" for iv in trace)
    last = trace[-1]
    return {
        "sample": res.sample.hex(),
        "heap_index": hex(res.heap_index),
        "depth": res.depth,
        "accepted": res.accepted,
        "proposal_mass": res.proposal_mass.hex(),
        "trace_len": len(trace),
        "trace_last": [last.lo.hex(), last.hi.hex()],
        "trace_sha256": _sha(ends.encode()),
        "codeword": serialize(res).to_bytes().hex(),
    }


def _batch_digest(pair, rule, seeds) -> str:
    out = encode_batch(pair, rule, seeds)
    return _sha(
        np.ascontiguousarray(out.samples, dtype="<f8").tobytes(),
        np.ascontiguousarray(out.depths, dtype="<i8").tobytes(),
        ",".join(hex(i) for i in out.heap_indices).encode(),
        np.ascontiguousarray(out.accepted, dtype=bool).tobytes(),
        np.ascontiguousarray(out.proposal_mass, dtype="<f8").tobytes(),
    )


def _sweep_csv() -> str:
    # the ``small_config`` sweep of tests/test_bench.py, copied so that an
    # edit to that test cannot change the fixture
    cfg = dict(
        mode="runtime_vs_dinf",
        dkl_grid=(2.0,),
        dinf_grid=(3.0, 4.0),
        seeds_per_point=300,
        variants=(SplitRule.SAMPLE, SplitRule.DYADIC),
        seed_base=7,
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sweep.csv")
        write_rows(run_sweep(SweepConfig(**cfg)), path)
        return Path(path).read_bytes().decode()


def _bits(b) -> str:
    return f"{len(b)}:{b.to_bytes().hex()}"


def _codec_ints() -> list[int]:
    ints = set(range(1, 65))
    for k in range(1, 71):
        ints.update((2**k - 1, 2**k, 2**k + 1))
    return sorted(ints)


def _zeta_masses(model: ZetaModel) -> dict:
    """[cdf_before(n), pmf(n)] as float hex; quantized_cum is a function of
    the first."""
    return {
        str(n): [model.cdf_before(n).hex(), model.pmf(n).hex()]
        for n in list(range(1, 65)) + [10**k for k in range(2, 19)] + [N_MAX]
    }


def _arith_stream() -> str:
    rng = np.random.default_rng(2026)
    enc = ArithmeticEncoder()
    for p, u in zip(rng.random(400) * 0.98 + 0.01, rng.random(400)):
        enc.encode_bit(int(u < 0.5), quantize_p0(float(p)))
    cum = [0, 5, 9, 40, 100]
    for s in rng.integers(0, 4, 300):
        enc.encode(cum[s], cum[s + 1], 100)
    return _bits(enc.finish())


def _codecs() -> dict:
    ints = _codec_ints()
    fitted = fit_zeta(np.random.default_rng(2027).uniform(0.0, 4.0, 200))
    pairs = [gaussian_pair_for_targets(dkl, dkl + 1.5) for dkl in (0.2, 0.5, 1.0, 2.0)]
    vec = encode_vector(pairs, seed=5, calibration_runs=64, repeats=3)
    return {
        "gamma": {str(n): _bits(elias_gamma_encode(n)) for n in ints},
        "delta": {str(n): _bits(elias_delta_encode(n)) for n in ints},
        "zeta": {
            "1.05": _zeta_masses(ZetaModel(1.05)),
            "2.0": _zeta_masses(ZetaModel(2.0)),
            "fitted": _zeta_masses(fitted),
            "fitted_exponent": fitted.exponent.hex(),
        },
        "arith": _arith_stream(),
        "vector_totals": {
            "delta_total_bits": vec.delta_total_bits.hex(),
            "zeta_total_bits": vec.zeta_total_bits.hex(),
            "round_trip_ok": vec.round_trip_ok,
        },
    }


def build() -> dict:
    """Recompute every golden value from the current program."""
    codes, batches = {}, {}
    batch_seeds = np.random.default_rng(2024).integers(0, 2**64, BATCH_RUNS, dtype=np.uint64)
    for name, pair, rule in _cells():
        key = f"{name}|{rule.value}"
        for seed in SEEDS:
            codes[f"{key}|{seed}"] = _code(pair, rule, seed, None)
        for seed in LIMITED_SEEDS:
            codes[f"{key}|{seed}|d_max=2"] = _code(pair, rule, seed, 2)
        batches[key] = _batch_digest(pair, rule, batch_seeds)
    pair35 = gaussian_pair_for_targets(3.0, 5.0)
    bound_seeds = np.random.default_rng(2025).integers(0, 2**64, 512, dtype=np.uint64)
    masses = {
        rule.value: _sha(
            np.ascontiguousarray(
                simulate_bound_masses(pair35, rule, bound_seeds, 10), dtype="<f8"
            ).tobytes()
        )
        for rule in SplitRule
    }
    return {
        "codes": codes,
        "batch_sha256": batches,
        "bound_masses_sha256": masses,
        "sweep_csv": _sweep_csv(),
        "codecs": _codecs(),
    }


def differing_leaves(got, want, path=""):
    """The path of every leaf, such as ``codecs/zeta/fitted_exponent``, whose
    value differs between the two trees or that only one of them has."""
    if not (isinstance(got, dict) and isinstance(want, dict)):
        return [] if got == want else [path]
    out = []
    for key in sorted(got.keys() | want.keys()):
        sub = f"{path}/{key}" if path else key
        if key in got and key in want:
            out += differing_leaves(got[key], want[key], sub)
        else:
            out.append(sub)
    return out


def dumps(golden: dict) -> str:
    return json.dumps(golden, indent=1, sort_keys=True) + "\n"


if __name__ == "__main__":
    golden = build()
    old = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}
    print("\n".join(differing_leaves(golden, old)) or "no leaf moved")
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(dumps(golden))
    print(f"wrote {FIXTURE}")
