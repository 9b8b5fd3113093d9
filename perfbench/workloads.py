"""The three workloads: what each op is, its inputs, and how it is checked.

Every workload is a closed loop with one client.  A workload is a fixed list
of ops (one pass) whose inputs come from one ``numpy.random.default_rng(seed)``,
never from ``relcode``'s own seed derivation, so a change to the program
cannot change its inputs.  The timed loop runs the pass several times over the
same inputs.  Quality figures, digests and every count in the traced run come
from one pass, so they repeat exactly for one seed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

# ops are looked up through these module objects at call time, so that the
# tracer's wrappers (which replace module attributes) are seen
engine = codecs = bench_vector = None


def import_relcode() -> None:
    global engine, codecs, bench_vector
    import relcode.bench.vector as bench_vector
    import relcode.codecs as codecs
    import relcode.engine as engine


@dataclass(frozen=True)
class Op:
    rule: object  # relcode.engine.SplitRule
    pair: object  # pair key into ``Workload.pairs``
    arg: object  # the op's input: a seed array, a seed, or a vector seed
    runs: int  # runs encoded by the op
    latency: bool  # whether the op is a latency sample


def _same_float(a, b) -> bool:
    return float(a).hex() == float(b).hex()


class Workload:
    """Subclasses set ``name`` and ``tail_pct`` and implement ``setup`` (which
    fills ``pairs`` and ``ops`` and warms up), ``execute`` and ``verify``."""

    name = ""
    tail_pct = 99

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.pairs: dict = {}
        self.ops: list[Op] = []
        self.digest = hashlib.sha256()
        self.bits = 0  # serialized bits of the pass's checked codes
        self.kl = 0.0  # summed D_KL (bits) of the same codes
        self.codes = 0

    def _seed(self) -> int:
        return int(self.rng.integers(0, 2**64, dtype=np.uint64))

    def _seeds(self, n: int) -> np.ndarray:
        return self.rng.integers(0, 2**64, n, dtype=np.uint64)

    def _add_code(self, bits: int, kl: float, codes: int = 1) -> None:
        self.bits += bits
        self.kl += kl
        self.codes += codes

    def bits_over_kl(self) -> float:
        return (self.bits - self.kl) / self.codes


class Batch(Workload):
    """``encode_batch`` over fixed (rule, pair, chunk) cells."""

    name = "batch"
    tail_pct = 90
    SMALL_REPEATS = 13  # 104 calls of 1,024 runs: p90 has ten calls beyond it
    CHECKS_PER_CALL = 16

    def setup(self) -> None:
        from relcode import gaussian_pair_for_targets
        from relcode.engine import SplitRule

        S, D, G = SplitRule.SAMPLE, SplitRule.DYADIC, SplitRule.GLOBAL
        keys = [(1, 3), (3, 5), (8, 10), (3, 12)]
        self.pairs = {k: gaussian_pair_for_targets(*k) for k in keys + [(2, 4)]}
        cells = [(r, k, 1024) for _ in range(self.SMALL_REPEATS) for r in (S, D) for k in keys]
        cells += [(r, k, 16384) for r in (S, D) for k in keys]
        cells += [(r, (3, 5), 262144) for r in (S, D)]
        cells += [(G, k, 16384) for k in [(2, 4), (3, 5)]]
        self.ops = [Op(r, k, self._seeds(n), n, n == 1024) for r, k, n in cells]
        # one run per (rule, pair); the global one fills the level schedule
        for r, k in dict.fromkeys((op.rule, op.pair) for op in self.ops):
            engine.encode_batch(self.pairs[k], r, self._seeds(1))

    def execute(self, op: Op):
        return engine.encode_batch(self.pairs[op.pair], op.rule, op.arg)

    def verify(self, op: Op, out, first_pass: bool) -> bool:
        n, pair = op.runs, self.pairs[op.pair]
        if len(out.samples) != n or len(out.heap_indices) != n or not out.accepted.all():
            return False
        ok = True
        for j in np.unique(np.linspace(0, n - 1, self.CHECKS_PER_CALL).round().astype(int)):
            index, depth, seed = out.heap_indices[j], int(out.depths[j]), int(op.arg[j])
            x = engine.decode(pair.proposal, op.rule, seed, index)
            ok &= index.bit_length() - 1 == depth and _same_float(x, out.samples[j])
            if first_pass:
                code = codecs.serialize(engine.RecResult(
                    sample=float(out.samples[j]), heap_index=index, depth=depth,
                    accepted=True, rule=op.rule, seed=seed,
                    proposal_mass=float(out.proposal_mass[j]), bound_trace=()))
                self._add_code(len(code), pair.dkl_bits)
                self.digest.update(code.to_bytes())
        if first_pass:
            self.digest.update(out.samples.tobytes())
            self.digest.update(out.depths.tobytes())
            self.digest.update(",".join(format(h, "x") for h in out.heap_indices).encode())
        return bool(ok)


class Roundtrip(Workload):
    """Single codes through encode, serialize, bytes and back, and decode."""

    name = "roundtrip"
    tail_pct = 99
    # a round is seven codes; one global code per round (a global code costs
    # ten of the others), alternating between its two pairs
    ROUNDS = 144  # 1,008 codes: p99 has ten codes beyond it

    def setup(self) -> None:
        from relcode import gaussian_pair_for_targets
        from relcode.engine import SplitRule

        D, S, G = SplitRule.DYADIC, SplitRule.SAMPLE, SplitRule.GLOBAL
        rounds = [
            [(D, (1, 3)), (S, (1, 3)), (D, (3, 5)), (G, glob), (S, (3, 5)),
             (D, (8, 10)), (S, (8, 10))]
            for glob in [(2, 4), (3, 5)]
        ]
        self.pairs = {k: gaussian_pair_for_targets(*k) for _, k in rounds[0] + rounds[1]}
        self.ops = [Op(r, k, self._seed(), 1, True)
                    for i in range(self.ROUNDS) for r, k in rounds[i % 2]]
        for r, k in dict.fromkeys(rounds[0] + rounds[1]):
            self._roundtrip(r, self.pairs[k], self._seed())

    @staticmethod
    def _roundtrip(rule, pair, seed: int):
        res = engine.encode(pair, rule, seed)
        code = codecs.serialize(res)
        received = codecs.Bits.from_bytes(code.to_bytes())
        rule_out, depth, index, end = codecs.deserialize(received, seed)
        x = engine.decode(pair.proposal, rule_out, seed, index)
        return res, code, (rule_out, depth, index, end), x

    def execute(self, op: Op):
        return self._roundtrip(op.rule, self.pairs[op.pair], op.arg)

    def verify(self, op: Op, out, first_pass: bool) -> bool:
        res, code, (rule_out, depth, index, end), x = out
        ok = (
            res.accepted and rule_out is op.rule and depth == res.depth
            and index == res.heap_index and end == len(code)
            and _same_float(x, res.sample)
        )
        if first_pass:
            self._add_code(len(code), self.pairs[op.pair].dkl_bits)
            self.digest.update(
                f"{res.sample.hex()},{res.heap_index:x},".encode() + code.to_bytes())
        return bool(ok)


class Vector(Workload):
    """``encode_vector`` as ``bench vector --dims 50 --repeats 10`` runs it."""

    name = "vector"
    tail_pct = 90
    CALLS = 6
    DIMS, CALIB, REPEATS = 50, 256, 10

    def setup(self) -> None:
        from relcode import gaussian_pair_for_targets
        from relcode.engine import SplitRule

        # the KL grid of the ``bench vector`` defaults: 0.05 to 0.5 bits
        kls = [0.05 + 0.45 * d / (self.DIMS - 1) for d in range(self.DIMS)]
        self.pairs = {"dims": [gaussian_pair_for_targets(kl, kl + 0.75) for kl in kls]}
        runs = self.DIMS * (self.CALIB + self.REPEATS)
        self.ops = [Op(SplitRule.DYADIC, "dims", int(self.rng.integers(0, 2**63)), runs, True)
                    for _ in range(self.CALLS)]
        for pair in self.pairs["dims"]:
            engine.encode_batch(pair, SplitRule.DYADIC, self._seeds(1))

    def execute(self, op: Op):
        return bench_vector.encode_vector(
            self.pairs[op.pair], op.arg, calibration_runs=self.CALIB, repeats=self.REPEATS)

    def verify(self, op: Op, out, first_pass: bool) -> bool:
        ok = out.round_trip_ok and len(out.dims) == self.DIMS
        if first_pass:
            # a code is one vector: the joint stream over all dimensions
            self._add_code(round(out.zeta_total_bits * self.REPEATS),
                           out.kl_total_bits * self.REPEATS, self.REPEATS)
            self.digest.update(repr((out.dims, out.delta_total_bits,
                                     out.zeta_total_bits)).encode())
        return bool(ok)


WORKLOADS = {w.name: w for w in (Batch, Roundtrip, Vector)}

