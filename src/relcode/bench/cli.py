"""Command-line benchmark harness.

Subcommands: ``sweep`` (grid runs), ``unbias`` (KS tests), ``bias``
(depth-limited sampling bias), ``vector`` (dimensionwise coding), and
``plot`` (plot-data emission from a sweep CSV).  Each study returns rows,
which are printed and, with ``--out``, written as CSV.  Invalid options
exit with status 2 and a usage line before the first encode.  With
``--check``, exits with status 2 when any acceptance-style threshold is
violated.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict

from ..engine import SplitRule
from ..distributions import Unsatisfiable, gaussian_pair_for_targets
from .bias import bias_plan, bias_study, check_bias
from .plots import emit_plots
from .sweep import MODES, SweepConfig, check_thresholds, run_sweep, write_rows
from .vector import encode_vector

__all__ = ["main", "build_parser"]

_VARIANTS = {r.value: r for r in SplitRule}


def _float_list(text: str) -> tuple[float, ...]:
    out: list[float] = []
    for token in text.split(","):
        token = token.strip()
        if ".." in token:
            a, b = token.split("..")
            out.extend(float(v) for v in range(int(a), int(b) + 1))
        elif token:
            out.append(float(token))
    if not out:
        raise argparse.ArgumentTypeError("empty list")
    return tuple(out)


def _int_list(text: str) -> tuple[int, ...]:
    values = _float_list(text)
    if not all(v.is_integer() for v in values):
        raise argparse.ArgumentTypeError(f"{text!r} is not a list of integers")
    return tuple(int(v) for v in values)


def _count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not a positive count")
    return value


def _variant_list(text: str) -> tuple[SplitRule, ...]:
    out = []
    for token in text.split(","):
        token = token.strip().lower()
        if token not in _VARIANTS:
            raise argparse.ArgumentTypeError(
                f"unknown variant {token!r}; choose from {sorted(_VARIANTS)}"
            )
        out.append(_VARIANTS[token])
    return tuple(out)


def _dmax(text: str):
    if text.lower() in ("inf", "none", ""):
        return None
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bench",
        description="Relative-entropy-coding benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed-base", type=int, default=0)
        p.add_argument("--out", default=None, help="CSV output path")
        p.add_argument("--check", action="store_true",
                       help="exit 2 when thresholds are violated")

    def grid(p, variants):
        p.add_argument("--dkl", type=_float_list, required=True)
        p.add_argument("--dinf", type=_float_list, required=True)
        p.add_argument("--variants", type=_variant_list, default=variants)
        p.add_argument("--dmax", type=_dmax, default=None)
        p.add_argument("--force-global", action="store_true",
                       help="run the global variant even at large dinf")
        p.add_argument("--seeds", type=int, default=4000,
                       help="runs per grid point")
        p.add_argument("--workers", type=int, default=0)
        common(p)

    p = sub.add_parser("sweep", help="grid sweep over divergence targets")
    p.add_argument("--mode", choices=MODES, default="runtime_vs_dinf")
    grid(p, tuple(SplitRule))
    p = sub.add_parser("unbias", help="KS unbiasedness test per variant")
    grid(p, (SplitRule.SAMPLE, SplitRule.DYADIC))

    p = sub.add_parser("bias", help="depth-limited sampling bias study")
    p.add_argument("--dkl", type=float, default=3.0)
    p.add_argument("--dinf", type=float, default=5.0)
    p.add_argument("--extra-bits", type=_int_list, default=tuple(range(1, 9)))
    p.add_argument("--samples", type=int, default=200,
                   help="samples per estimation group")
    p.add_argument("--groups", type=int, default=10)
    common(p)

    p = sub.add_parser("vector", help="dimensionwise vector coding")
    p.add_argument("--dims", type=_count, default=50)
    p.add_argument("--kl-min", type=float, default=0.05)
    p.add_argument("--kl-max", type=float, default=0.5)
    p.add_argument("--dinf-offset", type=float, default=0.75)
    p.add_argument("--calib", type=_count, default=256)
    p.add_argument("--repeats", type=_count, default=10)
    common(p)

    p = sub.add_parser("plot", help="emit plot data from a sweep CSV")
    p.add_argument("csv")
    p.add_argument("--outdir", default="plots")
    return parser


def _print_rows(rows) -> None:
    if not rows:
        return
    cols = list(rows[0].keys())
    print("  ".join(cols))
    for r in rows:
        print("  ".join(
            format(v, ".4g") if isinstance(v, float) else str(v)
            for v in (r[c] for c in cols)
        ))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "plot":
        for path in emit_plots(args.csv, args.outdir):
            print(path)
        return 0

    if args.command == "vector":
        kls = [
            args.kl_min + (args.kl_max - args.kl_min) * d / max(args.dims - 1, 1)
            for d in range(args.dims)
        ]
        try:
            pairs = [
                gaussian_pair_for_targets(kl, kl + args.dinf_offset) for kl in kls
            ]
        except Unsatisfiable as err:
            parser.error(str(err))
        report = encode_vector(
            pairs, args.seed_base, calibration_runs=args.calib,
            repeats=args.repeats,
        )
        print(f"dims={args.dims} repeats={report.repeats}")
        print(f"kl_total_bits={report.kl_total_bits:.3f}")
        print(f"log_overhead_total_bits={report.log_overhead_total_bits:.3f}")
        print(f"delta_total_bits={report.delta_total_bits:.3f}")
        print(f"zeta_total_bits={report.zeta_total_bits:.3f}")
        print(f"round_trip_ok={report.round_trip_ok}")
        if args.out:
            write_rows([
                dict(asdict(d), fitted_exponent="" if d.fitted_exponent is None
                     else f"{d.fitted_exponent:.6g}")
                for d in report.dims
            ], args.out)
        ok = report.round_trip_ok and report.zeta_total_bits <= report.delta_total_bits
        if args.check and not ok:
            print("CHECK FAILED: zeta totals exceed delta totals", file=sys.stderr)
            return 2
        return 0

    if args.command == "bias":
        try:
            bias_plan(args.dkl, args.dinf, args.extra_bits, args.samples, args.groups)
        except ValueError as err:
            parser.error(str(err))
        rows = bias_study(
            args.dkl, args.dinf, args.extra_bits, samples_per_group=args.samples,
            n_groups=args.groups, seed_base=args.seed_base,
        )
        violations = check_bias(rows) if args.check else []
    else:
        try:
            config = SweepConfig(
                mode="unbiasedness" if args.command == "unbias" else args.mode,
                dkl_grid=args.dkl,
                dinf_grid=args.dinf,
                seeds_per_point=args.seeds,
                variants=args.variants,
                d_max=args.dmax,
                seed_base=args.seed_base,
                workers=args.workers,
                force_global=args.force_global,
            )
        except ValueError as err:
            parser.error(str(err))
        rows = run_sweep(config)
        violations = check_thresholds(config, rows) if args.check else []

    if args.out:
        write_rows(rows, args.out)
    _print_rows(rows)
    if args.check:
        if violations:
            for v in violations:
                print(f"CHECK FAILED: {v}", file=sys.stderr)
            return 2
        print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
