"""Plot-data emission: per-series text files plus a gnuplot script.

No plotting library is involved; the outputs are (x, y, yerr) columns that
any tool can render.  Emission is deterministic: values are copied verbatim
from the CSV, so rerunning on the same file reproduces identical bytes.
"""

from __future__ import annotations

import csv
import os

from ..engine import SplitRule

__all__ = ["SchemaError", "emit_plots"]

_REQUIRED = {
    "dkl_target", "dinf_target", "variant", "mean_steps", "se_steps",
    "mean_bits", "se_bits", "reason",
}

_FIGURES = (
    ("steps", "mean_steps", "se_steps", "mean steps"),
    ("bits", "mean_bits", "se_bits", "mean code bits"),
)


class SchemaError(ValueError):
    """The CSV lacks the sweep schema, has no data rows, or has a variant or
    file name that cannot go into the gnuplot script verbatim."""


def emit_plots(csv_path: str, out_dir: str) -> list[str]:
    """Write per-variant .dat series and a .gp script; returns the paths."""
    with open(csv_path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not _REQUIRED.issubset(reader.fieldnames):
            raise SchemaError(f"{csv_path} does not match the sweep schema")
        rows = [r for r in reader]
    rows = [r for r in rows if not r["reason"]]
    if not rows:
        raise SchemaError(f"{csv_path} has no usable data rows")
    # both are written into quoted strings of the script and into file names
    rules = {rule.value for rule in SplitRule}
    for r in rows:
        if r["variant"] not in rules:
            raise SchemaError(f"{csv_path}: variant {r['variant']!r} is not a split rule")
    if any(c in os.path.basename(csv_path) for c in "'\n\r"):
        raise SchemaError(f"{csv_path!r}: a quote or line break in the file name")

    dkl_values = {r["dkl_target"] for r in rows}
    x_col = "dkl_target" if len(dkl_values) > 1 else "dinf_target"
    x_label = "D_KL (bits)" if x_col == "dkl_target" else "D_inf (bits)"

    variants = []
    for r in rows:
        if r["variant"] not in variants:
            variants.append(r["variant"])

    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.splitext(os.path.basename(csv_path))[0]
    written: list[str] = []
    series_files: dict[tuple[str, str], str] = {}
    for fig, ycol, ecol, _ in _FIGURES:
        for variant in variants:
            path = os.path.join(out_dir, f"{stem}_{fig}_{variant}.dat")
            lines = [f"# {x_col} {ycol} {ecol}\n"]
            for r in rows:
                if r["variant"] == variant:
                    lines.append(f"{r[x_col]} {r[ycol]} {r[ecol]}\n")
            with open(path, "w", newline="") as fh:
                fh.writelines(lines)
            series_files[(fig, variant)] = os.path.basename(path)
            written.append(path)

    script = [f"# gnuplot script generated from {os.path.basename(csv_path)}\n"]
    script.append("set datafile missing 'nan'\n")
    for fig, _, _, y_label in _FIGURES:
        script.append(f"\nset output '{stem}_{fig}.svg'\n")
        script.append("set terminal svg size 640,480\n")
        script.append(f"set xlabel '{x_label}'\nset ylabel '{y_label}'\n")
        parts = [
            f"'{series_files[(fig, v)]}' using 1:2:3 with yerrorlines title '{v}'"
            for v in variants
        ]
        script.append("plot " + ", \\\n     ".join(parts) + "\n")
    gp_path = os.path.join(out_dir, f"{stem}.gp")
    with open(gp_path, "w", newline="") as fh:
        fh.writelines(script)
    written.append(gp_path)
    return written
