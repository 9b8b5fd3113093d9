"""tools/bench_pairs.py's pair statistics on canned numbers; no benchmark runs."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def test_summary_lower_is_better():
    # pairs 0, 3 and 4 are wins, pair 1 a tie and pair 2 a loss; the parent's
    # sorted figures 10..14 have median 12 and inclusive quartiles 11 and 13
    s = bench_pairs.summary([10.0, 12.0, 11.0, 14.0, 13.0], [9.0, 12.0, 12.0, 13.0, 10.0], False)
    assert s == {
        "parent": 12.0,
        "change": 12.0,
        "parent_quartiles": [11.0, 13.0],
        "parent_iqr": 2.0,
        "change_wins": 3,
        "pairs": 5,
    }


def test_summary_higher_is_better():
    # inclusive quartiles of 1, 2, 3, 4 are 1.75 and 3.25 (the exclusive
    # method gives 1.25 and 3.75); two ties count for neither side
    s = bench_pairs.summary([1.0, 2.0, 3.0, 4.0], [2.0, 2.0, 3.0, 3.0], True)
    assert s["parent"] == s["change"] == 2.5
    assert s["parent_quartiles"] == pytest.approx([1.75, 3.25])
    assert s["parent_iqr"] == pytest.approx(1.5)
    assert (s["change_wins"], s["pairs"]) == (1, 4)


def test_digest_mismatches():
    parent = [{"digest": d} for d in ("aa", "bb", "cc")]
    assert bench_pairs.digest_mismatches(parent, parent) == []
    change = [{"digest": d} for d in ("aa", "bx", "cy")]
    assert bench_pairs.digest_mismatches(parent, change) == [1, 2]
