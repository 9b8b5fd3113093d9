"""Every script under demos/ and every ``python`` block of README.md runs
to completion."""

import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)


def test_all_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def test_readme_python_blocks_run(capsys):
    assert len(README_BLOCKS) == 2
    for block in README_BLOCKS:
        exec(compile(block, "README.md", "exec"), {"__name__": "__main__"})
    assert capsys.readouterr().out
