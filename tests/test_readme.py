"""The README's Python example runs as written, so the docs cannot name a
function the package no longer has, and prints what its comments say."""

import re
from pathlib import Path

import numpy as np

from tccss.verify import CHECKS

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    ns = {}
    exec(compile(blocks[0], str(README), "exec"), ns)
    residual, cross, zero = capsys.readouterr().out.split()
    assert abs(ns["u"][0] - (-4 / 29)) < 1e-15
    assert float(residual) < 1e-12
    assert float(cross) < 1e-6
    assert len(ns["zeros"]) == 1 and abs(complex(zero) - 1j) < 1e-6
    assert ns["change"] < 1e-12
    assert ns["table"].shape == (5, np.size(ns["x"]), 3)


def test_check_table_matches_registry():
    # the README's table lists every check of `verify.CHECKS`, in order, with
    # its default threshold
    text = README.read_text(encoding="utf-8")
    section = text.split("## Verification checks and default thresholds\n\n", 1)[1].split("\n\n")[0]
    rows = [line.split("|") for line in section.splitlines()[2:]]
    table = [(cells[1].strip().strip("`"), float(cells[-2].strip().strip("`"))) for cells in rows]
    assert table == [(name, threshold) for name, (_, threshold) in CHECKS.items()]
