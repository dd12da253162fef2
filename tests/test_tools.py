"""Smoke tests of the scripts in ``tools/``."""

from __future__ import annotations

import importlib.util
import re
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SHORT_RUNS = [
    "verify --base 2,3 --depth 3 --weights constant,riesz_log --seed 4",
    "converge --base 2,3 --depth 4 --weights cesaro:0.5 --n 1..36 --corpus random --points 0,7",
    "kernel-dump --base 5,2 --depth 3 --order 33 --weights blog:0.5:1",
]


def test_output_digests_repeat_in_one_process(tmp_path):
    # a fixed seed and config give the same bytes on every run
    digests = _load("output_digests")
    first = digests.digest_lines(SHORT_RUNS, tmp_path / "a")
    second = digests.digest_lines(SHORT_RUNS, tmp_path / "b")
    assert first == second
    assert [line.split("  ", 1)[1] for line in first] == [
        f"{SHORT_RUNS[0]} (exit 0) stdout",
        f"{SHORT_RUNS[0]} (exit 0) json",
        f"{SHORT_RUNS[1]} (exit 0) csv",
        f"{SHORT_RUNS[2]} (exit 0) csv",
    ]
    assert all(re.fullmatch(r"[0-9a-f]{64}  .+", line) for line in first)
    empty = digests._sha256(b"")
    assert not any(line.startswith(empty) for line in first)

