"""Print one sha256 digest per output of a fixed list of ``vilenkin`` runs.

Usage, from the root of a checkout::

    python3 tools/output_digests.py [--src PATH]

Each run goes through ``cli.main`` in this process, with its files in a
temporary directory.  A ``verify`` run gives two lines, its stdout and its
``--out`` JSON; a ``converge`` or ``kernel-dump`` run gives one, its ``--out``
CSV.  Each line is ``sha256  label`` with the exit code in the label.  Two
trees write the same bytes exactly when they print the same lines, so a
change that claims byte-identical outputs is checked by running this script
against both trees (``--src`` picks the package directory to import) and
diffing the two listings.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_VERIFY = [
    "--base 2,3 --depth 6 --seed 7",
    "--base 5,2 --depth 5 --seed 11",
    "--base 2 --depth 9 --seed 3",
    "--base 2,3,2,2 --depth 6 --seed 1",
    "--base 3 --depth 5 --seed 2",
    "--base 2,3,2 --depth 3 --weights constant,riesz_log,blog:0.5:1,norlund_log",
    "--base 2 --depth 7",
    "--base 2 --depth 12",
]
_CONVERGE = [
    "--base 2 --depth 9 --weights cesaro:0.5 --n 1..512",
    "--base 2,3 --depth 6 --weights riesz_log --n 2..64 --points 0,5,17",
    "--base 5,2 --depth 4 --weights blog:0.5:1 --n 3..100 --corpus spike:2",
    "--base 2,3,2 --depth 5 --weights valpha:0.5 --corpus coset:2 --p 1,3,inf",
    "--base 2 --depth 12 --weights norlund_log --corpus random --n 2..300 --points 1,77,4000",
    # rows on a proper prefix group: M_K = 432 of 1296 and 900 of 1800
    "--base 2,3 --depth 8 --weights cesaro:0.5 --corpus random --n 200..300 --points 0,431,1295",
    "--base 2,3,5 --depth 7 --weights blog:0.5:1 --corpus coset:6 --n 40..110 --points 3,1799",
]
_KERNEL_DUMP = [
    "--base 2 --depth 9 --order 300 --weights cesaro:0.5",
    "--base 2,3 --depth 4 --order 30 --kind fejer",
    "--base 5,2 --depth 4 --order 77 --weights riesz_log",
    "--base 3 --depth 5 --order 243 --kind dirichlet",
    *(f"--base 2,3,2 --depth 5 --order {n} --kind {kind}"
      for kind in ("dirichlet", "fejer") for n in (1, 7, 37, 72)),
    *(f"--base 2,3 --depth 4 --order {n} --weights {w}"
      for w in ("constant", "cesaro:0.5", "valpha:0.5", "riesz_log", "norlund_log", "blog:0.5:1")
      for n in (3, 9, 36)),
    # orders below M_N / 4, synthesized on a proper prefix group and tiled
    "--base 2 --depth 12 --order 1000 --weights norlund_log",
    "--base 16 --depth 3 --order 200 --kind fejer",
    "--base 2,3,5 --depth 7 --order 400 --weights riesz_log",
]
RUNS = ([f"verify {args}" for args in _VERIFY]
        + [f"converge {args}" for args in _CONVERGE]
        + [f"kernel-dump {args}" for args in _KERNEL_DUMP])


def digest_lines(runs, workdir: Path) -> list[str]:
    """``sha256  label`` for every output of ``runs`` (command lines), in order."""
    from vilenkin import cli  # imported late, from the directory ``main`` puts on sys.path

    workdir.mkdir(parents=True, exist_ok=True)
    lines = []
    for i, run in enumerate(runs):
        argv = run.split()
        suffix = ".json" if argv[0] == "verify" else ".csv"
        out = workdir / f"run{i}{suffix}"
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([*argv, "--out", str(out)])
        label = f"{run} (exit {code})"
        if argv[0] == "verify":
            lines.append(f"{_sha256(stdout.getvalue().encode())}  {label} stdout")
        data = out.read_bytes() if out.exists() else b""
        lines.append(f"{_sha256(data)}  {label} {suffix[1:]}")
    return lines


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory holding the vilenkin package")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    with tempfile.TemporaryDirectory() as tmp:
        for line in digest_lines(RUNS, Path(tmp)):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
