"""Run every CLI line of contract/commands.txt under two source trees and
report where their outputs differ.

    python tests/contract_diff.py PARENT CHANGE

PARENT and CHANGE are checkouts of this repository.  Each line runs as
`python -m graphnodal.cli LINE` with PYTHONPATH=TREE/src and OpenBLAS on one
thread, in order, in one working directory per tree that starts with the
files of contract/fixtures/.  The two runs of a line must agree on the exit
code, on stderr, and on stdout after its two header lines; at the end, the
files the lines wrote must agree after theirs.  Each difference is printed
with its first differing lines.  Exits 1 if there is one, else 0.
"""

from __future__ import annotations

import argparse
import difflib
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

CONTRACT = Path(__file__).resolve().parent / "contract"
SHOWN_LINES = 8


def commands() -> list[str]:
    lines = (CONTRACT / "commands.txt").read_text(encoding="utf-8").splitlines()
    return [line.strip() for line in lines if line.strip() and not line.startswith("#")]


def body(text: str) -> list[str]:
    """text's lines after its header: up to two leading '#' lines."""
    lines = text.splitlines(keepends=True)
    start = 0
    while start < min(2, len(lines)) and lines[start].startswith("#"):
        start += 1
    return lines[start:]


def run_tree(tree: str, lines: list[str], work: Path):
    """Each line's (exit code, stdout body, stderr lines) under tree, and the
    body of every file left in work."""
    shutil.copytree(CONTRACT / "fixtures", work)
    env = {
        **os.environ,
        "PYTHONPATH": str(Path(tree).resolve() / "src"),
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "PYTHONDONTWRITEBYTECODE": "1",
    }
    runs = []
    for line in lines:
        proc = subprocess.run(
            [sys.executable, "-m", "graphnodal.cli", *shlex.split(line)],
            cwd=work, env=env, capture_output=True, text=True,
        )
        runs.append(([str(proc.returncode)], body(proc.stdout),
                     proc.stderr.splitlines(keepends=True)))
    files = {path.name: body(path.read_text(encoding="utf-8"))
             for path in sorted(work.iterdir())}
    return runs, files


def show(what: str, parent: list[str], change: list[str]) -> None:
    print(what)
    diff = difflib.unified_diff(parent, change, "parent", "change", n=0)
    for line in list(diff)[2:2 + SHOWN_LINES]:
        print("    " + line.rstrip("\n"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="source tree of the parent commit")
    parser.add_argument("change", help="source tree of the change")
    args = parser.parse_args(argv)
    lines = commands()
    with tempfile.TemporaryDirectory() as tmp:
        parent_runs, parent_files = run_tree(args.parent, lines, Path(tmp) / "parent")
        change_runs, change_files = run_tree(args.change, lines, Path(tmp) / "change")
    differences = 0
    for line, parent, change in zip(lines, parent_runs, change_runs):
        for what, a, b in zip(("exit code", "stdout", "stderr"), parent, change):
            if a != b:
                differences += 1
                show(f"{what} of: {line}", a, b)
    for name in sorted(parent_files.keys() | change_files.keys()):
        a, b = parent_files.get(name, []), change_files.get(name, [])
        if a != b:
            differences += 1
            show(f"file {name}", a, b)
    print(f"{len(lines)} commands, {differences} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
