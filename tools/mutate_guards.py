#!/usr/bin/env python3
"""Boundary mutants of the package's comparisons, and whether tier-1 kills them.

Finds, with ``ast``, every ``<``, ``<=``, ``>`` and ``>=`` in the modules
named in ``MODULES`` and visits each one once, in file and source order.
Each visit swaps that one operator with its boundary twin (``<`` with
``<=``, ``>`` with ``>=``) in a temporary copy of the repository, runs the
tier-1 tests there (``pytest -x``, cut after ``TIMEOUT_S`` seconds) and
prints one line:

    KILLED    joint.py:372:25  <= -> <
    SURVIVED  verification.py:316:58  < -> <=

A mutant is killed when some test fails, collection fails or the run times
out.  The working files are never written.  Standard library only; it is
not part of tier-1.

    python3 tools/mutate_guards.py

Exit status: 0 when every visited mutant was killed, 1 when one survived, 2 when
the unmutated copy already fails its tests.
"""

from __future__ import annotations

import ast
import io
import os
import shutil
import subprocess
import sys
import tempfile
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src", "colliderbias")
MODULES = ("cli", "closedform", "errors", "joint", "signmap", "structures", "verification")
SWAP = {"<": "<=", "<=": "<", ">": ">=", ">=": ">"}
TIMEOUT_S = 300
# Left out of the copy: version control, caches and run outputs.
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".perfbench-out", "out")


def sites(source: str) -> list[tuple[int, int, str]]:
    """(line, column, operator) of every ``<``, ``<=``, ``>`` and ``>=`` that
    compares two operands in ``source``, in source order; columns count
    characters from 0."""
    lines = source.splitlines(keepends=True)

    def position(row: int, byte_col: int) -> tuple[int, int]:
        # ast counts UTF-8 bytes within a line, tokenize counts characters.
        return row, len(lines[row - 1].encode()[:byte_col].decode())

    operators = {
        token.start: token.string
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type == tokenize.OP and token.string in SWAP
    }
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for left, right in zip(operands, operands[1:]):
            after = position(left.end_lineno, left.end_col_offset)
            before = position(right.lineno, right.col_offset)
            # Only brackets, blanks and the one operator lie between two operands.
            found += [(*at, text) for at, text in operators.items() if after <= at < before]
    return sorted(found)


def mutated(source: str, row: int, col: int, operator: str) -> str:
    """``source`` with the operator at (row, col) swapped for its twin."""
    lines = source.splitlines(keepends=True)
    line = lines[row - 1]
    lines[row - 1] = line[:col] + SWAP[operator] + line[col + len(operator):]
    return "".join(lines)


def tests_pass(copy: Path) -> bool:
    """Whether tier-1 passes in ``copy``, read from its own ``src``."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               "--continue-on-collection-errors"]
    try:
        done = subprocess.run(command, cwd=copy, env=env, timeout=TIMEOUT_S,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="mutate-guards-") as scratch:
        copy = Path(scratch, "repo")
        shutil.copytree(ROOT, copy, ignore=SKIP)
        if not tests_pass(copy):
            print("the unmutated copy fails its tests", file=sys.stderr)
            return 2
        survived = killed = 0
        for module in MODULES:
            path = copy / PACKAGE / f"{module}.py"
            source = path.read_text(encoding="utf-8")
            for row, col, operator in sites(source):
                path.write_text(mutated(source, row, col, operator), encoding="utf-8")
                try:
                    alive = tests_pass(copy)
                finally:
                    path.write_text(source, encoding="utf-8")
                survived += alive
                killed += not alive
                verdict = "SURVIVED" if alive else "KILLED"
                print(f"{verdict:9s} {path.name}:{row}:{col}  {operator} -> {SWAP[operator]}", flush=True)
        print(f"{killed} killed, {survived} survived")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
