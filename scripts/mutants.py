#!/usr/bin/env python3
"""Plant known defects one at a time and report which tests catch each.

Every entry of ``MUTANTS`` names a source file under ``src/borwin``, the
exact text it replaces (which must occur exactly once in that file, as
``tests/test_source.py`` checks) with its replacement, and the test
files of that module; ``tests/test_acceptance.py`` runs for every
defect too. Each defect is planted in a fresh temporary copy of
``src``, ``tests``, ``instances`` and ``scripts``, and pytest runs there.
A defect is killed when some test fails. The script prints one row per
defect: killed or not, the number of failing tests and their names.

Usage, from the root of the checkout:
    python3 scripts/mutants.py

It runs every defect; the exit code is 1 when one survives, 0 otherwise.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parent.parent
ACCEPTANCE = "tests/test_acceptance.py"


class Mutant(NamedTuple):
    name: str
    file: str  # under src/borwin
    edits: tuple[tuple[str, str], ...]  # (exact text, replacement)
    tests: tuple[str, ...]  # the module's test files


MUTANTS = (
    Mutant(
        "ramp caps ceil",
        "huc.py",
        (("up, down = (r * t.df // t.dramp for r in t.ramp)", "up, down = (-(-r * t.df // t.dramp) for r in t.ramp)"),),
        ("tests/test_huc.py",),
    ),
    Mutant(
        "ramp caps round",
        "huc.py",
        (
            (
                "up, down = (r * t.df // t.dramp for r in t.ramp)",
                "up, down = ((2 * r * t.df + t.dramp) // (2 * t.dramp) for r in t.ramp)",
            ),
        ),
        ("tests/test_huc.py",),
    ),
    Mutant(
        "up cap strict",
        "huc.py",
        (("if flow[lvl] <= cap]", "if flow[lvl] < cap]"),),
        ("tests/test_huc.py",),
    ),
    Mutant(
        "inverted window accepted",
        "huc.py",
        (("if any(map(gt, lo, hi)):", "if False:"),),
        ("tests/test_huc.py",),
    ),
    Mutant(
        "oracle ramp strict",
        "huc.py",
        (
            (
                "if (flows[lvl] - flows[level]) * tables.dramp > tables.ramp[0] * tables.df:",
                "if (flows[lvl] - flows[level]) * tables.dramp >= tables.ramp[0] * tables.df:",
            ),
        ),
        ("tests/test_huc.py",),
    ),
    Mutant(
        "dag id type unchecked",
        "io.py",
        (("if {str} != set(map(type, ids)) or len(index)", "if len(index)"),),
        ("tests/test_io_cli.py",),
    ),
    Mutant(
        "value-keyed parse cache",
        "io.py",
        (
            ("        if type(x) is str:\n            r = parsed.get(x)", "        if type(x) is str or x in parsed:\n            r = parsed.get(x)"),
            ("        elif type(x) is int:\n            r = (x, 1)", "        elif type(x) is int:\n            r = parsed[x] = (x, 1)"),
        ),
        ("tests/test_io_cli.py",),
    ),
    Mutant(
        "child lower window dropped",
        "phase2.py",
        (("if new_r < lo[v] or new_r > hi[v]:", "if new_r > hi[v]:"),),
        ("tests/test_phase2.py",),
    ),
    Mutant(
        "enumeration deadline dropped",
        "phase2.py",
        (('        check_deadline(deadline, "enumeration phase")\n', ""),),
        ("tests/test_phase2.py",),
    ),
)

# pytest -rf's summary line: FAILED <test id> - <message>, ids may hold spaces
_FAILED = re.compile(r"^FAILED (.+?)(?: - .*)?$", re.M)


def plant(root: Path, mutant: Mutant) -> None:
    """Apply ``mutant``'s edits to the copy of its file under ``root``."""
    path = root / "src" / "borwin" / mutant.file
    text = path.read_text()
    for old, new in mutant.edits:
        if text.count(old) != 1:
            raise SystemExit(f"{mutant.name}: target text occurs {text.count(old)} times in {mutant.file}")
        text = text.replace(old, new)
    path.write_text(text)


def run(mutant: Mutant) -> tuple[list[str], float]:
    """The tests that fail with ``mutant`` planted, and the run's seconds."""
    with tempfile.TemporaryDirectory(prefix="borwin-mutant-") as tmp:
        root = Path(tmp)
        for part in ("src", "tests", "instances", "scripts"):
            shutil.copytree(REPO / part, root / part, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        plant(root, mutant)
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *mutant.tests, ACCEPTANCE],
            cwd=root,
            env={**os.environ, "PYTHONPATH": str(root / "src")},
            capture_output=True,
            text=True,
        )
        failed = _FAILED.findall(done.stdout)
        if done.returncode not in (0, 1) or (done.returncode == 1 and not failed):
            failed.append(f"pytest exit code {done.returncode}")
        return failed, time.monotonic() - start


def main() -> int:
    results = []
    print("| defect | file | killed | failing tests | seconds |")
    print("|---|---|---|---|---|")
    for m in MUTANTS:
        failed, seconds = run(m)
        results.append((m, failed))
        names = ", ".join(f"`{f.split('::', 1)[-1]}`" for f in failed[:3]) + (", ..." if len(failed) > 3 else "")
        print(f"| {m.name} | {m.file} | {'yes' if failed else 'NO'} | {len(failed)}: {names} | {seconds:.0f} |", flush=True)
    print()
    for m, failed in results:
        print(f"{m.name}:", *(f"    {f}" for f in failed), sep="\n")
    return 1 if any(not failed for _, failed in results) else 0


if __name__ == "__main__":
    sys.exit(main())
