#!/usr/bin/env python
"""Lines of ``src/``: per package, and every file over 600 lines.

ROADMAP's *small* leg is a number (``src/`` <= 20,000 lines, no engine
file over ~600), so it gets a gauge::

    python tools/loc.py            # the table
    python tools/loc.py --check    # also compare with tools/loc_budget.json
    python tools/loc.py --write    # record today's numbers as the budget

``--check`` fails when ``src/`` as a whole, or any file over 600 lines,
is longer than ``tools/loc_budget.json`` says (a file that crosses 600
has no entry, so it fails too). A PR that has to grow a number changes
the budget in the same commit, where a reviewer sees it; a PR that
shrinks one should lower it (``--write``) so the gain is kept.
Lines are physical lines of ``*.py``, as ``wc -l`` counts them.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUDGET = Path(__file__).with_name("loc_budget.json")
LARGE = 600


def count() -> dict[str, int]:
    """``{path relative to the repo: lines}`` for every ``src/**/*.py``."""
    return {
        str(path.relative_to(ROOT)): sum(1 for _ in path.open("rb"))
        for path in sorted((ROOT / "src").rglob("*.py"))
    }


def summarise(lines: dict[str, int]) -> dict:
    """The numbers the budget pins: the total and each large file."""
    return {
        "total": sum(lines.values()),
        "files": {
            path: n for path, n in lines.items() if n > LARGE
        },
    }


def over_budget(now: dict, budget: dict) -> list[str]:
    """One message per number that is above its budget."""
    problems = []
    if now["total"] > budget["total"]:
        problems.append(
            f"src/ is {now['total']} lines, budget {budget['total']}"
        )
    for path, n in now["files"].items():
        cap = budget["files"].get(path)
        if cap is None:
            problems.append(f"{path} crossed {LARGE} lines ({n}), no budget")
        elif n > cap:
            problems.append(f"{path} is {n} lines, budget {cap}")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)

    lines = count()
    now = summarise(lines)
    packages: dict[str, int] = {}
    for path, n in lines.items():
        parts = Path(path).parts  # src, repro, <package or module>, ...
        name = "/".join(parts[:3]) + ("/" if len(parts) > 3 else "")
        packages[name] = packages.get(name, 0) + n
    for name, n in sorted(packages.items(), key=lambda item: -item[1]):
        print(f"{n:7d}  {name}")
    print(f"{now['total']:7d}  src/ total")
    print(f"files over {LARGE} lines:")
    for path, n in sorted(now["files"].items(), key=lambda item: -item[1]):
        print(f"{n:7d}  {path}")

    if args.write:
        BUDGET.write_text(json.dumps(now, indent=2, sort_keys=True) + "\n")
        print(f"wrote {BUDGET.relative_to(ROOT)}")
    if args.check:
        problems = over_budget(now, json.loads(BUDGET.read_text()))
        for problem in problems:
            print(f"OVER BUDGET: {problem}", file=sys.stderr)
        return 1 if problems else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
