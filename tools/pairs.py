#!/usr/bin/env python
"""Paired benchmark runs: a parent commit against the working tree.

Clones the parent and the working tree under a scratch directory, runs
``bench/run.py`` in each clone alternately — odd seeds parent first,
even seeds change first, so neither side always runs on a warmer box —
and writes ``BENCH_<pr>.json``: every pair of every gated metric, its
quartiles and wins, and a verdict for each metric the prediction file
names. The prediction is an input file, so it exists before the runs::

    python tools/pairs.py --parent HEAD~1 --workload engine-mixed \\
        --workload wire-write --seeds 1101-1110 --predict predict.json

``predict.json``::

    {"pr": 26,
     "note": "anything the reader should know about the runs",
     "claims": [{"workload": "engine-mixed", "metric": "setup_s",
                 "predicted": "lower in >=9/10 pairs, median >=12% lower",
                 "min_delta": 0.12}]}

A claim is met when the change is better in at least nine of every ten
pairs, its median better by at least ``min_delta`` of the parent's, and
the median difference larger than the parent's q3 - q1. Directions and
bounds come from ``BENCHMARK.json``. Quartiles are
``statistics.quantiles(n=4, method="inclusive")``. A metric whose
parent runs spread wider than its bound (``(q3 - q1) / median``) is
``"unresolved"``: inside the bound or not, the runs cannot tell —
unless every change run is better than every parent run.

``--parent HEAD`` on a clean working tree is the A/A run: both clones
hold the same code, so the report is the box's own spread.

``--trace 1`` also runs the per-layer ledger (``bench/run.py --trace
1``) for every pair, in the same order, and adds a ``traced`` section:
for each workload and ledger metric, the median per side and how many
pairs the change was lower or higher in. Ledger metrics are times and
shares on a shared box; they explain a gated number, they are not one.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
WIN_SHARE = 0.9  # a claimed gain must win nine of every ten pairs


def quartiles(values: list[float]) -> list[float]:
    """``[q1, median, q3]``."""
    if len(values) == 1:
        return list(values) * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def _rounded(values: list[float]) -> list[float]:
    return [round(value, 4) for value in values]


def _delta(parent: float, change: float) -> float:
    return round((change - parent) / parent, 4) if parent else 0.0


def summarise(pairs: list[list], bound: float, better: str) -> dict:
    """One gated metric on one workload: ``pairs`` are ``[seed, parent,
    change]``; ``inside_bound`` says whether the change's median is no
    worse than the parent's by more than ``bound`` (a share), and
    ``unresolved`` whether the parent's runs spread too wide to say."""
    parent = [p for _, p, _ in pairs]
    change = [c for _, _, c in pairs]
    parent_q, change_q = quartiles(parent), quartiles(change)
    delta = _delta(parent_q[1], change_q[1])
    worse = delta if better == "lower" else -delta
    q1, median, q3 = parent_q
    spread = (q3 - q1) / median if median else 0.0
    all_better = (
        max(change) < min(parent) if better == "lower"
        else min(change) > max(parent)
    )
    return {
        "bound": bound,
        "of": len(pairs),
        "change_higher": sum(c > p for _, p, c in pairs),
        "change_lower": sum(c < p for _, p, c in pairs),
        "parent_q1_med_q3": _rounded(parent_q),
        "change_q1_med_q3": _rounded(change_q),
        "median_delta": delta,
        "inside_bound": worse <= bound,
        "unresolved": spread > bound and not all_better,
        "equal_to_3_digits": all(
            round(p, 3) == round(c, 3) for _, p, c in pairs
        ),
        "pairs": pairs,
    }


def verdict(claim: dict, pairs: list[list], better: str) -> dict:
    """A predicted metric against its pairs (see the module docstring)."""
    parent = [p for _, p, _ in pairs]
    change = [c for _, _, c in pairs]
    parent_q, change_q = quartiles(parent), quartiles(change)
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (p - c) > 0 for _, p, c in pairs)
    gain = sign * (parent_q[1] - change_q[1])
    iqr = round(round(parent_q[2], 4) - round(parent_q[0], 4), 4)
    needed = math.ceil(WIN_SHARE * len(pairs) - 1e-9)
    return {
        "metric": claim["metric"],
        "workload": claim["workload"],
        "predicted": claim.get("predicted", ""),
        "rule": f"change {better} in >={needed}/{len(pairs)} pairs, the "
        f"median >={claim.get('min_delta', 0.0):.0%} {better}, and the "
        "median difference larger than the parent's q3-q1",
        f"change_{better}": wins,
        "of": len(pairs),
        "parent_median": round(parent_q[1], 4),
        "change_median": round(change_q[1], 4),
        "median_delta": _delta(parent_q[1], change_q[1]),
        "parent_iqr": iqr,
        "met": wins >= needed
        and gain >= claim.get("min_delta", 0.0) * abs(parent_q[1])
        and gain > iqr,
    }


def _outcomes(pairs: list[dict]) -> dict:
    """Operations attempted and failed, and correctness, per side."""
    section = {
        key: {side: sum(run[side][key] for run in pairs) for side in SIDES}
        for key in ("attempted", "failed")
    }
    section["correct"] = {
        side: all(run[side]["correct"] for run in pairs) for side in SIDES
    }
    return section


def ledger(pairs: list[dict]) -> dict:
    """One workload's ``--trace 1`` runs: ``pairs`` are ``{"seed",
    "parent", "change"}``, each side the ledger's JSON line. Every
    metric gets its median per side, the pairs the change was lower
    and higher in, and each pair as ``[seed, parent, change]`` (an A/A
    run's spread is read off those)."""
    section = _outcomes(pairs)
    for name in pairs[0]["parent"]["metrics"]:
        rows = [
            [run[side]["metrics"][name]["value"] for side in SIDES]
            for run in pairs
        ]
        section[name] = {
            "parent_median": round(statistics.median(p for p, _ in rows), 4),
            "change_median": round(statistics.median(c for _, c in rows), 4),
            "change_lower": sum(c < p for p, c in rows),
            "change_higher": sum(c > p for p, c in rows),
            "of": len(rows),
            "pairs": [
                [run["seed"], *_rounded(row)] for run, row in zip(pairs, rows)
            ],
        }
    return section


def report(runs: dict, benchmark: dict, predict: dict) -> dict:
    """``runs[workload]`` is a list of ``{"seed", "parent", "change"}``,
    each side the JSON line ``bench/run.py`` printed last; a run made
    with ``--trace 1`` also holds ``"traced"``, the same for the
    ledger, and the report then has a ``traced`` section."""
    gated = {m["name"]: m for m in benchmark["end_to_end"]}
    untraced, traced = {}, {}
    for workload, pairs in runs.items():
        section = _outcomes(pairs)
        if all("traced" in run for run in pairs):
            traced[workload] = ledger([run["traced"] for run in pairs])
        for name, metric in gated.items():
            values = [
                [
                    run["seed"],
                    round(run["parent"]["metrics"][name]["value"], 4),
                    round(run["change"]["metrics"][name]["value"], 4),
                ]
                for run in pairs
            ]
            section[name] = summarise(
                values, metric["bound"], metric["better"]
            )
        untraced[workload] = section
    claims = [
        verdict(
            claim,
            untraced[claim["workload"]][claim["metric"]]["pairs"],
            gated[claim["metric"]]["better"],
        )
        for claim in predict.get("claims", [])
    ]
    result = {"claims": claims, "untraced": untraced}
    if traced:
        result["traced"] = traced
    return result


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def _git(*args: str, cwd: Path = ROOT) -> str:
    return subprocess.run(
        ["git", *args], cwd=cwd, check=True, capture_output=True, text=True
    ).stdout


def clone_pair(
    parent: str, scratch: Path, root: Path = ROOT
) -> tuple[Path, Path]:
    """A clone of ``root`` at ``parent``, and a clone of HEAD with the
    working tree's files (tracked and untracked, ignored ones aside)
    over it and the files it deleted, staged or not, gone."""
    sides = scratch / "parent", scratch / "change"
    for side in sides:
        _git("clone", "-q", str(root), str(side), cwd=root)
    _git("checkout", "-q", parent, cwd=sides[0])
    listed = _git(
        "ls-files", "-z", "--cached", "--others", "--exclude-standard",
        cwd=root,
    )
    for name in filter(None, listed.split("\0")):
        source, target = root / name, sides[1] / name
        if source.is_file():
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)
    committed = _git("ls-tree", "-r", "-z", "--name-only", "HEAD", cwd=root)
    for name in filter(None, committed.split("\0")):
        if not (root / name).exists():
            (sides[1] / name).unlink(missing_ok=True)
    return sides


def run_bench(clone: Path, workload: str, seed: int, trace: int = 0) -> dict:
    """One ``bench/run.py`` run in ``clone``; its last stdout line."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", str(trace)],
        cwd=clone, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(
            f"{clone.name} {workload} seed {seed} exited "
            f"{done.returncode}: {done.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", required=True, help="first-last")
    parser.add_argument("--predict", required=True, help="prediction JSON")
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: also run the per-layer ledger for every pair",
    )
    parser.add_argument("--scratch", default=None, help="clone directory")
    parser.add_argument("--out", default=None, help="default BENCH_<pr>.json")
    args = parser.parse_args(argv)

    predict = json.loads(Path(args.predict).read_text())
    unrun = {c["workload"] for c in predict.get("claims", [])}
    if unrun - set(args.workload):
        parser.error(f"claims on workloads not run: {sorted(unrun)}")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    scratch = Path(args.scratch or tempfile.mkdtemp(prefix="pairs-"))
    parent_clone, change_clone = clone_pair(args.parent, scratch)
    runs: dict[str, list[dict]] = {w: [] for w in args.workload}
    for seed in _seeds(args.seeds):
        for workload in args.workload:
            order = ["parent", "change"] if seed % 2 else ["change", "parent"]
            run = {"seed": seed}
            clones = {"parent": parent_clone, "change": change_clone}
            for side in order:
                run[side] = run_bench(clones[side], workload, seed)
            if args.trace:
                run["traced"] = {"seed": seed}
                for side in order:
                    run["traced"][side] = run_bench(
                        clones[side], workload, seed, trace=1
                    )
            runs[workload].append(run)
            print(
                f"{workload} seed {seed}: "
                + ", ".join(
                    f"{name} {run['parent']['metrics'][name]['value']:.4f}"
                    f" -> {run['change']['metrics'][name]['value']:.4f}"
                    for name in run["parent"]["metrics"]
                ),
                flush=True,
            )
    rev = _git("rev-parse", "--short", args.parent).strip()
    result = {
        "pr": predict.get("pr"),
        "parent": rev,
        "method": f"clone of the parent ({rev}) vs a clone of HEAD with "
        "the working tree copied over, alternating which side runs first "
        "(odd seeds parent first), python3 bench/run.py --workload W "
        f"--seed S --trace 0{' and --trace 1' if args.trace else ''}; "
        f"seeds {args.seeds}; "
        f"{platform.machine()}, {os.cpu_count()} CPUs, Python "
        f"{platform.python_version()}",
        "note": predict.get("note", ""),
        **report(runs, benchmark, predict),
    }
    out = Path(args.out or ROOT / f"BENCH_{predict.get('pr')}.json")
    out.write_text(json.dumps(result, indent=1) + "\n")
    for claim in result["claims"]:
        print(
            f"{claim['workload']} {claim['metric']}: "
            f"{'met' if claim['met'] else 'NOT met'} ({claim['rule']})"
        )
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
