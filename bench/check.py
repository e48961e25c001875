"""Is the benchmark steady enough to gate a change? Two full sets of runs, compared.

    python3 bench/check.py                 # 2 sets x 10 seeds x 4 workloads, about 30 min
    python3 bench/check.py --recalibrate   # ... and widen bounds in BENCHMARK.json if needed
    python3 bench/check.py --baseline bench/out/baseline-seed.json

A set runs every workload once per seed (seeds 1..N). For each
end-to-end (metric, workload) pair the check prints both sets' medians,
each set's spread — the distance between the first and third quartile
as a share of the median — and how much worse the second median is than
the first, against the metric's bound. It exits non-zero if a spread
(``setup_s`` excepted: its bound only guards the medians) or a
worsening exceeds the bound, or if any run had a failed operation.

``--recalibrate`` applies the rule the bounds were set by: a bound must
be at least three times the widest spread seen for its metric; a metric
that would need more than the allowed 0.25 cannot gate a change and is
reported, to be moved to the per-layer list by hand.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
MAX_BOUND = 0.25
SPREAD_HEADROOM = 3.0


def run_once(workload: str, seed: int, seconds: int) -> dict:
    completed = subprocess.run(
        [
            sys.executable,
            os.path.join(BENCH_DIR, "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", "0",
        ],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=180,
    )
    if completed.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: run.py exited {completed.returncode}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def run_set(workloads: list[str], seeds: int, seconds: int, label: str) -> dict:
    """``{workload: {metric: [value per seed]}}``; stops at the first failed operation."""
    values: dict[str, dict[str, list[float]]] = {}
    for workload in workloads:
        for seed in range(1, seeds + 1):
            result = run_once(workload, seed, seconds)
            if result["failed"] or not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: {result['failed']} operations failed")
            for metric, reading in result["metrics"].items():
                values.setdefault(workload, {}).setdefault(metric, []).append(reading["value"])
            print(f"  {label} {workload} seed {seed} done", file=sys.stderr)
    return values


def spread(values: list[float]) -> float:
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def worsening(first: float, second: float, better: str) -> float:
    """How much worse the second median is, as a share of the first (negative = better)."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--recalibrate", action="store_true")
    parser.add_argument(
        "--baseline", metavar="FILE", help="also write both sets' medians and quartiles as JSON"
    )
    args = parser.parse_args()
    with open(BENCHMARK_JSON, encoding="utf-8") as source:
        benchmark = json.load(source)
    workloads = [w["name"] for w in benchmark["workloads"]]
    seconds = benchmark["run_seconds"]
    first = run_set(workloads, args.seeds, seconds, "set 1")
    second = run_set(workloads, args.seeds, seconds, "set 2")

    breaches = 0
    widest: dict[str, float] = {}
    header = (
        f"{'metric':12s} {'workload':14s} {'median 1':>12s} {'median 2':>12s} "
        f"{'spread 1':>9s} {'spread 2':>9s} {'worse by':>9s} {'bound':>6s}"
    )
    print(header)
    for metric in benchmark["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        for workload in workloads:
            a, b = first[workload][name], second[workload][name]
            spreads = spread(a), spread(b)
            worse = worsening(statistics.median(a), statistics.median(b), metric["better"])
            gated_spread = 0.0 if name == "setup_s" else max(spreads)
            widest[name] = max(widest.get(name, 0.0), gated_spread)
            breach = gated_spread > bound or worse > bound
            breaches += breach
            print(
                f"{name:12s} {workload:14s} {statistics.median(a):12.4f} "
                f"{statistics.median(b):12.4f} {spreads[0]:9.4f} {spreads[1]:9.4f} "
                f"{worse:+9.4f} {bound:6.2f}{'  BREACH' if breach else ''}"
            )
    print(f"{breaches} breach(es) over {args.seeds} seeds x 2 sets, {seconds} s per run")

    if args.baseline:
        pooled = {
            workload: {
                name: {
                    "n": len(first[workload][name] + second[workload][name]),
                    "quartiles": statistics.quantiles(
                        first[workload][name] + second[workload][name], n=4
                    ),
                }
                for name in first[workload]
            }
            for workload in workloads
        }
        with open(args.baseline, "w", encoding="utf-8") as sink:
            json.dump({"seeds": args.seeds, "seconds": seconds, "workloads": pooled}, sink, indent=1)
            sink.write("\n")

    if args.recalibrate:
        for metric in benchmark["end_to_end"]:
            needed = math.ceil(SPREAD_HEADROOM * widest[metric["name"]] * 100) / 100
            if needed > MAX_BOUND:
                print(
                    f"{metric['name']}: spread {widest[metric['name']]:.3f} needs a bound of "
                    f"{needed:.2f} > {MAX_BOUND}; move it to per_layer"
                )
            elif needed > metric["bound"]:
                print(f"{metric['name']}: bound {metric['bound']} -> {needed}")
                metric["bound"] = needed
        with open(BENCHMARK_JSON, "w", encoding="utf-8") as sink:
            json.dump(benchmark, sink, indent=2)
            sink.write("\n")
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main())
