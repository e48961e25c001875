#!/usr/bin/env python
"""Scrub pacing proof: verification must not punish the foreground (BENCH_8).

The scrubber's claim is that background integrity verification is
*paced*, not free-running: its reads are debited against the same
rate-limiter budget that flushes and merges share (plus an optional
dedicated scrub throttle), and it runs at the lowest maintenance
priority. This benchmark measures the claim directly — the same seeded
point-read workload against the same store contents, once with the
scrubber disabled and once with it scrubbing continuously — and reports
foreground P50/P99 for both, the number of completed scrub passes, and
the scrub bytes that landed in the shared limiter's admitted total.

Run with the repo sources on the path::

    PYTHONPATH=src python benchmarks/bench_scrub.py --quick

Emits ``BENCH_8.json`` (override with ``--output``). Exits non-zero if
the scrubber-on P99 exceeds ``max(1.75 x off-P99, off-P99 + 5 ms)``, if
no scrub pass completed during the scrubbing run, or if the scrub bytes
were not debited into the shared maintenance budget.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import sys
import tempfile
import time

from repro.engine import LSMStore, StoreOptions
from repro.metrics.percentiles import percentile_profile


def build_options(scrubbing: bool, args: argparse.Namespace) -> StoreOptions:
    return StoreOptions(
        memtable_bytes=64 * 1024,
        num_memtables=2,
        policy="tiering",
        size_ratio=3,
        levels=4,
        # The shared budget is deliberately generous: the point is to
        # show scrub I/O flowing *through* it, not to starve the run.
        rate_limit_bytes_per_s=256 * 2**20,
        block_cache_bytes=0,  # every read touches disk, like the scrubber
        background_maintenance=True,
        scrub_interval=0.01 if scrubbing else 0.0,
        scrub_rate_bytes_per_s=int(args.scrub_rate_mib * 2**20),
    )


def populate(store: LSMStore, args: argparse.Namespace) -> list[bytes]:
    rng = random.Random(args.seed)
    keys = [f"user{i:08d}".encode() for i in range(args.keyspace)]
    for key in keys:
        store.put(key, rng.randbytes(args.value_bytes))
    store.maintenance()
    return keys


def run_mode(scrubbing: bool, args: argparse.Namespace) -> dict:
    directory = tempfile.mkdtemp(
        prefix=f"bench-scrub-{'on' if scrubbing else 'off'}-"
    )
    try:
        options = build_options(scrubbing, args)
        with LSMStore.open(directory, options) as store:
            keys = populate(store, args)
            admitted_before = store.rate_limiter.total_admitted_bytes
            scrub_before = store.corruption_status()["scrub"]
            rng = random.Random(args.seed + 1)
            latencies: list[float] = []
            started = time.monotonic()
            reads = 0
            # Read until the op budget is spent — and, when scrubbing,
            # until at least one full pass completed, so the P99 we
            # report provably overlaps live verification.
            while True:
                key = keys[rng.randrange(len(keys))]
                t0 = time.monotonic()
                value = store.get(key)
                latencies.append(time.monotonic() - t0)
                assert value is not None
                reads += 1
                if reads >= args.reads:
                    if not scrubbing:
                        break
                    passes = store.corruption_status()["scrub"][
                        "passes_completed"
                    ]
                    if passes > scrub_before["passes_completed"]:
                        break
                    if time.monotonic() - started > args.deadline:
                        break
            elapsed = time.monotonic() - started
            scrub_after = store.corruption_status()["scrub"]
            admitted_delta = (
                store.rate_limiter.total_admitted_bytes - admitted_before
            )
            scrub_bytes = (
                scrub_after["bytes_verified"]
                - scrub_before["bytes_verified"]
            )
            profile = percentile_profile(latencies, (50.0, 99.0))
            return {
                "scrubbing": scrubbing,
                "reads": reads,
                "elapsed_seconds": round(elapsed, 4),
                "reads_per_s": round(reads / elapsed, 1),
                "p50_ms": round(profile[50.0] * 1e3, 4),
                "p99_ms": round(profile[99.0] * 1e3, 4),
                "max_ms": round(max(latencies) * 1e3, 4),
                "scrub_passes": scrub_after["passes_completed"]
                - scrub_before["passes_completed"],
                "scrub_bytes_verified": int(scrub_bytes),
                "scrub_findings": scrub_after["findings"],
                "shared_budget_admitted_bytes": int(admitted_delta),
            }
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--reads", type=int, default=20_000)
    parser.add_argument("--keyspace", type=int, default=20_000)
    parser.add_argument("--value-bytes", type=int, default=100)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--scrub-rate-mib", type=float, default=8.0,
        help="dedicated scrub throttle for the scrubbing run",
    )
    parser.add_argument(
        "--deadline", type=float, default=30.0,
        help="hard cap on the scrubbing run's extra wait for a pass",
    )
    parser.add_argument("--output", default="BENCH_8.json")
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke sizing (fewer reads, same shape)",
    )
    args = parser.parse_args(argv)
    if args.quick:
        args.reads = min(args.reads, 4_000)
        args.keyspace = min(args.keyspace, 5_000)

    off = run_mode(False, args)
    on = run_mode(True, args)
    for mode in (off, on):
        label = "scrub-on " if mode["scrubbing"] else "scrub-off"
        print(
            f"{label}: {mode['reads_per_s']:.0f} reads/s, "
            f"p50 {mode['p50_ms']:.3f} ms, p99 {mode['p99_ms']:.3f} ms, "
            f"{mode['scrub_passes']} pass(es), "
            f"{mode['scrub_bytes_verified'] / 2**20:.2f} MiB verified"
        )

    # The acceptance bound: scrubbing may cost a little tail latency,
    # bounded both relatively and absolutely so neither a very fast nor
    # a very slow baseline makes the check vacuous.
    bound_ms = max(off["p99_ms"] * 1.75, off["p99_ms"] + 5.0)
    payload = {
        "benchmark": "scrub_pacing",
        "config": {
            "reads": args.reads,
            "keyspace": args.keyspace,
            "value_bytes": args.value_bytes,
            "seed": args.seed,
            "scrub_rate_mib": args.scrub_rate_mib,
            "quick": args.quick,
        },
        "modes": [off, on],
        "p99_bound_ms": round(bound_ms, 4),
        "p99_within_bound": on["p99_ms"] <= bound_ms,
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(
        f"p99 with scrubbing {on['p99_ms']:.3f} ms vs bound "
        f"{bound_ms:.3f} ms -> {args.output}"
    )

    failed = []
    if on["p99_ms"] > bound_ms:
        failed.append(
            f"scrub-on p99 {on['p99_ms']:.3f} ms exceeded the bound "
            f"{bound_ms:.3f} ms (off p99 {off['p99_ms']:.3f} ms)"
        )
    if on["scrub_passes"] < 1:
        failed.append("no scrub pass completed during the scrubbing run")
    if on["scrub_bytes_verified"] <= 0:
        failed.append("the scrubber verified zero bytes")
    if (
        on["shared_budget_admitted_bytes"]
        < on["scrub_bytes_verified"]
    ):
        failed.append(
            "scrub bytes were not debited into the shared maintenance "
            f"budget (admitted {on['shared_budget_admitted_bytes']} < "
            f"verified {on['scrub_bytes_verified']})"
        )
    for line in failed:
        print(f"FAILED: {line}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
