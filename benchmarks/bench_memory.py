#!/usr/bin/env python
"""Adaptive memory arbitration vs static splits under a shifting workload.

The memory arbiter's claim (BENCH_7): one byte budget moved between the
memtable and the cache of rows and spans, a step at a time toward the side that
saves more I/O per byte, tracks a shifting workload better than any
fixed carving. A split tuned for writes starves
the cache when the workload turns scan-heavy; a split tuned for reads
rotates tiny memtables during a write burst, flushing and merging more
bytes. The adaptive store starts from an even split and must end up near
the right carving in *every* phase.

Three identical stores — adaptive (arbiter, ticked every ``--tick-ops``
operations), static write-heavy (7/8 memtable), static read-heavy (1/8
memtable) — run the same seeded three-phase workload:

1. **write burst** — unique-key puts, value-sized so the read-heavy
   split's memtable rotates more often than once per 100 ops;
2. **scan heavy**  — short range scans over a hot set sized to fit the
   large cache but thrash the small one;
3. **mixed**       — 70% puts / 30% scans over the same hot set.

The verdict is on I/O, the quantity *Breaking Down Memory Walls* tunes
memory for: per phase, the bytes flushes and merges wrote (the rate
limiter's admitted bytes) plus one block read per cache miss. The first
``--warmup-fraction`` of each phase is excluded: that window is where
the arbiter is *supposed* to be moving, and the claim is about where
it lands, not how it gets there. The counts repeat from run to run for a
seed; P99 latencies are printed beside them but judge nothing, because
on a shared box they do not repeat. Run with the repo sources on the
path::

    PYTHONPATH=src python benchmarks/bench_memory.py --quick

Writes its JSON report to ``--output``, by default a ``BENCH_7.json`` in
a new temporary directory, so a run never overwrites the committed
``BENCH_7.json``; the last line printed names the file. Exits non-zero
unless, in every phase, the adaptive store's I/O bytes are strictly
below the worst static split's and within 15% of the best one's.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import shutil
import sys
import tempfile
import time

from repro.engine import LSMStore, StoreOptions
from repro.memory import MemoryArbiter, MemoryBudget
from repro.metrics.percentiles import percentile_profile

WRITE_HEAVY_FRACTION = 0.875
READ_HEAVY_FRACTION = 0.125
#: Bytes one cache miss reads: the store's block size.
BLOCK_BYTES = 4096


def build_options(args: argparse.Namespace) -> StoreOptions:
    return StoreOptions(
        # The arbiter (or the static split) overrides both of these
        # immediately; the option values just seed the store.
        memtable_bytes=args.budget_bytes // 2,
        block_cache_bytes=args.budget_bytes // 2,
        num_memtables=2,
        policy="tiering",
        size_ratio=4,
        scheduler="greedy",
        levels=6,
        block_bytes=BLOCK_BYTES,
        background_maintenance=False,
    )


class Config:
    """One store under test plus its (optional) controller."""

    def __init__(self, name: str, args: argparse.Namespace) -> None:
        self.name = name
        self.directory = tempfile.mkdtemp(prefix=f"bench-mem-{name}-")
        self.store = LSMStore.open(self.directory, build_options(args))
        self.arbiter: MemoryArbiter | None = None
        if name == "adaptive":
            self.arbiter = MemoryArbiter(
                MemoryBudget(args.budget_bytes, 1),
                [self.store],
                obs=self.store.obs,
                interval=1.0,
            )
        else:
            fraction = (
                WRITE_HEAVY_FRACTION
                if name == "static_write"
                else READ_HEAVY_FRACTION
            )
            memtable = int(args.budget_bytes * fraction)
            self.store.set_memory_budget(
                memtable, args.budget_bytes - memtable
            )

    def maybe_tick(self, op_index: int, tick_ops: int) -> None:
        # Count-based, not wall-clock: the tick schedule is part of the
        # seeded workload, so reruns reproduce the same decisions.
        if self.arbiter is not None and (op_index + 1) % tick_ops == 0:
            self.arbiter.tick()

    def io_bytes(self) -> float:
        """Bytes flushes and merges wrote plus bytes cache misses read,
        over the store's lifetime."""
        return (
            self.store.rate_limiter.total_admitted_bytes
            + self.store.stats().cache_misses * BLOCK_BYTES
        )

    def close(self) -> None:
        self.store.close()
        shutil.rmtree(self.directory, ignore_errors=True)


def build_ops(phase: str, args: argparse.Namespace) -> list[tuple]:
    """The phase's seeded op stream, shared verbatim by every config.

    Each element is ``("put", key)`` or ``("scan", start, width)``; one
    stream per phase means every store sees byte-identical traffic and
    the comparison isolates the memory split.
    """
    if phase == "write_burst":
        count, phase_index = args.write_ops, 0
    elif phase == "scan_heavy":
        count, phase_index = args.scan_ops, 1
    else:
        count, phase_index = args.mixed_ops, 2
    rng = random.Random(args.seed * 31 + phase_index)
    ops: list[tuple] = []
    next_key = args.hot_keys  # unique keys beyond the hot set
    for index in range(count):
        if phase == "write_burst":
            ops.append(("put", f"k{next_key + index:08d}".encode()))
        elif phase == "scan_heavy":
            start = rng.randrange(0, args.hot_keys - args.scan_width)
            ops.append(("scan", start, args.scan_width))
        elif rng.random() < args.mixed_write_fraction:
            ops.append(("put", f"m{index:08d}".encode()))
        else:
            width = args.scan_width // 4
            start = rng.randrange(0, args.hot_keys - width)
            ops.append(("scan", start, width))
    return ops


def run_phase(
    configs: list[Config], phase: str, args: argparse.Namespace
) -> dict[str, dict]:
    """Run one phase over every config, interleaved op by op.

    Interleaving matters for the percentiles: a scheduler hiccup or
    page-cache stall hits whichever store happens to be running, so
    running the configs back-to-back within each op spreads environment
    noise evenly instead of letting one config's measurement window eat
    an entire burst.
    """
    ops = build_ops(phase, args)
    value = b"v" * args.value_bytes
    hot = [f"k{i:08d}".encode() for i in range(args.hot_keys)]
    warmup = int(len(ops) * args.warmup_fraction)
    latencies: dict[str, list[float]] = {c.name: [] for c in configs}
    io_at_warmup: dict[str, float] = {}
    rebalances_before = {
        config.name: len(config.arbiter.obs.tracer.events())
        for config in configs
        if config.arbiter is not None
    }
    for index, op in enumerate(ops):
        # Rotate which store goes first so ordering bias (warmed CPU
        # caches, post-tick work) does not consistently favour one.
        offset = index % len(configs)
        for config in configs[offset:] + configs[:offset]:
            if index == warmup:
                io_at_warmup[config.name] = config.io_bytes()
            store = config.store
            if op[0] == "put":
                started = time.perf_counter()
                store.put(op[1], value)
                elapsed = time.perf_counter() - started
            else:
                _, start, width = op
                started = time.perf_counter()
                for key in hot[start:start + width]:
                    store.get(key)
                elapsed = time.perf_counter() - started
            if index >= warmup:
                latencies[config.name].append(elapsed)
        for config in configs:
            config.maybe_tick(index, args.tick_ops)
    results: dict[str, dict] = {}
    for config in configs:
        samples = latencies[config.name]
        profile = percentile_profile(samples, (50.0, 99.0))
        result = {
            "phase": phase,
            "ops": len(ops),
            "measured_ops": len(samples),
            "p50_us": round(profile[50.0] * 1e6, 1),
            "p99_us": round(profile[99.0] * 1e6, 1),
            "mean_us": round(sum(samples) / len(samples) * 1e6, 1),
            "io_mib": round(
                (config.io_bytes() - io_at_warmup[config.name]) / 2**20, 2
            ),
        }
        if config.arbiter is not None:
            shares = config.arbiter.shares
            result["write_fraction"] = round(
                config.arbiter.write_fraction, 3
            )
            result["memtable_bytes"] = shares.memtable_bytes[0]
            result["cache_bytes"] = shares.cache_bytes[0]
            result["rebalance_events"] = (
                len(config.arbiter.obs.tracer.events())
                - rebalances_before[config.name]
            )
        results[config.name] = result
    return results


def seed_hot_set(config: Config, args: argparse.Namespace) -> None:
    """Write the hot set every scan phase reads, then settle the tree."""
    value = b"v" * args.value_bytes
    for index in range(args.hot_keys):
        config.store.put(f"k{index:08d}".encode(), value)
    config.store.maintenance()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--budget-mib", type=float, default=4.0)
    parser.add_argument("--value-bytes", type=int, default=8192)
    parser.add_argument("--hot-keys", type=int, default=256)
    parser.add_argument("--scan-width", type=int, default=32)
    parser.add_argument("--write-ops", type=int, default=10000)
    parser.add_argument("--scan-ops", type=int, default=5000)
    parser.add_argument("--mixed-ops", type=int, default=4000)
    parser.add_argument("--mixed-write-fraction", type=float, default=0.7)
    parser.add_argument(
        "--warmup-fraction", type=float, default=0.4,
        help="leading fraction of each phase excluded from percentiles "
        "(the adaptation window)",
    )
    parser.add_argument(
        "--tick-ops", type=int, default=50,
        help="operations between forced arbiter ticks (count-based so "
        "the controller's decisions replay deterministically; frequent "
        "small steps track a shift as fast as rare big ones but with "
        "half the eviction churn at equilibrium)",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--output",
        help="where the JSON report goes (default: BENCH_7.json in a new "
        "temporary directory)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke sizing (fewer ops, same shape)",
    )
    args = parser.parse_args(argv)
    if args.quick:
        # Smaller, but not so small the P99 rests on a handful of tail
        # samples: the write phase keeps >=30 measured tail ops.
        args.write_ops = min(args.write_ops, 5000)
        args.scan_ops = min(args.scan_ops, 2500)
        args.mixed_ops = min(args.mixed_ops, 3000)
    args.budget_bytes = int(args.budget_mib * 2**20)

    # A collector pass mid-scan is indistinguishable from a cache miss
    # in the percentiles; the engine's hot paths allocate cycle-free, so
    # refcounting alone reclaims them.
    gc.disable()

    phases = ("write_burst", "scan_heavy", "mixed")
    results: dict[str, dict[str, dict]] = {
        name: {} for name in ("adaptive", "static_write", "static_read")
    }
    configs = [Config(name, args) for name in results]
    try:
        for config in configs:
            seed_hot_set(config, args)
        for phase in phases:
            for name, outcome in run_phase(configs, phase, args).items():
                results[name][phase] = outcome
                extra = (
                    f", write_fraction={outcome['write_fraction']}"
                    if "write_fraction" in outcome
                    else ""
                )
                print(
                    f"{name}/{phase}: io={outcome['io_mib']:.1f}MiB "
                    f"(p50={outcome['p50_us']:.0f}us "
                    f"p99={outcome['p99_us']:.0f}us){extra}"
                )
            # Settle between phases so carried-over merge debt from
            # one phase does not pollute the next one's percentiles.
            for config in configs:
                config.store.maintenance()
    finally:
        for config in configs:
            config.close()

    failed: list[str] = []
    comparison = {}
    for phase in phases:
        adaptive = results["adaptive"][phase]["io_mib"]
        statics = {
            name: results[name][phase]["io_mib"]
            for name in ("static_write", "static_read")
        }
        worst = max(statics.values())
        best = min(statics.values())
        comparison[phase] = {
            "adaptive_io_mib": adaptive,
            "best_static_io_mib": best,
            "worst_static_io_mib": worst,
            "vs_best": round(adaptive / best, 3) if best else None,
            # Printed beside the counts, never judged.
            "adaptive_p99_us": results["adaptive"][phase]["p99_us"],
            "static_p99_us": {
                name: results[name][phase]["p99_us"]
                for name in ("static_write", "static_read")
            },
        }
        if adaptive >= worst:
            failed.append(
                f"{phase}: adaptive I/O {adaptive:.1f} MiB did not beat "
                f"the worst static split ({worst:.1f} MiB)"
            )
        if adaptive > 1.15 * best:
            failed.append(
                f"{phase}: adaptive I/O {adaptive:.1f} MiB is more than "
                f"15% over the best static split ({best:.1f} MiB)"
            )

    payload = {
        "benchmark": "memory_arbitration",
        "config": {
            "budget_mib": args.budget_mib,
            "value_bytes": args.value_bytes,
            "hot_keys": args.hot_keys,
            "scan_width": args.scan_width,
            "write_ops": args.write_ops,
            "scan_ops": args.scan_ops,
            "mixed_ops": args.mixed_ops,
            "mixed_write_fraction": args.mixed_write_fraction,
            "warmup_fraction": args.warmup_fraction,
            "tick_ops": args.tick_ops,
            "seed": args.seed,
            "quick": args.quick,
        },
        "results": results,
        "comparison": comparison,
    }
    if args.output is None:
        args.output = tempfile.mkdtemp(prefix="bench-memory-") + "/BENCH_7.json"
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"-> {args.output}")

    for line in failed:
        print(f"FAILED: {line}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
