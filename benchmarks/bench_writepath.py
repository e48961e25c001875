#!/usr/bin/env python
"""Write-path commit discipline under closed-loop overload (BENCH_9).

Group commit amortizes the per-write fsync across concurrent writers,
so with ``sync_writes=True`` it must acknowledge more writes per second
than one fsync per op. The same seeded closed-loop workload (N
concurrent clients, each issuing its next write the moment the previous
one returns) runs against one in-process KVServer with ``group_commit``
off and on, reporting ops/s and P50/P99 client latency per corner and
the ratio between them.

The committed ``BENCH_9.json`` also carries the two corners of the
framed-JSON wire this benchmark used to compare against (binary ahead
at both commit disciplines); that wire is gone, so those rows cannot
be re-measured.

Run with the repo sources on the path::

    PYTHONPATH=src python benchmarks/bench_writepath.py --quick

Prints the result; ``--output PATH`` also writes it as JSON (the
committed ``BENCH_9.json`` is never the default target, so a local run
cannot overwrite it by accident). Each corner runs
``--repeats`` times and keeps its best run (standard best-of-N to damp
scheduler noise on shared machines). Exits non-zero if any client
errored, if the group-commit corner never synced a group or lost a
batch, or if group commit did not strictly beat per-op fsync in ops/s.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import shutil
import sys
import tempfile

from repro.engine import LSMStore, StoreOptions
from repro.server import KVServer
from repro.server.loadgen import closed_loop


def build_options(group_commit: bool) -> StoreOptions:
    return StoreOptions(
        # Large enough that no flush lands inside the measured window:
        # this benchmark isolates the commit path, not maintenance.
        memtable_bytes=64 * 2**20,
        block_cache_bytes=0,
        # Per-write durability is what makes the commit discipline
        # visible: without fsyncs both corners collapse into the same
        # buffered append.
        sync_writes=True,
        group_commit=group_commit,
    )


def _metric(store: LSMStore, name: str) -> float:
    snapshot = store.obs.registry.snapshot()
    return sum(
        entry["value"]
        for entry in snapshot["counters"]
        if entry["name"] == name
    )


def _tag(group_commit: bool) -> str:
    return "group-commit" if group_commit else "fsync-per-op"


async def run_corner(
    directory: str, group_commit: bool, args: argparse.Namespace
) -> dict:
    with LSMStore.open(directory, build_options(group_commit)) as store:
        async with KVServer(store, host="127.0.0.1", port=0) as server:
            host, port = server.address
            result = await closed_loop(
                host,
                port,
                clients=args.clients,
                ops_per_client=args.ops // args.clients,
                value_bytes=args.value_bytes,
                keyspace=args.keyspace,
                seed=args.seed,
                label=_tag(group_commit),
            )
        profile = result.write_latency_profile((50.0, 99.0))
        batches = _metric(store, "engine_group_commit_batches_total")
        syncs = _metric(store, "engine_group_commit_syncs_total")
    return {
        "group_commit": group_commit,
        "ops": result.op_count,
        "errors": result.error_count,
        "duration_seconds": round(result.duration_seconds, 4),
        "throughput_ops_per_s": round(result.throughput, 1),
        "p50_ms": round(profile[50.0] * 1e3, 3),
        "p99_ms": round(profile[99.0] * 1e3, 3),
        "group_commit_batches": int(batches),
        "group_commit_syncs": int(syncs),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ops", type=int, default=8_000)
    parser.add_argument(
        "--clients", type=int, default=32,
        help="concurrent closed-loop clients; enough to keep the "
        "group-commit leader's queue non-empty during its fsync",
    )
    parser.add_argument("--seed", type=int, default=9)
    parser.add_argument(
        "--value-bytes", type=int, default=4096,
        help="payload size",
    )
    parser.add_argument("--keyspace", type=int, default=4_096)
    parser.add_argument(
        "--output", default=None,
        help="also write the result to this JSON file",
    )
    parser.add_argument(
        "--repeats", type=int, default=2,
        help="runs per corner; the best one is reported",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke sizing (fewer ops, same shape)",
    )
    args = parser.parse_args(argv)
    if args.quick:
        args.ops = min(args.ops, 2_000)

    corners = {}
    for group_commit in (False, True):
        tag = _tag(group_commit)
        corner = None
        for _ in range(max(1, args.repeats)):
            directory = tempfile.mkdtemp(prefix=f"bench-writepath-{tag}-")
            try:
                attempt = asyncio.run(run_corner(directory, group_commit, args))
            finally:
                shutil.rmtree(directory, ignore_errors=True)
            if (
                corner is None
                or attempt["throughput_ops_per_s"]
                > corner["throughput_ops_per_s"]
            ):
                corner = attempt
        corners[group_commit] = corner
        print(
            f"{tag:>12}: {corner['throughput_ops_per_s']:8.0f} ops/s, "
            f"p50 {corner['p50_ms']:.2f}ms p99 {corner['p99_ms']:.2f}ms, "
            f"{corner['group_commit_syncs']} group syncs"
        )

    per_op, grouped = corners[False], corners[True]
    speedup = (
        grouped["throughput_ops_per_s"] / per_op["throughput_ops_per_s"]
        if per_op["throughput_ops_per_s"]
        else 0.0
    )
    payload = {
        "benchmark": "writepath_group_commit",
        "config": {
            "ops": args.ops,
            "clients": args.clients,
            "seed": args.seed,
            "value_bytes": args.value_bytes,
            "keyspace": args.keyspace,
            "quick": args.quick,
        },
        "corners": [per_op, grouped],
        "speedup_group_commit_over_fsync_per_op": round(speedup, 3),
    }
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    print(
        f"speedup (group commit / fsync per op): {speedup:.2f}x"
        + (f" -> {args.output}" if args.output else "")
    )

    failed = []
    for group_commit, corner in corners.items():
        if corner["errors"]:
            failed.append(
                f"{_tag(group_commit)} had {corner['errors']} client errors"
            )
    if grouped["group_commit_syncs"] == 0:
        failed.append("group commit never performed a group sync")
    if grouped["group_commit_batches"] != grouped["ops"]:
        failed.append(
            f"group commit lost batches: {grouped['group_commit_batches']} "
            f"committed vs {grouped['ops']} acked"
        )
    if speedup <= 1.0:
        failed.append(
            f"group commit only reached {speedup:.2f}x over fsync per op"
        )
    for line in failed:
        print(f"FAILED: {line}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
