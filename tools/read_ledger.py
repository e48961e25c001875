#!/usr/bin/env python
"""Where a workload's block lookups go, read by read, replayed in process.

The read-side twin of ``tools/ingest_ledger.py``. ``bench/run.py``'s
``read_amp`` is block lookups — every data block a query reads — over
reads: the gets and scans of the measured window plus the read-back
after a quiesce and reopen. This tool replays the same operations
against one ``LSMStore`` with the benchmark's settings and books each
lookup (``stats().cache_hits + cache_misses``) to the operation that
made it. The cache holds no block, so every lookup is a
``cache_misses`` and ``cache_hits`` reads 0; the sum stays, so a tree
from before, whose cache held blocks, is booked the same way. A leg's share is its lookups over all reads, so the shares sum
to ``read_amp``. A get answered by a cached row, span or a memtable
looks up no block, and neither does a scan that cached spans and
memtables answered; the tool prints how many were, and what share of
the scans' rows came from spans (a scan that crosses a span takes its
rows and reads blocks only for the gaps).

The operations are each worker's stream from ``bench/workloads.py``
(imported, never changed), taken in turn, and every answer is checked
against its model. ``engine-mixed`` runs one worker in process, as the
benchmark does, so its sum matches ``run.py``'s ``read_amp`` for the
same seed up to what the maintenance worker's timing moves. The wire
and cluster workloads run on one store here, so theirs are estimates.

Compare two source trees on the same seed::

    python tools/read_ledger.py --src /path/to/parent/src --seed 7
    python tools/read_ledger.py --seed 7
    python tools/read_ledger.py --quick   # 1/50 of the data and time

Exits 1 if any read returned a wrong value.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Records per preload batch, as ``bench/server_proc.py`` loads them.
PRELOAD_BATCH = 500
READS = ("get", "scan", "read-back")


@dataclasses.dataclass
class Leg:
    ops: int = 0
    lookups: int = 0
    #: Gets a cached row or span answered, and scans a cached span took
    #: part in that looked up no block.
    cached: int = 0
    #: Scans only: rows returned, and how many of them came from spans.
    rows: int = 0
    span_rows: int = 0
    #: Gets only: answered by a memtable (no span hit and no block
    #: lookup; every key the workloads read exists).
    memtable: int = 0


def replay(workload, seed: int, seconds: float, directory: str):
    """``({leg: Leg}, wrong answers)`` for one pass over ``workload``."""
    import workloads as w
    from repro.engine import LSMStore, StoreOptions

    def open_store():
        return LSMStore.open(directory, StoreOptions(**w.STORE_OPTIONS))

    def counts(store) -> tuple[int, int, int]:
        """Block lookups so far, reads a cached row or span served, and
        rows scans took from spans (a tree before spans has no
        ``scan_hits``, one before the walk across them no
        ``scan_span_rows``)."""
        stats = store.stats()
        return (
            stats.cache_hits + stats.cache_misses,
            stats.row_hits + getattr(stats, "scan_hits", 0),
            getattr(stats, "scan_span_rows", 0),
        )

    legs: dict[str, Leg] = {}
    model = w.Model(workload)
    wrong = 0

    def run(store, op, leg_name: str) -> None:
        nonlocal wrong
        lookups, cached, span_rows = counts(store)
        if op.kind == "put":
            store.put(w.key_for(op.index), w.value_for(op.index, op.version))
            model.acknowledge(op)
            right = True
        elif op.kind == "get":
            right = model.check_get(op, store.get(w.key_for(op.index)))
        else:
            rows_read = list(
                store.scan(w.key_for(op.index), None, w.SCAN_LIMIT)
            )
            right = model.check_scan(op, rows_read)
        wrong += not right
        after_lookups, after_cached, after_span_rows = counts(store)
        leg = legs.setdefault(leg_name, Leg())
        if op.kind == "scan":
            leg.rows += len(rows_read)
            leg.span_rows += after_span_rows - span_rows
        leg.ops += 1
        leg.lookups += after_lookups - lookups
        leg.cached += after_cached - cached
        if op.kind == "get":
            leg.memtable += after_lookups == lookups and after_cached == cached

    store = open_store()
    try:
        for first in range(0, workload.preload, PRELOAD_BATCH):
            last = min(workload.preload, first + PRELOAD_BATCH)
            store.write_batch(
                [(w.key_for(i), w.value_for(i, 0)) for i in range(first, last)]
            )
        store.flush()
        store.maintenance()
        streams = [
            w.op_stream(workload, seed, worker)
            for worker in range(workload.workers)
        ]
        # Each connection's first request, outside the window: no read.
        for _ in streams:
            run(store, w.Op("get", workload.keyspace), "warm-up")
        total = max(
            workload.workers,
            int(workload.closed_ops_per_second * seconds * workload.closed_share),
        )
        per_worker = int(
            workload.open_rate / workload.workers * seconds
            * (1 - workload.closed_share)
        )
        for i in range(total + per_worker * workload.workers):
            op = next(streams[i % workload.workers])
            run(store, op, op.kind)
        store.flush()
        store.maintenance()
    finally:
        store.close()
    store = open_store()  # the counters start again from zero
    try:
        for index in model.sample(seed, w.VERIFY_KEYS):
            run(store, w.Op("get", index), "read-back")
    finally:
        store.close()
    return legs, wrong


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--src",
        default=str(ROOT / "src"),
        help="source tree to replay on (default: this checkout's src/)",
    )
    parser.add_argument("--workload", default="engine-mixed")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--seconds",
        type=float,
        help="the window the op count is sized by (default: BENCHMARK.json)",
    )
    parser.add_argument(
        "--quick", action="store_true", help="1/50 of the data and the ops"
    )
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    seconds = args.seconds
    if seconds is None:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as source:
            seconds = float(json.load(source)["run_seconds"])
    if args.quick:
        seconds /= 50
        if workload.preload:
            workload = dataclasses.replace(
                workload,
                preload=workload.preload // 50,
                keyspace=workload.keyspace // 50,
            )

    directory = tempfile.mkdtemp(prefix="read-ledger-")
    try:
        legs, wrong = replay(
            workload, args.seed, seconds, os.path.join(directory, "store")
        )
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    reads = sum(legs[name].ops for name in READS if name in legs)
    print(f"source: {args.src}")
    print(f"{args.workload}, seed {args.seed}: {reads} reads")
    print(f"{'leg':<11}{'ops':>8}{'lookups':>10}{'per op':>9}{'share':>9}")
    for name, leg in legs.items():
        per_op = leg.lookups / leg.ops if leg.ops else 0.0
        share = leg.lookups / reads if reads else 0.0
        print(
            f"{name:<11}{leg.ops:>8}{leg.lookups:>10}{per_op:9.4f}{share:9.4f}"
        )
    lookups = sum(leg.lookups for leg in legs.values())
    print(f"read_amp (the shares' sum): {lookups / reads if reads else 0:.4f}")
    for name in ("get", "read-back"):
        leg = legs.get(name)
        if leg is not None:
            print(
                f"{name}: row hits {leg.cached / leg.ops:.1%}, "
                f"memtable {leg.memtable / leg.ops:.1%}, "
                f"block lookups per get {leg.lookups / leg.ops:.4f}"
            )
    leg = legs.get("scan")
    if leg is not None:
        print(
            f"scan: served from cache {leg.cached / leg.ops:.1%} (no block "
            f"read), rows from spans {leg.span_rows / max(leg.rows, 1):.1%}, "
            f"block lookups per scan {leg.lookups / leg.ops:.4f}"
        )
    if wrong:
        print(f"WRONG: {wrong} reads disagreed with the model")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
