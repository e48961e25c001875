#!/usr/bin/env python
"""Where the time of a bulk load goes, leg by leg, timed from outside.

Runs the benchmark's preload — 40 000 records of 1 KiB under sequential
keys, in 500-record ``write_batch`` calls, then ``flush`` and
``maintenance`` — against one ``LSMStore`` with *inline* maintenance, so
every flush and merge runs on the calling thread and the legs nest as
the calls do. Each leg is a callable of the engine wrapped at run time;
a leg's seconds are its own (calls into another leg are that leg's), so
the legs, the timer's own cost and ``rest`` (everything unwrapped: the
store's lock and bookkeeping, the manifest, the loop below) sum to the
total. The store's settings restate ``bench/workloads.py`` with
``background_maintenance`` turned off; nothing is imported from
``bench/``.

Compare two source trees on the same box, a few repeats each::

    python tools/ingest_ledger.py --src /path/to/parent/src --repeats 5
    python tools/ingest_ledger.py --repeats 5

The table is the run with the median total. The last line is the
process's peak resident memory (``ru_maxrss``), imports included, so two
trees' import footprints compare as well.
"""

from __future__ import annotations

import argparse
import os
import resource
import shutil
import sys
import tempfile
from pathlib import Path
from time import perf_counter

RECORDS = 40_000
BATCH = 500
VALUE = (bytes(range(256)) * 4)[:1024]

STORE_OPTIONS = {
    "memtable_bytes": 1 << 20,
    "num_memtables": 2,
    "policy": "tiering",
    "size_ratio": 3,
    "scheduler": "greedy",
    "background_maintenance": False,
    "maintenance_threads": 1,
    "block_cache_bytes": 8 << 20,
    "block_codec": "none",
    "filter_kind": "bloom",
    "sync_writes": False,
    "group_commit": False,
}


class Legs:
    """Self time and call count per wrapped callable, on one thread."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        #: Seconds spent in legs called by the leg running now.
        self._inner = [0.0]
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, owner, attribute: str, name: str, when=None) -> None:
        """Book ``owner.attribute``'s calls under ``name`` — only those
        ``when(*args)`` picks, if given; the others run untimed, their
        time their caller's."""
        original = getattr(owner, attribute)
        self._restore.append((owner, attribute, original))
        self.seconds.setdefault(name, 0.0)
        self.calls.setdefault(name, 0)
        inner = self._inner

        def timed(*args, **kwargs):
            if when is not None and not when(*args):
                return original(*args, **kwargs)
            inner.append(0.0)
            started = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                self.seconds[name] += elapsed - inner.pop()
                self.calls[name] += 1
                inner[-1] += elapsed

        setattr(owner, attribute, timed)

    def unwrap(self) -> None:
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)


def timer_cost(calls: int = 100_000) -> float:
    """Seconds one wrapped call adds, measured on a no-op."""

    class Probe:
        @staticmethod
        def nothing() -> None:
            pass

    started = perf_counter()
    for _ in range(calls):
        Probe.nothing()
    bare = perf_counter() - started
    Legs().wrap(Probe, "nothing", "probe")
    started = perf_counter()
    for _ in range(calls):
        Probe.nothing()
    return max(0.0, perf_counter() - started - bare) / calls


def load_once(
    directory: str,
) -> tuple[dict[str, tuple[float, int]], dict[str, int]]:
    """One preload: ``{leg: (seconds, calls)}`` including ``total``,
    and its merges' input blocks by path (``engine_merge_blocks_total``:
    ``linked``, ``copied``, ``rewritten``; ``appended`` in a tree from
    before merges linked their inputs). A merge that links its inputs
    is one ``merge link`` call: the count of linked merges."""
    from repro.engine import (
        BloomFilter,
        CompactionManager,
        LSMStore,
        MemTable,
        MergeJob,
        SSTableReader,
        SSTableWriter,
        StoreOptions,
        WriteAheadLog,
    )

    try:
        # Claim -> execute -> publish of every task on the caller; the
        # flush leg is its flush tasks. A merge chunk's own time is the
        # `merge advance` leg and its publish is `rest`, as when the
        # inline pump stepped merges itself (PR 21 to PR 23).
        from repro.engine.maintenance import MaintenanceExecutor

        flush = (MaintenanceExecutor, "_run")
        is_flush = lambda _executor, task: task[0] == "flush"  # noqa: E731
    except ImportError:  # --src is a tree from before the executor
        flush = (CompactionManager, "register_flush")
        is_flush = None
    def links(job, _chunk) -> bool:
        return getattr(job, "links", None) is not None

    legs = Legs()
    per_call = timer_cost()
    for owner, attribute, name, *when in (
        (WriteAheadLog, "append", "wal append"),
        (MemTable, "put", "memtable put"),
        (*flush, "flush", is_flush),
        (MergeJob, "advance", "merge advance", lambda *a: not links(*a)),
        (MergeJob, "advance", "merge link", links),
        (SSTableWriter, "finish", "run finish"),
        (BloomFilter, "add_many", "filter build"),
        (os, "fsync", "fsync"),
        (SSTableReader, "__init__", "reader open"),
    ):
        legs.wrap(owner, attribute, name, *when)
    try:
        store = LSMStore.open(directory, StoreOptions(**STORE_OPTIONS))
        started = perf_counter()
        for first in range(0, RECORDS, BATCH):
            store.write_batch(
                [(b"key-%010d" % i, VALUE) for i in range(first, first + BATCH)]
            )
        store.flush()
        store.maintenance()
        total = perf_counter() - started
        blocks = {
            counter["labels"]["path"]: int(counter["value"])
            for counter in store.obs.registry.snapshot()["counters"]
            if counter["name"] == "engine_merge_blocks_total"
        }
        store.close()
    finally:
        legs.unwrap()
    result = {}
    overhead = 0.0
    for name, seconds in legs.seconds.items():
        cost = legs.calls[name] * per_call
        overhead += cost
        result[name] = (max(0.0, seconds - cost), legs.calls[name])
    result["timer"] = (overhead, sum(legs.calls.values()))
    attributed = sum(seconds for seconds, _ in result.values())
    result["rest"] = (total - attributed, 0)
    result["total"] = (total, 0)
    return result, blocks


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--src",
        default=str(Path(__file__).resolve().parent.parent / "src"),
        help="source tree to load (default: this checkout's src/)",
    )
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)

    runs = []
    for _ in range(args.repeats):
        directory = tempfile.mkdtemp(prefix="ingest-ledger-")
        try:
            runs.append(load_once(directory))
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    # One run's legs sum to its total exactly; medians of legs would not.
    run, blocks = sorted(runs, key=lambda legs: legs[0]["total"][0])[
        len(runs) // 2
    ]
    print(f"source: {args.src}")
    print(
        f"{RECORDS} records x {len(VALUE)} B; the run with the median "
        f"total of {args.repeats}"
    )
    print(f"{'leg':<16}{'seconds':>10}{'calls':>9}{'us/call':>10}")
    for name, (seconds, calls) in run.items():
        per_call = f"{seconds / calls * 1e6:10.2f}" if calls else ""
        print(f"{name:<16}{seconds:10.4f}{calls or '':>9}{per_call}")
    read = sum(blocks.values()) - blocks.get("linked", 0)
    if read:
        per_block = run["merge advance"][0] / read * 1e6
        print(
            f"merge advance per input block: {per_block:.2f} us "
            f"({read} blocks read)"
        )
    if blocks:
        print(
            "merge blocks by path: "
            + ", ".join(
                f"{path} {count}" for path, count in sorted(blocks.items())
            )
        )
    print(f"linked merges: {run['merge link'][1]}")
    # Linux reports KiB: the process's peak, imports included.
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"ru_maxrss: {peak:.1f} MiB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
