#!/usr/bin/env python3
"""Quickstart: the embeddable LSM storage engine.

Opens a store, writes a YCSB-style workload through the real engine
(WAL -> memtable -> sorted runs -> policy-driven compaction),
reads it back, and prints the tree's shape — then reopens the store to
demonstrate crash-free recovery from the manifest and WAL.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

from repro.engine import LSMStore, StoreOptions
from repro.workloads import RecordGenerator, ZipfianKeys


def main() -> None:
    directory = Path(tempfile.mkdtemp(prefix="repro-quickstart-"))
    options = StoreOptions(
        memtable_bytes=256 * 1024,  # small memtable so compaction kicks in
        policy="tiering",
        size_ratio=3,
        scheduler="greedy",  # the paper's runtime recommendation
        levels=4,
    )
    print(f"opening store at {directory} with {options.policy} policy, "
          f"{options.scheduler} scheduler")

    generator = RecordGenerator(
        ZipfianKeys(keyspace=20_000), value_size=256, seed=7
    )
    with LSMStore.open(str(directory / "db"), options) as store:
        print("loading 20,000 records, then applying 30,000 zipfian updates...")
        for record in generator.load_sequence(20_000):
            store.put(record.key, record.value)
        for record in generator.batch(30_000):
            store.put(record.key, record.value)

        store.maintenance()  # drive flushes and merges to quiescence
        stats = store.stats()
        print(f"  disk components: {stats.disk_components} "
              f"(per level: {stats.components_per_level})")
        print(f"  merges completed: {stats.merges_completed}")
        print(f"  write stalls hit: {stats.write_stalls}")

        key = generator.batch(1)[0].key
        print(f"  point lookup {key!r}: "
              f"{'hit' if store.get(key) is not None else 'miss'}")
        first_ten = list(store.scan(limit=10))
        print(f"  scan first 10 keys: {[k.decode() for k, _ in first_ten]}")

        store.delete(first_ten[0][0])
        assert store.get(first_ten[0][0]) is None
        print(f"  deleted {first_ten[0][0].decode()}: confirmed gone")

    print("reopening store (recovery from manifest + WAL)...")
    with LSMStore.open(str(directory / "db"), options) as reopened:
        survived = sum(1 for _ in reopened.scan())
        print(f"  records after reopen: {survived}")
        assert reopened.get(first_ten[0][0]) is None
        print("  delete survived recovery: yes")

    shutil.rmtree(directory)
    print("done.")


if __name__ == "__main__":
    main()
