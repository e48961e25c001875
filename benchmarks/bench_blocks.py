#!/usr/bin/env python
"""Block-format proof: compression shrinks runs without hurting reads
(BENCH_10).

The version-2 block format's claim is that per-block compression is a
pure space win on compressible data — runs get smaller (physical bytes
strictly below logical bytes), while scans and point gets stay correct
and reasonably fast because the CRC still fences corruption and a
block is decompressed only when a query reads it. This benchmark runs the same
seeded compressible workload under each codec, ``none`` and ``zlib``
(Bloom filters, the engine's one point filter), then reports per-cell
physical and logical bytes (space amplification), full-scan throughput,
and point-get throughput, checking every answer against an in-memory
model.

Run with the repo sources on the path::

    PYTHONPATH=src python benchmarks/bench_blocks.py --quick

Emits ``BENCH_10.json`` (override with ``--output``). Exits non-zero if
any cell serves a wrong answer, if a zlib cell's space amplification is
not strictly below its raw (``none``) counterpart, or if a zlib cell
fails to land below 1.0 outright (raw cells sit marginally above 1.0 by
design — per-block header and CRC framing over pure payload).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import sys
import tempfile
import time

from repro.engine import LSMStore, SSTableReader, StoreOptions


def build_options(codec: str, args: argparse.Namespace) -> StoreOptions:
    return StoreOptions(
        memtable_bytes=256 * 1024,
        policy="tiering",
        size_ratio=3,
        levels=4,
        block_codec=codec,
        # Cache on: the claim includes decompressed-payload caching, so
        # reads should not pay decompression on every hot block.
        block_cache_bytes=4 * 2**20,
        background_maintenance=False,
    )


def populate(store: LSMStore, args: argparse.Namespace) -> dict[bytes, bytes]:
    """A compressible workload: values are repeated readable phrases, as
    log- or document-shaped data would be, so zlib has real slack."""
    rng = random.Random(args.seed)
    model: dict[bytes, bytes] = {}
    phrases = [
        b"status=ok region=us-east latency_ms=",
        b"status=retry region=eu-west latency_ms=",
        b"status=ok region=ap-south latency_ms=",
    ]
    for i in range(args.keyspace):
        key = f"event{i:08d}".encode()
        phrase = phrases[rng.randrange(len(phrases))]
        unit = phrase + str(rng.randrange(1000)).encode() + b" "
        repeats = max(1, args.value_bytes // len(unit))
        model[key] = unit * repeats
        store.put(key, model[key])
    store.flush()
    store.maintenance()
    return model


def measure_bytes(store: LSMStore, directory: str) -> tuple[int, int]:
    physical = 0
    logical = 0
    for record in store.live_runs():
        reader = SSTableReader(os.path.join(directory, record.files[0]))
        try:
            physical += reader.data_bytes
            logical += reader.logical_bytes
        finally:
            reader.close()
    return physical, logical


def run_cell(codec: str, args: argparse.Namespace) -> dict:
    directory = tempfile.mkdtemp(prefix=f"bench-blocks-{codec}-")
    wrong = 0
    try:
        options = build_options(codec, args)
        with LSMStore.open(directory, options) as store:
            model = populate(store, args)
            physical, logical = measure_bytes(store, directory)

            started = time.monotonic()
            scanned = 0
            for _ in range(args.scan_passes):
                for key, value in store.scan():
                    scanned += 1
                    if model.get(key) != value:
                        wrong += 1
            scan_elapsed = time.monotonic() - started

            keys = sorted(model)
            rng = random.Random(args.seed + 1)
            started = time.monotonic()
            for _ in range(args.reads):
                key = keys[rng.randrange(len(keys))]
                if store.get(key) != model[key]:
                    wrong += 1
            get_elapsed = time.monotonic() - started
            # Negative lookups exercise the point filter's whole reason
            # to exist; they must all miss.
            for i in range(args.reads // 4):
                if store.get(f"absent{i:08d}".encode()) is not None:
                    wrong += 1
        return {
            "codec": codec,
            "filter": options.filter_kind,
            "physical_data_bytes": physical,
            "logical_data_bytes": logical,
            "space_amplification": round(physical / logical, 4),
            "entries_scanned": scanned,
            "scan_entries_per_s": round(scanned / max(scan_elapsed, 1e-9), 1),
            "point_gets_per_s": round(args.reads / max(get_elapsed, 1e-9), 1),
            "wrong_answers": wrong,
        }
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--keyspace", type=int, default=20_000)
    parser.add_argument("--value-bytes", type=int, default=256)
    parser.add_argument("--reads", type=int, default=10_000)
    parser.add_argument("--scan-passes", type=int, default=3)
    parser.add_argument("--seed", type=int, default=10)
    parser.add_argument("--output", default="BENCH_10.json")
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke sizing (smaller keyspace, same grid)",
    )
    args = parser.parse_args(argv)
    if args.quick:
        args.keyspace = min(args.keyspace, 4_000)
        args.reads = min(args.reads, 2_000)
        args.scan_passes = 1

    cells = [run_cell(codec, args) for codec in ("none", "zlib")]
    for cell in cells:
        print(
            f"{cell['codec']:>4}/{cell['filter']:<6}: "
            f"space amp {cell['space_amplification']:.4f} "
            f"({cell['physical_data_bytes']} / {cell['logical_data_bytes']} B), "
            f"scan {cell['scan_entries_per_s']:.0f} entries/s, "
            f"gets {cell['point_gets_per_s']:.0f}/s, "
            f"{cell['wrong_answers']} wrong"
        )

    by_codec = {c["codec"]: c for c in cells}
    failed = []
    for cell in cells:
        if cell["wrong_answers"]:
            failed.append(
                f"{cell['codec']}/{cell['filter']} served "
                f"{cell['wrong_answers']} wrong answers"
            )
        if cell["codec"] == "zlib" and cell["space_amplification"] >= 1.0:
            failed.append(
                f"zlib/{cell['filter']} space amplification "
                f"{cell['space_amplification']:.4f} did not drop below 1.0"
            )
    raw = by_codec["none"]["space_amplification"]
    packed = by_codec["zlib"]["space_amplification"]
    if not packed < raw:
        failed.append(
            f"zlib space amplification {packed:.4f} is not strictly "
            f"below none {raw:.4f}"
        )

    payload = {
        "benchmark": "block_format",
        "config": {
            "keyspace": args.keyspace,
            "value_bytes": args.value_bytes,
            "reads": args.reads,
            "scan_passes": args.scan_passes,
            "seed": args.seed,
            "quick": args.quick,
        },
        "cells": cells,
        "zlib_beats_raw": not any("strictly below" in f for f in failed),
        "all_correct": not any("wrong answers" in f for f in failed),
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"-> {args.output}")

    for line in failed:
        print(f"FAILED: {line}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
