#!/usr/bin/env python3
"""The serving tier, end to end: one server per admission mode over TCP.

Boots a :class:`repro.server.KVServer` in-process over a deliberately
merge-starved engine (ingestion outruns the maintenance workers'
throttled bandwidth, so the component constraint produces genuine write
stalls), plays the same seeded closed-loop write overload over real
sockets against each admission mode, and prints P50/P99/max client
write latency:

* ``none``    — a stalled write waits at the engine's gate: the stall
  reaches clients as latency;
* ``stop``    — saturated writes rejected at admission with RETRY_AFTER;
* ``limit``   — writes paced at a byte-rate cap ahead of the engine;
* ``gradual`` — the simulator's slowdown: pacing that ramps down from
  the maintenance budget as merge backlog grows, absorbing stalls
  inside the service (slow down, never stop).

The tail tells the paper's story: stop-style interaction pushes entire
stall windows into P99, gradual trades a small median penalty for a
flatter tail. (The load is closed-loop, not the two-phase replay: with
throttled workers, a testing phase too short to fill the tree measures
more throughput than the workers sustain — the paper's §5.3 trap — and
each mode would then be run at a different, unsustainable rate.)

Run:  python examples/serve_and_load.py
"""

from __future__ import annotations

import asyncio
import shutil
import tempfile
from pathlib import Path

from repro.engine import LSMStore, StoreOptions
from repro.server import KVServer, build_admission
from repro.server.loadgen import closed_loop

#: Merge-starved engine: the workers' flush + merge throttle (the
#: paper's fixed maintenance budget, scaled down) is below the ingest
#: rate, so the component constraint (limit 5 >= 2 * levels + 1, every
#: stall transient) trips under sustained writes — write stalls at
#: human-visible scale.
ENGINE = StoreOptions(
    memtable_bytes=4096,
    num_memtables=2,
    policy="tiering",
    size_ratio=3,
    levels=2,
    constraint_limit=5,
    merge_chunk_bytes=1024,
    rate_limit_bytes_per_s=320 * 1024,
    background_maintenance=True,
    block_cache_bytes=0,
)

MODES = (
    ("none", {}),
    ("stop", dict(retry_after=0.05)),
    ("limit", dict(rate_bytes_per_s=256 * 1024)),
    ("gradual", dict(
        rate_bytes_per_s=ENGINE.rate_limit_bytes_per_s, retry_after=0.01
    )),
)

CLIENT = dict(timeout=10.0, max_retries=25, backoff_base=0.05, backoff_max=0.1)


async def run_mode(directory: Path, mode: str, params: dict):
    with LSMStore.open(str(directory), ENGINE) as store:
        server = KVServer(
            store, build_admission(mode, **params), write_deadline=10.0
        )
        async with server:
            host, port = server.address
            result = await closed_loop(
                host,
                port,
                clients=1,
                ops_per_client=300,
                value_bytes=512,
                keyspace=512,
                seed=7,
                label=mode,
                client_options=dict(CLIENT),
            )
        return result, store.stats(), server.metrics.snapshot()


def report(mode: str, result, stats, metrics) -> None:
    profile = result.latency_profile((50.0, 99.0))
    print(f"\n=== admission: {mode}")
    print(
        f"  client write latency: p50 {profile[50.0] * 1e3:7.2f}ms  "
        f"p99 {profile[99.0] * 1e3:7.2f}ms  "
        f"max {result.max_latency * 1e3:7.2f}ms"
    )
    print(
        f"  client: {result.retries} retries, "
        f"{result.stalled_responses} stalled responses, "
        f"{result.error_count} errors"
    )
    print(
        f"  server: {metrics['writes_admitted']} admitted, "
        f"{metrics['writes_delayed']} delayed, "
        f"{metrics['writes_rejected']} rejected, "
        f"{metrics['stalls_absorbed']} stalls absorbed"
    )
    print(
        f"  engine: {stats.write_stalls} write stalls, "
        f"{stats.merges_completed} merges, "
        f"tree {dict(sorted(stats.components_per_level.items()))}"
    )


async def main() -> None:
    print(__doc__.split("\n\n")[0])
    workdir = Path(tempfile.mkdtemp(prefix="repro-serve-"))
    try:
        for mode, params in MODES:
            directory = workdir / mode
            result, stats, metrics = await run_mode(directory, mode, params)
            report(mode, result, stats, metrics)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(
        "\nThe paper's stop-vs-slow-down contrast, at the serving "
        "layer: compare the p99 columns."
    )


if __name__ == "__main__":
    asyncio.run(main())
