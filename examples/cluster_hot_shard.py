#!/usr/bin/env python3
"""One hot shard, two admission scopes: the paper's global-vs-local
constraint question at cluster scale.

Boots a 4-shard :class:`repro.cluster.LocalCluster` (one LSM engine per
shard, each merging on its own workers behind a throttle below the hot
shard's ingest) and plays the *same* seeded Zipf-skewed closed-loop
write overload against it twice:

* ``--scope global`` — one admission controller fed the worst-case
  merge of every shard's stats: while the hot shard is stalled, *every*
  write is rejected, whichever shard it routes to (the paper's global
  constraint, one level up — collateral damage for cold key ranges);
* ``--scope local``  — one controller per shard: only writes routed to
  the stalled shard are rejected; cold-shard traffic keeps flowing.

The example counts the writes each scope rejected on the cold shards.
Cluster-wide P99 comes out about equal under both: every shard drains
its own backlog at its own throttled rate, whichever scope sheds the
writes.

Run:  python examples/cluster_hot_shard.py
"""

from __future__ import annotations

import asyncio
import shutil
import tempfile
from pathlib import Path

from repro.cluster import ClusterAdmission, LocalCluster
from repro.engine import StoreOptions
from repro.server.loadgen import _operation_stream, closed_loop

#: Merge-starved shard engines: each shard's workers flush and merge
#: behind a throttle below the hot shard's ingest, so the component
#: constraint (limit 5 = 2 * levels + 1, every stall transient) trips on
#: whichever shard the Zipf skew concentrates traffic. Three memtables,
#: so a cold shard's seal never fills memory before its worker flushes.
ENGINE = StoreOptions(
    memtable_bytes=4096,
    num_memtables=3,
    policy="tiering",
    size_ratio=3,
    levels=2,
    constraint_limit=5,
    merge_chunk_bytes=512,
    rate_limit_bytes_per_s=96 * 1024,
    background_maintenance=True,
    block_cache_bytes=0,
)

SHARDS = 4
SEED = 19
KEYSPACE = 768
VALUE_BYTES = 1024
OPS = 500
THETA = 1.4

CLIENT = dict(timeout=5.0, max_retries=40, backoff_base=0.02, backoff_max=0.05)


async def run_scope(directory: Path, scope: str):
    admission = ClusterAdmission(scope, "stop", SHARDS, retry_after=0.05)
    cluster = LocalCluster(
        str(directory),
        num_shards=SHARDS,
        options=ENGINE,
        admission=admission,
    )
    async with cluster:
        host, port = cluster.address
        result = await closed_loop(
            host,
            port,
            clients=1,
            ops_per_client=OPS,
            value_bytes=VALUE_BYTES,
            keyspace=KEYSPACE,
            seed=SEED,
            distribution="zipf",
            theta=THETA,
            label=f"{scope}-admission",
            client_options=dict(CLIENT),
        )
        per_shard = cluster.router.metrics.snapshot()[
            "writes_rejected_per_shard"
        ]
        rejected = {int(shard): count for shard, count in per_shard.items()}
        ring = cluster.store.ring
    return result, rejected, ring


def report(scope: str, result, rejected) -> None:
    profile = result.latency_profile((50.0, 99.0))
    per_shard = ", ".join(
        f"shard {shard}: {count}" for shard, count in sorted(rejected.items())
    ) or "none"
    print(f"\n=== scope: {scope}")
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
    print(f"  writes rejected at admission: {per_shard}")


async def main() -> None:
    print(__doc__.split("\n\n")[0])
    workdir = Path(tempfile.mkdtemp(prefix="repro-cluster-"))
    try:
        cold_rejected = {}
        for scope in ("global", "local"):
            result, rejected, ring = await run_scope(workdir / scope, scope)
            if scope == "global":
                stream = _operation_stream(
                    SEED, KEYSPACE, 1, distribution="zipf", theta=THETA
                )
                keys = [next(stream)[0] for _ in range(OPS)]
                shares = ring.traffic_shares(keys)
                cold = [s for s, share in shares.items() if share <= 1 / SHARDS]
                print("\nworkload placement (Zipf theta "
                      f"{THETA}, {OPS} writes):")
                for shard, share in sorted(shares.items()):
                    marker = "  <- hot" if shard not in cold else ""
                    print(f"  shard {shard}: {share:5.1%}{marker}")
            report(scope, result, rejected)
            cold_rejected[scope] = sum(rejected.get(s, 0) for s in cold)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(
        f"\nSame workload, same engines: writes rejected on the cold "
        f"shards — global {cold_rejected['global']}, "
        f"local {cold_rejected['local']}. Local admission punishes only "
        f"the hot key range."
    )


if __name__ == "__main__":
    asyncio.run(main())
