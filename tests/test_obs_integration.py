"""End-to-end observability: loadgen → engine → registry → Prometheus.

The acceptance path for the observability layer: one open-loop load
against a single stall-prone server must surface, through the HTTP
scrape endpoint and the METRICS/EVENTS verbs, the write latency
breakdown histograms, flush/merge counters with byte totals, stall
counters, and at least one absorbed stall in the event ring. A second
scenario checks the cluster roll-up merges per-shard histograms
bucket-by-bucket instead of summing percentiles.
"""

from __future__ import annotations

import asyncio
import math
import urllib.request

from repro.cluster import LocalCluster
from repro.engine import LSMStore, StoreOptions
from repro.obs import (
    Observability,
    lint_exposition,
    percentile_from_buckets,
)
from repro.server import protocol
from repro.server.admission import build_admission
from repro.server.client import KVClient
from repro.server.loadgen import open_loop
from repro.server.service import KVServer

#: Ingestion outruns the workers' throttled flush + merge bandwidth (the
#: paper's fixed maintenance budget), so the component constraint
#: produces genuine write stalls.
OVERLOAD_OPTIONS = StoreOptions(
    memtable_bytes=4096,
    num_memtables=2,
    policy="tiering",
    size_ratio=3,
    levels=2,
    constraint_limit=5,
    merge_chunk_bytes=1024,
    rate_limit_bytes_per_s=192 * 1024,
    background_maintenance=True,
    block_cache_bytes=0,
)


def _counter(snapshot: dict, name: str, **labels) -> float:
    total = 0.0
    found = False
    for entry in snapshot["counters"]:
        if entry["name"] != name:
            continue
        if all(entry["labels"].get(k) == v for k, v in labels.items()):
            total += entry["value"]
            found = True
    assert found, f"counter {name} {labels} not in snapshot"
    return total


def _histograms(snapshot: dict, name: str, **labels) -> list[dict]:
    return [
        entry
        for entry in snapshot["histograms"]
        if entry["name"] == name
        and all(entry["labels"].get(k) == v for k, v in labels.items())
    ]


def _scrape(address: tuple[str, int]) -> str:
    url = f"http://{address[0]}:{address[1]}/metrics"
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.read().decode("utf-8")


def test_open_loop_exposes_stall_pipeline_through_prometheus(tmp_path):
    async def scenario():
        with LSMStore.open(str(tmp_path / "db"), OVERLOAD_OPTIONS) as store:
            server = KVServer(
                store,
                build_admission(
                    "gradual",
                    rate_bytes_per_s=OVERLOAD_OPTIONS.rate_limit_bytes_per_s,
                    retry_after=0.01,
                    threshold=0.3,
                ),
                metrics_port=0,
            )
            await server.start()
            try:
                host, port = server.address
                result = await open_loop(
                    host,
                    port,
                    rate_ops_per_s=1500.0,
                    total_ops=1200,
                    value_bytes=120,
                    client_options={
                        "timeout": 5.0,
                        "max_retries": 25,
                        "backoff_base": 0.02,
                        "backoff_max": 0.1,
                    },
                )
                text = await asyncio.to_thread(
                    _scrape, server.metrics_address
                )
                async with KVClient(host, port) as client:
                    snapshot = await client.metrics()
                    events = await client.events()
                return result, text, snapshot, events
            finally:
                await server.aclose()

    result, text, snapshot, events = asyncio.run(scenario())
    assert result.op_count > 0

    # The scrape is format-clean and self-consistent.
    assert lint_exposition(text) == []

    # Flush/merge counters with byte totals.
    assert _counter(snapshot, "engine_flushes_total") > 0
    assert _counter(snapshot, "engine_flush_bytes_total") > 0
    assert _counter(snapshot, "engine_merges_total") > 0
    assert _counter(snapshot, "engine_merge_bytes_total") > 0
    assert _counter(snapshot, "engine_memtable_rotations_total") > 0

    # The overload produced real stalls. A gradual server absorbs them
    # on its loop, before the engine's gate, so it counts them.
    assert _counter(snapshot, "server_stalls_absorbed_total") > 0
    assert "engine_stall_seconds_total" in text
    assert "engine_write_stalls_total" in text

    # Write latency breakdown histograms, per component.
    for component in ("total", "queue", "admission", "engine", "io"):
        series = _histograms(
            snapshot, "server_request_seconds", op="put",
            component=component,
        )
        assert series, f"missing breakdown component {component}"
        assert sum(entry["count"] for entry in series) > 0
    total_series = _histograms(
        snapshot, "server_request_seconds", op="put", component="total"
    )[0]
    p99 = percentile_from_buckets(
        total_series["bounds"], total_series["counts"], 99.0
    )
    assert 0.0 < p99 < math.inf

    # The stall made it into the event ring: as the server's pause at
    # the closed gate (the engine's stall_enter/stall_exit pair is for a
    # writer that waits inside the gate; none does here).
    kinds = [event["kind"] for event in events["events"]]
    assert any(
        event["kind"] == "admission"
        and event["fields"]["action"] == "absorb"
        for event in events["events"]
    )
    # Flush lifecycle pairs, too.
    assert "flush_start" in kinds and "flush_end" in kinds


def test_every_write_records_its_breakdown_legs(tmp_path):
    async def scenario():
        with LSMStore.open(str(tmp_path / "db"), StoreOptions()) as store:
            server = KVServer(store)
            await server.start()
            try:
                host, port = server.address
                async with KVClient(host, port) as client:
                    response = await client.request(
                        protocol.put_request(b"k", b"v" * 64)
                    )
                    return response, await client.metrics()
            finally:
                await server.aclose()

    response, snapshot = asyncio.run(scenario())
    # The legs are the server's bookkeeping; the ack itself is bare.
    assert response == {"ok": True}
    legs = {}
    for leg in ("total", "queue", "admission", "engine", "io"):
        (series,) = _histograms(
            snapshot, "server_request_seconds", op="put", component=leg
        )
        assert series["count"] == 1
        assert series["sum"] >= 0.0
        legs[leg] = series["sum"]
    # total covers the attributed legs; queue is the remainder.
    attributed = legs["admission"] + legs["engine"] + legs["io"]
    assert legs["total"] >= attributed - 1e-9


def test_cluster_rollup_merges_histograms_bucket_by_bucket(tmp_path):
    put_count = 120

    # Small memtables so the shard engines rotate/flush during the run
    # and their lifecycle events have something to say.
    shard_options = StoreOptions(
        memtable_bytes=4096,
        policy="tiering",
        size_ratio=3,
        levels=2,
    )

    async def scenario():
        async with LocalCluster(
            str(tmp_path / "cluster"),
            num_shards=2,
            options=shard_options,
            metrics_port=0,
        ) as cluster:
            host, port = cluster.address
            async with KVClient(host, port) as client:
                for i in range(put_count):
                    await client.put(f"key-{i:06d}".encode(), b"v" * 80)
                snapshot = await client.metrics()
                events = await client.events()
            text = await asyncio.to_thread(
                _scrape, cluster.router.metrics_address
            )
            return snapshot, events, text

    snapshot, events, text = asyncio.run(scenario())
    assert lint_exposition(text) == []

    # Tiers stay distinguishable after the merge.
    shard_series = _histograms(
        snapshot, "server_request_seconds",
        op="put", component="total", tier="shard",
    )
    router_series = _histograms(
        snapshot, "server_request_seconds",
        op="put", component="total", tier="router",
    )
    assert {entry["labels"]["shard"] for entry in shard_series} == {
        "0", "1",
    }
    assert len(router_series) == 1

    # Every put the router forwarded was observed once per tier; the
    # roll-up preserved per-bucket counts (sum of buckets == count),
    # which is what makes percentiles-from-merged-buckets valid.
    assert sum(entry["count"] for entry in shard_series) == put_count
    assert router_series[0]["count"] == put_count
    for entry in shard_series + router_series:
        assert sum(entry["counts"]) == entry["count"]

    # A percentile is computable from the merged shard view.
    merged_counts = [
        sum(pair)
        for pair in zip(*(entry["counts"] for entry in shard_series))
    ]
    p50 = percentile_from_buckets(
        shard_series[0]["bounds"], merged_counts, 50.0
    )
    assert 0.0 < p50 < math.inf

    # Router counters rolled up with per-shard labels.
    assert _counter(
        snapshot, "router_writes_admitted_total", tier="router"
    ) == put_count
    shard_admits = _counter(
        snapshot, "router_shard_writes_admitted_total", tier="router"
    )
    assert shard_admits == put_count

    # Shard engine events surface through the router with shard labels.
    shard_tagged = [
        event for event in events["events"]
        if "shard" in event["fields"]
    ]
    assert shard_tagged, "no shard events reached the cluster view"


def test_stores_sharing_one_bundle_sum_their_cache_counters(tmp_path):
    """Regression: each store's scrape overwrote the shared bundle's
    block-cache counters with its own totals, so the store with fewer
    lookups answered METRICS with INTERNAL ("cannot move backwards").
    Now each scrape adds what its store's cache grew by."""
    options = StoreOptions(obs=Observability(), memtable_bytes=8192)

    async def scenario():
        answers = []
        with LSMStore.open(str(tmp_path / "a"), options) as first, \
                LSMStore.open(str(tmp_path / "b"), options) as second:
            for store, reads in ((first, 300), (second, 100)):
                for i in range(300):
                    store.put(b"k%05d" % i, b"v" * 64)
                store.flush()
                for i in range(reads):
                    store.get(b"k%05d" % (i * 7 % 300))
            for store in (first, second):
                async with KVServer(store) as server:
                    async with KVClient(*server.address) as client:
                        answers.append(await client.metrics())
            lookups = sum(
                store.stats().cache_hits + store.stats().cache_misses
                for store in (first, second)
            )
        return answers, lookups

    (_, last), lookups = asyncio.run(scenario())
    assert lookups > 0
    assert _counter(last, "engine_block_cache_misses_total") == lookups


def test_server_counters_agree_across_snapshot_stats_and_registry(tmp_path):
    """The serving counters have one home, the registry: the view, the
    STATS section and the series read the same numbers."""

    async def scenario():
        with LSMStore.open(str(tmp_path / "db"), StoreOptions()) as store:
            async with KVServer(store) as server:
                async with KVClient(*server.address) as client:
                    for i in range(12):
                        await client.put(b"k%d" % i, b"v")
                    for i in range(5):
                        await client.get(b"k%d" % i)
                    await client.scan(limit=3)
                    stats = await client.stats()
                view = server.metrics.snapshot()
                snapshot = await server.metrics_snapshot()
        return view, stats["server"], snapshot

    view, served, snapshot = asyncio.run(scenario())
    # STATS was answered before its own connection closed.
    assert served == dict(view, connections_open=1)
    assert view["writes_admitted"] == 12
    assert view["reads_total"] == 6
    assert view["requests_total"] == 19
    assert view["connections_total"] == 1
    for name, value in view.items():
        if name == "connections_open":
            continue
        series = name if name.endswith("_total") else f"{name}_total"
        assert _counter(snapshot, f"server_{series}") == value
