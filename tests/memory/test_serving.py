"""Serving-tier wiring: tickers, cluster events, and the metric rollup."""

import asyncio

import pytest

from repro.cluster import LocalCluster
from repro.engine import LSMStore, StoreOptions
from repro.errors import ConfigurationError
from repro.memory import MemoryArbiter, MemoryBudget
from repro.obs import MEMORY_REBALANCE
from repro.server.client import KVClient
from repro.server.service import KVServer

SMALL = StoreOptions(memtable_bytes=64 * 1024, block_cache_bytes=64 * 1024)


def test_ticker_interval_validated(tmp_path):
    with LSMStore.open(str(tmp_path / "db"), SMALL) as store:
        server = KVServer(store)
        with pytest.raises(ConfigurationError):
            server.attach_ticker(lambda: None, 0.0)


def test_kvserver_ticker_drives_the_arbiter(tmp_path):
    async def scenario() -> int:
        with LSMStore.open(str(tmp_path / "db"), SMALL) as store:
            arbiter = MemoryArbiter(
                MemoryBudget(2 * 2**20, 1),
                [store],
                obs=store.obs,
                interval=0.01,
            )
            server = KVServer(store)
            server.attach_ticker(arbiter.maybe_tick, arbiter.interval)
            async with server:
                await asyncio.sleep(0.3)
            counters = {
                c["name"]: c["value"]
                for c in store.obs.registry.snapshot()["counters"]
            }
            return int(counters.get("memory_arbiter_ticks_total", 0))

    assert asyncio.run(scenario()) >= 1


def test_cluster_rebalance_events_and_rollup(tmp_path):
    """The acceptance path: budgets move, and the decision is visible
    through the router's EVENTS verb (what ``repro obs tail`` reads)
    and as per-shard ``memory_budget_bytes`` gauges in the rollup."""

    async def scenario():
        cluster = LocalCluster(
            str(tmp_path),
            num_shards=2,
            options=SMALL,
            memory_budget=4 * 2**20,
            memory_rebalance_interval=30.0,  # ticks driven manually
        )
        async with cluster:
            host, port = cluster.address
            async with KVClient(host, port) as client:
                for i in range(600):
                    await client.put(
                        f"k{i:05d}".encode(), b"v" * 512
                    )
                    if i == 0:  # a tree with a component to merge into
                        for engine in cluster.store.engines():
                            engine.flush()
                # Deterministic: force the rebalance rather than racing
                # the serving ticker.
                cluster.store.rebalance_memory()
                events = await client.events(since=-1, limit=None)
                metrics = await client.metrics()
        kinds = [wire["kind"] for wire in events["events"]]
        budget_gauges = [
            gauge
            for gauge in metrics["gauges"]
            if gauge["name"] == "memory_budget_bytes"
        ]
        return kinds, budget_gauges

    kinds, budget_gauges = asyncio.run(scenario())
    assert MEMORY_REBALANCE in kinds
    # One gauge per (component, shard): the engine publishes the
    # component label, the cluster rollup adds the shard label.
    seen = {
        (g["labels"]["component"], g["labels"].get("shard"))
        for g in budget_gauges
    }
    assert ("memtable", "0") in seen
    assert ("memtable", "1") in seen
    assert ("block_cache", "0") in seen
    assert ("block_cache", "1") in seen


def test_cluster_memory_budget_validation(tmp_path):
    with pytest.raises(ConfigurationError):
        LocalCluster(str(tmp_path), num_shards=1, memory_budget=0)
    with pytest.raises(ConfigurationError):
        LocalCluster(
            str(tmp_path),
            num_shards=1,
            memory_budget=2**20,
            memory_rebalance_interval=0.0,
        )
