"""What the frozen ``bench/`` uses of ``src/`` still exists.

The tracer patches the layers' public callables by name, at run time,
and ``bench/server_proc.py`` builds its stacks from one options dict and
reads their counters by key; a rename under ``src/`` breaks
``bench/run.py`` and nothing in ``src/`` or the rest of this suite
notices. These tests install and remove the wrappers, and build and read
those stacks, against the current tree and name what is gone.
"""

import asyncio
import importlib.util
import sys
from dataclasses import asdict
from pathlib import Path

from repro.cluster import LocalCluster
from repro.engine import LSMStore, StoreOptions
from repro.replication import ReplicatedKVServer
from repro.server import KVServer
from repro.server.client import KVClient

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name: str):
    # By path, under another name: as ``trace`` the tracer would shadow
    # the standard library's module.
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", BENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _load_tracer():
    return _load("trace")


def _name(owner) -> str:
    return getattr(owner, "__qualname__", None) or owner.__name__


def test_every_patched_name_exists_and_uninstall_restores_it(monkeypatch):
    tracer = _load_tracer()
    missing = []
    patch = tracer.SpanRecorder.patch

    def checked_patch(self, owner, attribute, wrap):
        if hasattr(owner, attribute):
            patch(self, owner, attribute, wrap)
        else:
            missing.append((_name(owner), attribute))

    monkeypatch.setattr(tracer.SpanRecorder, "patch", checked_patch)
    recorder = tracer.install()
    try:
        patched = list(recorder._patched)
        assert missing == [], (
            f"bench/trace.py patches names that are gone: {missing}"
        )
        assert patched, "install() wrapped nothing"
        for owner, attribute, original in patched:
            assert getattr(owner, attribute) is not original
    finally:
        recorder.uninstall()
    for owner, attribute, original in patched:
        assert getattr(owner, attribute) is original, (_name(owner), attribute)


def test_a_shipped_span_is_named_by_its_verb(tmp_path, monkeypatch):
    """``_wrap_request`` books a leader's shipping apart from a router's
    hops by looking at ``message["op"]``: whatever the wire does with a
    span, it has to reach ``KVClient.request`` as a dict that says
    ``REPLICATE``."""
    tracer = _load_tracer()
    recorder = tracer.SpanRecorder()
    seen = []
    request = KVClient.request

    async def recording(self, message):
        seen.append(message)
        return await request(self, message)

    monkeypatch.setattr(
        KVClient,
        "request",
        tracer._wrap_request(recorder, "server.client.request", recording),
    )
    options = StoreOptions(background_maintenance=False)

    async def scenario():
        with LSMStore.open(str(tmp_path / "l"), options) as leader_store, \
                LSMStore.open(str(tmp_path / "f"), options) as follower_store:
            async with ReplicatedKVServer(
                follower_store, role="follower", ack_policy="all"
            ) as follower, ReplicatedKVServer(
                leader_store, role="leader", ack_policy="all"
            ) as leader:
                await leader.become_leader(
                    0, [KVClient(*follower.address, pool_size=1)]
                )
                while leader.shipper.acked_cursors() != [0]:
                    await asyncio.sleep(0.01)
                async with KVClient(*leader.address) as client:
                    await client.put(b"k", b"v")  # acked by the follower
                assert follower_store.get(b"k") == b"v"

    asyncio.run(scenario())
    spans = [m for m in seen if isinstance(m, dict) and "span" in m]
    assert [m["op"] for m in spans] == ["REPLICATE", "REPLICATE"]  # reset, log
    assert all(isinstance(m["span"], (bytes, bytearray)) for m in spans)
    names = recorder.export()["names"]
    booked = [names[name_id] for name_id, *_ in recorder.export()["spans"]]
    # the probe and both spans are shipping; only the test's put is a hop
    assert booked.count("replication.shipper.request") == 3
    assert booked.count("server.client.request") == 1


def test_the_stacks_server_proc_builds_answer_what_it_reads(tmp_path):
    """``bench/server_proc.py``, call for call: a store, a ``KVServer``
    and a ``LocalCluster`` from ``workloads.STORE_OPTIONS``, then every
    attribute and key its ``counters()`` and ``quiesce()`` read."""
    workloads = _load("workloads")
    options = StoreOptions(**workloads.STORE_OPTIONS)

    def store_snapshot(store: LSMStore) -> None:
        stats = asdict(store.stats())
        for key in ("stall_seconds_total", "write_stalls", "merges_completed"):
            assert key in stats
        assert {"counters", "histograms"} <= set(
            store.obs.registry.snapshot()
        )
        signals = store.memory_signals()
        assert signals.cache_hits + signals.cache_misses >= 0
        assert signals.cache_evictions >= 0
        assert store.rate_limiter.total_admitted_bytes >= 0

    async def scenario():
        with LSMStore.open(str(tmp_path / "store"), options) as store:
            store.write_batch([(b"k%d" % i, b"v") for i in range(10)])
            store.flush()
            store.maintenance()
            store_snapshot(store)
            server = KVServer(store, wire="binary")
            _host, port = await server.start()
            try:
                async with KVClient("127.0.0.1", port) as client:
                    await client.put(b"k", b"v")
                served = server.metrics.snapshot()
                assert served["writes_admitted"] == 1
                assert served["writes_rejected"] == 0
                assert "histograms" in await server.metrics_snapshot()
            finally:
                await server.aclose()
        cluster = LocalCluster(
            str(tmp_path / "cluster"),
            num_shards=workloads.CLUSTER_SHARDS,
            options=options,
            replicas=workloads.CLUSTER_REPLICAS,
            ack_policy="leader_only",
            wire="binary",
        )
        _host, port = await cluster.start()
        try:
            async with KVClient("127.0.0.1", port) as client:
                await client.put(b"k", b"v")
            routed = cluster.router.metrics.snapshot()
            assert routed["writes_admitted"] == 1
            assert routed["writes_rejected"] == 0
            assert sum(routed["writes_admitted_per_shard"].values()) == 1
            assert len(cluster.backends) == workloads.CLUSTER_SHARDS
            for backend in cluster.backends:
                assert "counters" in backend.obs.registry.snapshot()
                for follower in backend.shipper.status()["followers"]:
                    assert follower["lag_bytes"] >= 0
            followers = [s for group in cluster.replica_stores for s in group]
            assert len(followers) == (
                workloads.CLUSTER_SHARDS * workloads.CLUSTER_REPLICAS
            )
            for store in [*cluster.store.engines(), *followers]:
                store.flush()
                store.maintenance()
                store_snapshot(store)
        finally:
            await cluster.aclose()

    asyncio.run(scenario())
