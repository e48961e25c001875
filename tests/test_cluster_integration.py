"""End-to-end cluster tests: real engines, real TCP, real skew.

The centrepiece is the cluster-scope version of the paper's constraint
comparison: the same seeded Zipf-skewed closed-loop overload is played
against ``global`` and ``local`` admission on a 4-shard cluster whose
shard workers run behind a maintenance throttle below the hot shard's
ingest. The skew makes one shard hot; under ``global`` scope that
shard's stalls reject writes bound for every shard, while under
``local`` scope the cold shards never see a rejection.
"""

import asyncio

import pytest

from repro.cluster import ClusterAdmission, LocalCluster
from repro.engine import LSMStore, StoreOptions
from repro.errors import ConfigurationError, RequestFailedError
from repro.server import KVServer, binproto, build_admission, protocol
from repro.server.client import KVClient
from repro.server.loadgen import _operation_stream, closed_loop

FUNCTIONAL_OPTIONS = StoreOptions(
    memtable_bytes=4096,
    num_memtables=2,
    policy="tiering",
    size_ratio=3,
    levels=2,
    background_maintenance=False,
)

#: Per-shard overload engine: the hot shard's ingest outruns its
#: workers' throttled flush + merge bandwidth. A cold shard must keep
#: its own write gate open, so both of its limits sit above what its
#: unthrottled maintenance can leave behind:
#:
#: * four memtables: a burst of writes can seal a second memtable while
#:   the worker still writes the first one's run, which at three filled
#:   both sealed slots (every shedding mode stalls a write at
#:   ``memory_fill >= 1``);
#: * six components, one above the policy's own peak: tiering at ratio
#:   3 over two levels holds three flushed runs beside two merged ones
#:   (five) until the level-0 merge the third flush starts has finished,
#:   which at a limit of five closed the gate for that merge's
#:   millisecond.
OVERLOAD_OPTIONS = FUNCTIONAL_OPTIONS.with_(
    num_memtables=4,
    constraint_limit=6,
    merge_chunk_bytes=512,
    rate_limit_bytes_per_s=96 * 1024,
    background_maintenance=True,
    block_cache_bytes=0,
)

OVERLOAD_CLIENT = dict(
    timeout=5.0, max_retries=40, backoff_base=0.02, backoff_max=0.05
)

SHARDS = 4
SEED = 19
KEYSPACE = 768
VALUE_BYTES = 1024
OPS = 500
THETA = 1.4


# -- functional round-trips ----------------------------------------------


def test_all_verbs_round_trip_through_the_router(tmp_path):
    async def scenario():
        async with LocalCluster(
            str(tmp_path), SHARDS, FUNCTIONAL_OPTIONS
        ) as cluster:
            host, port = cluster.address
            async with KVClient(host, port) as client:
                assert await client.ping()
                await client.put(b"alpha", b"1")
                await client.put(b"beta", b"2")
                assert await client.get(b"alpha") == b"1"
                assert await client.get(b"missing") is None

                await client.delete(b"alpha")
                assert await client.get(b"alpha") is None

                count = await client.batch(
                    [(b"gamma", b"3"), (b"beta", None), (b"delta", b"4")]
                )
                assert count == 3
                assert await client.get(b"beta") is None

                items = await client.scan()
                assert items == [(b"delta", b"4"), (b"gamma", b"3")]

                stats = await client.stats()
                assert stats["admission_mode"] == "local:none"
                assert stats["cluster"]["cluster"]["num_shards"] == SHARDS
                assert stats["router"]["writes_admitted"] >= 4

    asyncio.run(scenario())


UNSERVED = [
    protocol.replicate_request(1, 7, 0, b""),
    protocol.promote_request(1),
    protocol.fetch_range_request(1, b"a", b"z"),
]


@pytest.mark.parametrize("front_end", ["router", "server"])
def test_a_verb_the_front_end_does_not_serve_is_a_bad_request(
    tmp_path, front_end
):
    """REPLICATE / PROMOTE / FETCH_RANGE are verbs of the protocol that
    only a replicated server handles: a router or a plain server says
    so by name (not ``INTERNAL: AttributeError``) and keeps serving."""

    async def refused(address, metrics):
        async with KVClient(*address, max_retries=0) as client:
            for message in UNSERVED:
                with pytest.raises(RequestFailedError) as excinfo:
                    await client.request(message)
                assert excinfo.value.code == protocol.CODE_BAD_REQUEST
                assert message["op"] in str(excinfo.value)
            assert await client.ping()
        assert metrics.protocol_errors.value == len(UNSERVED)

    async def scenario():
        if front_end == "router":
            async with LocalCluster(
                str(tmp_path), 2, FUNCTIONAL_OPTIONS
            ) as cluster:
                await refused(cluster.address, cluster.router.metrics)
        else:
            with LSMStore.open(str(tmp_path), FUNCTIONAL_OPTIONS) as store:
                async with KVServer(store) as server:
                    await refused(server.address, server.metrics)

    asyncio.run(scenario())


@pytest.mark.parametrize(
    "mode,background,snapshots",
    [("none", True, 0), ("none", False, 0), ("stop", True, 1)],
)
def test_a_write_reads_shard_stats_only_if_admission_looks(
    tmp_path, mode, background, snapshots
):
    """Per write: a stats snapshot only for a controller that looks at
    it (``none`` admits regardless); the router itself never drives
    maintenance, whatever the shards' drive mode."""

    async def scenario():
        cluster = LocalCluster(
            str(tmp_path),
            2,
            FUNCTIONAL_OPTIONS.with_(background_maintenance=background),
            admission=ClusterAdmission("local", mode, 2),
        )
        calls = {"stats": 0}
        stats_list = cluster.store.stats_list

        def counted_stats():
            calls["stats"] += 1
            return stats_list()

        cluster.store.stats_list = counted_stats
        async with cluster:
            async with KVClient(*cluster.address) as client:
                await client.put(b"key", b"value")
                assert calls == {"stats": snapshots}
                assert await client.get(b"key") == b"value"
                # The STATS verb itself always reads the shards.
                await client.stats()
                assert calls["stats"] == snapshots + 1

    asyncio.run(scenario())


def test_a_cluster_that_can_shed_writes_refuses_inline_shards(tmp_path):
    """Nothing would drive a shed shard's merges: its workers must."""
    with pytest.raises(ConfigurationError, match="maintenance workers"):
        LocalCluster(
            str(tmp_path),
            2,
            FUNCTIONAL_OPTIONS,
            admission=ClusterAdmission("global", "stop", 2),
        )
    assert not (tmp_path / "shard-00").exists()
    with LSMStore.open(str(tmp_path / "single"), FUNCTIONAL_OPTIONS) as store:
        with pytest.raises(ConfigurationError, match="maintenance workers"):
            KVServer(store, build_admission("stop"))


@pytest.mark.parametrize("built_for", [2, 6])
def test_a_cluster_refuses_an_admission_built_for_other_shards(
    tmp_path, built_for
):
    """Regression: a local admission built for two shards was taken by a
    four-shard cluster, and every write to shards 2 and 3 failed with
    INTERNAL."""
    with pytest.raises(ConfigurationError, match="built for"):
        LocalCluster(
            str(tmp_path),
            4,
            OVERLOAD_OPTIONS,
            admission=ClusterAdmission("local", "stop", built_for),
        )
    assert not (tmp_path / "shard-00").exists()


def test_a_cluster_refuses_an_unknown_ack_policy_before_opening(tmp_path):
    """Regression: the ack policy was checked only after every shard and
    replica store had opened, so a bad name left them on disk."""
    directory = tmp_path / "cluster"
    with pytest.raises(ConfigurationError, match="unknown ack policy"):
        LocalCluster(
            str(directory), num_shards=2, replicas=1, ack_policy="bogus"
        )
    assert not directory.exists()


def test_scatter_gather_scan_matches_single_engine(tmp_path):
    """Acceptance: a routed SCAN equals one engine holding all the data."""
    records = [
        (f"key-{i:06d}".encode(), f"value-{i:06d}".encode())
        for i in range(300)
    ]

    async def scenario():
        with LSMStore.open(
            str(tmp_path / "single"), FUNCTIONAL_OPTIONS
        ) as single:
            for key, value in records:
                single.put(key, value)
            reference = list(single.scan())
            bounded = list(
                single.scan(lo=records[40][0], hi=records[250][0])
            )
            limited = list(single.scan(limit=33))

        async with LocalCluster(
            str(tmp_path / "cluster"), SHARDS, FUNCTIONAL_OPTIONS
        ) as cluster:
            host, port = cluster.address
            async with KVClient(host, port) as client:
                await client.batch([(k, v) for k, v in records])
                assert await client.scan() == reference
                assert (
                    await client.scan(
                        lo=records[40][0], hi=records[250][0]
                    )
                    == bounded
                )
                assert await client.scan(limit=33) == limited

    asyncio.run(scenario())


def test_scan_limit_zero_through_the_router(tmp_path):
    """Regression: ``limit=0`` used to come back with one row from the
    router's merge (and one per shard underneath it)."""
    records = [(b"key-%06d" % i, b"v" * 40) for i in range(300)]

    def block_lookups(sharded):
        stats = [engine.stats() for engine in sharded.engines()]
        return sum(s.cache_hits + s.cache_misses for s in stats)

    async def scenario():
        async with LocalCluster(
            str(tmp_path), SHARDS, FUNCTIONAL_OPTIONS
        ) as cluster:
            host, port = cluster.address
            async with KVClient(host, port) as client:
                await client.batch(records)
                for engine in cluster.store.engines():
                    engine.flush()
                before = block_lookups(cluster.store)
                assert await client.scan(limit=0) == []
                assert await client.scan(lo=records[7][0], limit=0) == []
                assert block_lookups(cluster.store) == before
                assert await client.scan(limit=2) == records[:2]
                for limit in (-1, True):
                    with pytest.raises(RequestFailedError) as excinfo:
                        await client.request({"op": "SCAN", "limit": limit})
                    assert excinfo.value.code == protocol.CODE_BAD_REQUEST

    asyncio.run(scenario())


def test_a_scan_a_shard_refuses_as_a_bad_request_is_refused(
    tmp_path, monkeypatch
):
    """A shard's rows too large for one frame make the shard answer
    BAD_REQUEST; the router answers the same, not a partial result
    with that shard labelled missing."""
    monkeypatch.setattr(binproto, "MAX_FRAME_BYTES", 2048)
    records = [(b"key-%06d" % i, b"v" * 40) for i in range(300)]

    async def scenario():
        async with LocalCluster(
            str(tmp_path), SHARDS, FUNCTIONAL_OPTIONS
        ) as cluster:
            async with KVClient(*cluster.address, max_retries=0) as client:
                for key, value in records:
                    await client.put(key, value)
                with pytest.raises(RequestFailedError) as excinfo:
                    await client.scan()
                assert excinfo.value.code == protocol.CODE_BAD_REQUEST
                assert "limit" in str(excinfo.value)
                assert await client.scan(limit=8) == records[:8]
                assert cluster.router.metrics.degraded_scans.value == 0

    asyncio.run(scenario())


def test_cluster_survives_reopen(tmp_path):
    async def write_phase():
        async with LocalCluster(
            str(tmp_path), SHARDS, FUNCTIONAL_OPTIONS
        ) as cluster:
            host, port = cluster.address
            async with KVClient(host, port) as client:
                for index in range(64):
                    await client.put(f"key-{index:04d}".encode(), b"x" * 64)
            for engine in cluster.store.engines():
                engine.maintenance()

    async def read_phase():
        async with LocalCluster(
            str(tmp_path), SHARDS, FUNCTIONAL_OPTIONS
        ) as cluster:
            host, port = cluster.address
            async with KVClient(host, port) as client:
                for index in range(64):
                    value = await client.get(f"key-{index:04d}".encode())
                    assert value == b"x" * 64

    asyncio.run(write_phase())
    asyncio.run(read_phase())


# -- the hot-shard acceptance experiment ----------------------------------


def hot_shards_of(cluster_ring):
    """Replay the workload's key stream through the ring: who gets hot?

    A shard is *hot* when it draws strictly more than its fair share
    (``1 / SHARDS``) of the write traffic, so it is the one whose
    ingest can outrun its throttled merges. Everything at or under fair
    share is *cold*: it must never be penalized by ``local`` admission.
    """
    stream = _operation_stream(
        SEED, KEYSPACE, 1, distribution="zipf", theta=THETA
    )
    keys = [next(stream)[0] for _ in range(OPS)]
    shares = cluster_ring.traffic_shares(keys)
    hot = {
        shard
        for shard, share in shares.items()
        if share > 1.0 / SHARDS
    }
    return hot, shares


def run_overload(tmp_path, scope):
    """One Zipf-skewed closed-loop overload run against ``scope``."""

    async def scenario():
        admission = ClusterAdmission(scope, "stop", SHARDS, retry_after=0.05)
        cluster = LocalCluster(
            str(tmp_path / scope),
            num_shards=SHARDS,
            options=OVERLOAD_OPTIONS,
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
                client_options=OVERLOAD_CLIENT,
            )
            per_shard = cluster.router.metrics.snapshot()[
                "writes_rejected_per_shard"
            ]
            rejected = {int(shard): n for shard, n in per_shard.items()}
            ring = cluster.store.ring
            return result, rejected, ring

    return asyncio.run(scenario())


def test_local_admission_beats_global_under_skew(tmp_path):
    """Acceptance: local scope isolates the cold shards from a hot one.

    The workload is identical (same seed, same Zipf stream, same closed
    loop) in both runs; only the admission scope differs. Requirements:

    * the skew actually concentrates traffic (a genuinely hot shard),
    * global scope rejects writes bound for *cold* shards (the paper's
      global-constraint collateral damage, one level up),
    * local scope never rejects a cold-shard write.

    Cluster-wide P99 is not compared: with every shard merging on its
    own throttled workers, the hot shard's backlog drains at the same
    rate under either scope, and so does the tail.
    """
    global_result, global_rejected, ring = run_overload(tmp_path, "global")
    local_result, local_rejected, _ = run_overload(tmp_path, "local")

    hot, shares = hot_shards_of(ring)
    cold = [shard for shard in range(SHARDS) if shard not in hot]
    assert hot and cold, f"need both hot and cold shards: {shares}"
    assert max(shares.values()) >= 0.4, (
        f"workload is not skewed enough: {shares}"
    )

    # every op completed in both runs (closed loop retries through stalls)
    assert global_result.op_count == OPS
    assert local_result.op_count == OPS
    assert global_result.error_count == 0
    assert local_result.error_count == 0

    # the hot shard genuinely stalled: global scope shed load for it
    assert sum(global_rejected.values()) > 0, (
        "overload never tripped admission — the experiment is vacuous"
    )

    # global collateral damage: cold-shard writes were rejected too
    assert any(global_rejected.get(shard, 0) > 0 for shard in cold), (
        f"global scope rejected nothing on cold shards: {global_rejected}"
    )

    # local isolation: no cold shard ever saw a rejection
    for shard in cold:
        assert local_rejected.get(shard, 0) == 0, (
            f"cold shard {shard} was rejected under local scope: "
            f"{local_rejected}"
        )
