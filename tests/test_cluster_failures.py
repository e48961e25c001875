"""Router behaviour with a dead shard: fail-fast, degrade, re-close.

Everything here is deterministic. The shard clients' backoff sleeps go
through a recorded fake (never awaited for real), the breakers run on a
fake clock with an hour-long cooldown, and ``min_samples=1`` makes the
first transport failure trip the breaker — so the test controls exactly
when the breaker opens and when its cooldown "elapses".
"""

import asyncio

import pytest

from repro.cluster import LocalCluster
from repro.cluster.breaker import CLOSED, HALF_OPEN, OPEN
from repro.engine import StoreOptions
from repro.errors import RequestFailedError, RetriesExhaustedError
from repro.server import protocol
from repro.server.client import KVClient

SHARDS = 3
DEAD = 0

OPTIONS = StoreOptions(
    memtable_bytes=1 << 20,
    block_cache_bytes=0,
    background_maintenance=False,
)


class FakeClock:
    def __init__(self):
        self.now = 500.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def keys_by_shard(cluster, count=4):
    """``count`` distinct keys per shard, discovered from the ring."""
    ring = cluster.store.ring
    grouped = {shard: [] for shard in range(SHARDS)}
    candidate = 0
    while any(len(keys) < count for keys in grouped.values()):
        key = f"key-{candidate:06d}".encode()
        bucket = grouped[ring.shard_for(key)]
        if len(bucket) < count:
            bucket.append(key)
        candidate += 1
    return grouped


def run_cluster_scenario(tmp_path, scenario):
    """Boot a cluster with fake time plumbing and run ``scenario``."""
    clock = FakeClock()
    pauses = []

    async def fake_sleep(delay):
        pauses.append(delay)

    async def main():
        cluster = LocalCluster(
            str(tmp_path),
            num_shards=SHARDS,
            options=OPTIONS,
            shard_client_options=dict(
                max_retries=1,
                timeout=2.0,
                backoff_base=0.01,
                backoff_max=0.02,
                jitter=False,
                sleep=fake_sleep,
            ),
            breaker_options=dict(
                min_samples=1, cooldown=3600.0, clock=clock
            ),
        )
        async with cluster:
            host, port = cluster.address
            # max_retries=0: the driver sees every SHARD_DOWN instead
            # of retrying through it.
            async with KVClient(host, port, max_retries=0) as client:
                return await scenario(cluster, client, clock)

    return asyncio.run(main())


def shard_down_error(excinfo):
    """SHARD_DOWN is retryable, so the zero-retry driver sees it as the
    last error inside a RetriesExhaustedError."""
    error = excinfo.value.last_error
    assert isinstance(error, RequestFailedError)
    assert error.code == protocol.CODE_SHARD_DOWN
    return error


def test_dead_shard_fails_fast_with_retry_after(tmp_path):
    async def scenario(cluster, client, clock):
        keys = keys_by_shard(cluster)
        await cluster.kill_shard(DEAD)

        # First write: the shard client exhausts its retries against
        # the dead backend, the breaker trips, the caller gets a typed
        # SHARD_DOWN with the breaker's cooldown as the hint.
        with pytest.raises(RetriesExhaustedError) as excinfo:
            await client.put(keys[DEAD][0], b"v")
        error = shard_down_error(excinfo)
        assert error.retry_after > 0
        breaker = cluster.router.breakers[DEAD]
        assert breaker.state == OPEN

        # Subsequent ops fail fast off the open breaker — no network
        # attempt, so the shard client's retry counter stays put.
        retries_before = cluster.router.shard_retries()
        for key in keys[DEAD][1:]:
            with pytest.raises(RetriesExhaustedError) as excinfo:
                await client.put(key, b"v")
            shard_down_error(excinfo)
        with pytest.raises(RetriesExhaustedError) as excinfo:
            await client.get(keys[DEAD][0])
        shard_down_error(excinfo)
        assert cluster.router.shard_retries() == retries_before
        assert cluster.router.metrics.shard_down_rejections.value >= 3
        assert cluster.router.shard_health() == {
            "0": "open", "1": "closed", "2": "closed",
        }

    run_cluster_scenario(tmp_path, scenario)


def test_surviving_shards_keep_serving(tmp_path):
    async def scenario(cluster, client, clock):
        keys = keys_by_shard(cluster)
        await cluster.kill_shard(DEAD)
        with pytest.raises(RetriesExhaustedError):
            await client.put(keys[DEAD][0], b"v")  # trips the breaker
        for shard in range(SHARDS):
            if shard == DEAD:
                continue
            for key in keys[shard]:
                await client.put(key, b"alive-" + key)
            for key in keys[shard]:
                assert await client.get(key) == b"alive-" + key

    run_cluster_scenario(tmp_path, scenario)


def test_scan_degrades_honestly_while_a_shard_is_down(tmp_path):
    async def scenario(cluster, client, clock):
        keys = keys_by_shard(cluster)
        for shard in range(SHARDS):
            for key in keys[shard]:
                await client.put(key, b"v-" + key)
        await cluster.kill_shard(DEAD)
        with pytest.raises(RetriesExhaustedError):
            await client.put(keys[DEAD][0], b"x")  # trips the breaker

        scan = await client.scan_detailed()
        assert scan["degraded"]
        assert scan["missing_shards"] == [DEAD]
        survivors = {
            key for shard in range(SHARDS) if shard != DEAD
            for key in keys[shard]
        }
        assert {key for key, _ in scan["items"]} == survivors
        assert cluster.router.metrics.degraded_scans.value >= 1

        # A healthy-cluster scan is not marked degraded.
        await cluster.restore_shard(DEAD)
        clock.advance(3600.0)
        healthy = await client.scan_detailed()
        assert not healthy["degraded"]
        assert healthy["missing_shards"] == []
        assert len(healthy["items"]) == SHARDS * 4

    run_cluster_scenario(tmp_path, scenario)


def test_breaker_recloses_after_restore_and_no_acked_write_is_lost(
    tmp_path,
):
    async def scenario(cluster, client, clock):
        keys = keys_by_shard(cluster)
        acked = {}

        async def put(key, value):
            await client.put(key, value)
            acked[key] = value

        for shard in range(SHARDS):
            await put(keys[shard][0], b"before-" + keys[shard][0])

        await cluster.kill_shard(DEAD)
        with pytest.raises(RetriesExhaustedError):
            await client.put(keys[DEAD][1], b"lost-attempt")
        breaker = cluster.router.breakers[DEAD]
        assert breaker.state == OPEN

        # Restoring the backend alone is not enough: the breaker stays
        # open until its cooldown lapses (fake time, no real sleep).
        await cluster.restore_shard(DEAD)
        with pytest.raises(RetriesExhaustedError) as excinfo:
            await client.put(keys[DEAD][1], b"still-blocked")
        shard_down_error(excinfo)

        clock.advance(3600.0)
        assert breaker.state == HALF_OPEN
        # The next request is the probe; its success re-closes.
        await put(keys[DEAD][1], b"after-" + keys[DEAD][1])
        assert breaker.state == CLOSED
        assert breaker.transitions == [
            (CLOSED, OPEN), (OPEN, HALF_OPEN), (HALF_OPEN, CLOSED),
        ]

        # Full service resumed, and nothing acked was lost: the write
        # that died mid-outage was never acknowledged, everything that
        # was acknowledged reads back.
        for shard in range(SHARDS):
            await put(keys[shard][2], b"resumed-" + keys[shard][2])
        for key, value in acked.items():
            assert await client.get(key) == value
        assert cluster.router.shard_health() == {
            "0": "closed", "1": "closed", "2": "closed",
        }

    run_cluster_scenario(tmp_path, scenario)


def test_batch_spanning_a_dead_shard_is_rejected_whole(tmp_path):
    async def scenario(cluster, client, clock):
        keys = keys_by_shard(cluster)
        await cluster.kill_shard(DEAD)
        with pytest.raises(RetriesExhaustedError):
            await client.put(keys[DEAD][0], b"x")  # trips the breaker

        spanning = [
            (keys[shard][3], b"batch") for shard in range(SHARDS)
        ]
        with pytest.raises(RetriesExhaustedError) as excinfo:
            await client.batch(spanning)
        shard_down_error(excinfo)
        # All-or-nothing: no surviving shard applied its sub-batch.
        for shard in range(1, SHARDS):
            assert await client.get(keys[shard][3]) is None

    run_cluster_scenario(tmp_path, scenario)


def test_a_restored_shard_carries_its_counters_on(tmp_path):
    """Regression: the server ``restore_shard`` builds counted from 0
    over the old store's registry, so the shard answered METRICS with
    INTERNAL ("cannot move backwards") and the router's roll-up dropped
    it. The counters live in that registry and carry on."""

    def shard_requests(snapshot):
        return sum(
            entry["value"]
            for entry in snapshot["counters"]
            if entry["name"] == "server_requests_total"
            and entry["labels"].get("tier") == "shard"
            and entry["labels"].get("shard") == str(DEAD)
        )

    async def scenario(cluster, client, clock):
        keys = keys_by_shard(cluster)
        for round_ in range(3):
            for key in keys[DEAD]:
                await client.put(key, b"before-%d" % round_)
        before = shard_requests(await client.metrics())
        await cluster.kill_shard(DEAD)
        await cluster.restore_shard(DEAD)
        for key in keys[DEAD]:
            await client.put(key, b"after")
        async with KVClient(*cluster.backends[DEAD].address) as direct:
            assert (await direct.metrics())["counters"]
        after = shard_requests(await client.metrics())
        return before, after

    before, after = run_cluster_scenario(tmp_path, scenario)
    assert before >= 12
    assert after >= before + 4
