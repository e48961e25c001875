"""End-to-end service tests: real engine, real TCP, real admission.

The centrepiece reproduces the paper's stop-vs-slow-down comparison at
the serving layer: the same seeded closed-loop overload is played
against ``stop`` and ``gradual`` admission over an engine whose
maintenance workers run behind the paper's fixed I/O throttle
(``rate_limit_bytes_per_s``, scaled down) below the ingest rate, and
gradual must deliver strictly lower P99 client write latency. The
margin between the modes is structural — stop's tail contains at least
one client backoff of >= 50ms per stall, gradual's only 10ms server
pauses.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.engine import LSMStore, StoreOptions
from repro.harness import WireTarget, two_phase
from repro.server.admission import build_admission
from repro.server.client import KVClient
from repro.server.loadgen import closed_loop
from repro.server.service import KVServer

#: Small, deterministic engine for functional round-trips.
FUNCTIONAL_OPTIONS = StoreOptions(
    memtable_bytes=4096,
    num_memtables=2,
    policy="tiering",
    size_ratio=3,
    levels=2,
    background_maintenance=False,
)

#: Overload engine: ingestion outruns the workers' throttled flush +
#: merge bandwidth, so the component constraint produces genuine
#: transient write stalls. The limit obeys ``>= 2L + 1``, so a violated
#: constraint always implies mergeable work and every stall is
#: clearable.
OVERLOAD_OPTIONS = StoreOptions(
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

OVERLOAD_CLIENT = dict(
    timeout=5.0, max_retries=25, backoff_base=0.05, backoff_max=0.1
)


# -- functional round-trips ----------------------------------------------


def test_all_verbs_round_trip_over_tcp(tmp_path):
    async def scenario():
        store = LSMStore.open(str(tmp_path), FUNCTIONAL_OPTIONS)
        try:
            async with KVServer(store) as server:
                host, port = server.address
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
                    bounded = await client.scan(lo=b"g", limit=1)
                    assert bounded == [(b"gamma", b"3")]

                    stats = await client.stats()
                    assert stats["admission_mode"] == "none"
                    assert stats["engine"]["memtable_entries"] >= 1
                    assert stats["server"]["requests_total"] >= 10
                    assert stats["server"]["writes_admitted"] >= 4
        finally:
            store.close()

    asyncio.run(scenario())


def _block_lookups(store):
    stats = store.stats()
    return stats.cache_hits + stats.cache_misses


def test_scan_limit_zero_over_tcp_returns_nothing_and_reads_no_block(tmp_path):
    """Regression: ``limit=0`` used to come back with one row (the
    limit was checked after the append)."""

    async def scenario():
        store = LSMStore.open(str(tmp_path), FUNCTIONAL_OPTIONS)
        try:
            for index in range(200):
                store.put(b"key-%04d" % index, b"v" * 40)
            store.flush()
            async with KVServer(store) as server:
                host, port = server.address
                async with KVClient(host, port) as client:
                    before = _block_lookups(store)
                    assert await client.scan(limit=0) == []
                    assert await client.scan(lo=b"key-0007", limit=0) == []
                    assert _block_lookups(store) == before
                    assert len(await client.scan(limit=1)) == 1
                    assert _block_lookups(store) > before
        finally:
            store.close()

    asyncio.run(scenario())


def test_data_served_over_tcp_survives_reopen(tmp_path):
    async def write_phase():
        store = LSMStore.open(str(tmp_path), FUNCTIONAL_OPTIONS)
        try:
            async with KVServer(store) as server:
                host, port = server.address
                async with KVClient(host, port) as client:
                    for index in range(64):
                        await client.put(
                            f"key-{index:04d}".encode(), b"x" * 64
                        )
        finally:
            store.close()

    asyncio.run(write_phase())
    with LSMStore.open(str(tmp_path), FUNCTIONAL_OPTIONS) as reopened:
        assert reopened.get(b"key-0000") == b"x" * 64
        assert reopened.get(b"key-0063") == b"x" * 64


# -- admission modes under load ------------------------------------------


async def _run_overload(tmp_path, mode, ops=300, **admission_params):
    store = LSMStore.open(str(tmp_path), OVERLOAD_OPTIONS)
    try:
        admission = build_admission(mode, **admission_params)
        server = KVServer(store, admission, write_deadline=10.0)
        async with server:
            host, port = server.address
            result = await closed_loop(
                host,
                port,
                clients=1,
                ops_per_client=ops,
                value_bytes=512,
                keyspace=512,
                seed=7,
                label=mode,
                client_options=dict(OVERLOAD_CLIENT),
            )
        return result, store.stats(), server.metrics.snapshot()
    finally:
        store.close()


def test_every_admission_mode_completes_the_overload(tmp_path):
    async def scenario():
        outcomes = {}
        for mode, params in (
            ("none", {}),
            ("limit", dict(rate_bytes_per_s=4 * 2**20)),
        ):
            result, _, _ = await _run_overload(
                tmp_path / mode, mode, ops=150, **params
            )
            outcomes[mode] = result
        return outcomes

    outcomes = asyncio.run(scenario())
    for mode, result in outcomes.items():
        assert result.error_count == 0, mode
        assert result.op_count == 150, mode


def test_gradual_beats_stop_on_p99_under_overload(tmp_path):
    """The acceptance experiment: same overload, stop vs gradual.

    Mirrors the paper's finding that graceful slow-down trades a small
    median penalty for a dramatically better tail than stop-the-world.
    """

    async def scenario():
        stop = await _run_overload(
            tmp_path / "stop", "stop", retry_after=0.05
        )
        gradual = await _run_overload(
            tmp_path / "gradual",
            "gradual",
            rate_bytes_per_s=OVERLOAD_OPTIONS.rate_limit_bytes_per_s,
            retry_after=0.01,
            threshold=0.5,
        )
        return stop, gradual

    (stop, stop_stats, stop_metrics), (
        gradual,
        gradual_stats,
        gradual_metrics,
    ) = asyncio.run(scenario())

    # Both modes must complete the workload without losing writes.
    assert stop.error_count == 0
    assert gradual.error_count == 0
    assert stop.op_count == gradual.op_count == 300

    # The overload must have produced real backpressure in both runs:
    # stop rejected writes at admission; gradual absorbed engine stalls.
    assert stop_metrics["writes_rejected"] > 0
    assert stop.stalled_responses > 0
    assert gradual_metrics["writes_delayed"] > 0
    assert (
        gradual_metrics["stalls_absorbed"] + gradual_stats.write_stalls > 0
    )
    assert gradual_metrics["writes_rejected"] == 0
    assert gradual.retries == 0  # clients never even saw the stalls

    # The paper's result at the serving layer: graceful slow-down yields
    # strictly lower tail latency than stop (observed margin ~4x).
    gradual_profile = gradual.write_latency_profile((50.0, 99.0))
    stop_profile = stop.write_latency_profile((50.0, 99.0))
    assert gradual_profile[99.0] < stop_profile[99.0]
    # ...at the cost of a (bounded) median penalty from the ramp delays.
    assert gradual_profile[50.0] >= stop_profile[50.0]


# -- the two-phase methodology over the wire ------------------------------


def test_two_phase_network_methodology(tmp_path):
    async def scenario():
        store = LSMStore.open(str(tmp_path), FUNCTIONAL_OPTIONS)
        try:
            async with KVServer(store) as server:
                host, port = server.address
                target = WireTarget(host, port, ops=100, value_bytes=64)
                # two_phase runs its own loop; the server keeps this one.
                return await asyncio.to_thread(two_phase, target, 0.95)
        finally:
            store.close()

    outcome = asyncio.run(scenario())
    assert outcome.testing.op_count == 100
    assert outcome.running.op_count == 100
    assert outcome.max_write_throughput > 0
    assert outcome.arrival_rate == pytest.approx(
        0.95 * outcome.max_write_throughput
    )
    assert 0 < outcome.p99_write_latency < 5.0
    assert set(outcome.summary()) >= {"max_throughput", "p99", "stalls"}
