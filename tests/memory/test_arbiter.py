"""Arbiter tests: fake stores, fake clock, fully deterministic."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import StoreStats
from repro.engine.blockcache import BlockCache
from repro.errors import ConfigurationError
from repro.memory import MIN_MEMTABLE_BYTES, MemoryArbiter, MemoryBudget
from repro.obs import MEMORY_REBALANCE, Observability


class FakeClock:
    def __init__(self, start: float = 0.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class FakeStore:
    """A scriptable memory target: signals in, applied budgets out."""

    options = SimpleNamespace(size_ratio=4)

    def __init__(self) -> None:
        self.applied: list[tuple[int, int]] = []
        self.ingested_bytes = 0
        self.ghost_hit_bytes = 0
        self.components_per_level = {0: 1}

    def set_memory_budget(self, memtable_bytes: int, cache_bytes: int):
        self.applied.append((memtable_bytes, cache_bytes))

    def stats(self) -> StoreStats:
        return StoreStats(
            memtable_entries=0,
            memtable_bytes=0,
            sealed_memtables=0,
            num_memtables=2,
            disk_components=sum(self.components_per_level.values()),
            components_per_level=dict(self.components_per_level),
            merges_completed=0,
            write_stalls=0,
            stall_seconds_total=0.0,
            wal_bytes=0,
            write_stalled=False,
            write_headroom=1.0,
            throttle_sleep_seconds=0.0,
            block_cache_used_bytes=0,
            ingested_bytes=self.ingested_bytes,
            ghost_hit_bytes=self.ghost_hit_bytes,
        )


def make_arbiter(num_shards=2, total=4 * 2**20, **kwargs):
    clock = kwargs.pop("clock", FakeClock())
    stores = [FakeStore() for _ in range(num_shards)]
    arbiter = MemoryArbiter(
        MemoryBudget(total, num_shards), stores, clock=clock, **kwargs
    )
    return arbiter, stores, clock


class TestInitialSplit:
    def test_equal_shares_applied_at_construction(self):
        arbiter, stores, _ = make_arbiter()
        for store in stores:
            assert len(store.applied) == 1
        memtables = [store.applied[0][0] for store in stores]
        caches = [store.applied[0][1] for store in stores]
        assert sum(memtables) + sum(caches) == 4 * 2**20
        assert max(memtables) - min(memtables) <= 1
        assert max(caches) - min(caches) <= 1

    def test_target_count_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            MemoryArbiter(
                MemoryBudget(2**20, 2), [FakeStore()], clock=FakeClock()
            )


class TestWriteReadSplit:
    def test_ingest_pulls_a_step_toward_memtables(self):
        arbiter, stores, _ = make_arbiter(num_shards=1)
        before = arbiter.shares.memtable_bytes[0]
        stores[0].ingested_bytes = 400_000
        decision = arbiter.tick()
        assert decision.applied
        assert decision.reason == "write_pressure"
        assert decision.memtable_savings[0] > decision.cache_savings[0]
        assert arbiter.shares.memtable_bytes[0] == (
            before + arbiter.budget.step_bytes
        )

    def test_cache_misses_pull_bytes_toward_cache(self):
        """Misses on entries the ghost list still held are the ones a
        larger cache would have served."""
        arbiter, stores, _ = make_arbiter(num_shards=1)
        before = arbiter.shares.cache_bytes[0]
        stores[0].ghost_hit_bytes = 50_000
        decision = arbiter.tick()
        assert decision.applied
        assert decision.reason == "read_pressure"
        assert decision.cache_savings[0] > decision.memtable_savings[0]
        assert arbiter.shares.cache_bytes[0] > before

    def test_the_larger_saving_per_byte_wins(self):
        arbiter, stores, _ = make_arbiter(num_shards=1)
        memtable = arbiter.shares.memtable_bytes[0]
        # One ghost-list's worth of hits saves 1 byte per cache byte;
        # the ingest below saves more than that per memtable byte.
        stores[0].ghost_hit_bytes = int(4 * 2**20 * 0.05)
        stores[0].ingested_bytes = 4 * memtable
        decision = arbiter.tick()
        assert decision.reason == "write_pressure"

    def test_writes_to_a_tree_with_no_component_save_nothing(self):
        arbiter, stores, _ = make_arbiter(num_shards=1)
        stores[0].components_per_level = {}
        stores[0].ingested_bytes = 10_000_000
        decision = arbiter.tick()
        assert decision.memtable_savings == (0.0,)
        assert not decision.applied

    def test_the_memtable_floor_holds(self):
        arbiter, stores, _ = make_arbiter(num_shards=1)
        for _ in range(40):
            stores[0].ghost_hit_bytes += 1_000_000
            arbiter.tick()
        assert arbiter.shares.memtable_bytes == (MIN_MEMTABLE_BYTES,)
        assert arbiter.shares.total_bytes == 4 * 2**20


class TestPerShardShares:
    def test_hot_read_shard_gains_cache(self):
        arbiter, stores, _ = make_arbiter(num_shards=2)
        for _ in range(6):
            stores[0].ghost_hit_bytes += 100_000
            arbiter.tick()
        shares = arbiter.shares
        assert shares.cache_bytes[0] > shares.cache_bytes[1]

    def test_a_shard_served_by_rows_is_not_idle(self):
        """A shard whose gets a cached row answers, and whose evicted
        rows are asked for again, counts those rows' bytes as ghost hits
        and keeps gaining cache."""
        arbiter, stores, _ = make_arbiter(num_shards=2)
        cache = BlockCache(4096, ghost_bytes=4096)
        keys = [b"k%03d" % index for index in range(20)]
        for _ in range(6):
            for key in keys:
                if not cache.get(key)[0]:
                    cache.put_row(key, b"v" * 100, cache.epoch)
            stores[0].ghost_hit_bytes = cache.ghost_hit_bytes
            arbiter.tick()
        assert cache.ghost_hit_bytes > 0
        shares = arbiter.shares
        assert shares.cache_bytes[0] > shares.cache_bytes[1]

    def test_write_heavy_shard_gains_memtable(self):
        arbiter, stores, _ = make_arbiter(num_shards=2)
        for _ in range(6):
            stores[0].ingested_bytes += 1_000_000
            arbiter.tick()
        shares = arbiter.shares
        assert shares.memtable_bytes[0] > shares.memtable_bytes[1]
        # The budget is conserved through every move.
        assert shares.total_bytes == 4 * 2**20

    def test_idle_shard_recovers_when_traffic_returns(self):
        arbiter, stores, _ = make_arbiter(num_shards=2)
        for _ in range(6):
            stores[0].ingested_bytes += 1_000_000
            arbiter.tick()
        skewed = arbiter.shares.memtable_bytes[1]
        for _ in range(10):
            stores[1].ingested_bytes += 1_000_000
            arbiter.tick()
        assert arbiter.shares.memtable_bytes[1] > skewed


class TestDeterminism:
    def test_identical_signal_sequences_give_identical_shares(self):
        def run():
            arbiter, stores, _ = make_arbiter(num_shards=3)
            trace = []
            for step in range(12):
                stores[step % 3].ingested_bytes += 500_000 * (step + 1)
                stores[(step + 1) % 3].ghost_hit_bytes += 40_000 * step
                arbiter.tick()
                trace.append(arbiter.shares)
            return trace

        assert run() == run()


#: One window of one shard: (ingested bytes, ghost-hit bytes, levels).
WINDOW = st.tuples(
    st.integers(0, 8 * 2**20),
    st.integers(0, 2**20),
    st.integers(0, 4),
)


class TestRuleProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        num_shards=st.integers(1, 4),
        total=st.integers(2**20, 16 * 2**20),
        windows=st.lists(st.lists(WINDOW, min_size=4, max_size=4),
                         max_size=30),
    )
    def test_random_signals_keep_every_invariant(
        self, num_shards, total, windows
    ):
        def run():
            arbiter, stores, _ = make_arbiter(num_shards, total)
            trace = []
            for window in windows:
                for store, (ingested, ghost, levels) in zip(stores, window):
                    store.ingested_bytes += ingested
                    store.ghost_hit_bytes += ghost
                    store.components_per_level = {
                        level: 1 for level in range(levels)
                    }
                before = arbiter.shares
                decision = arbiter.tick()
                shares = arbiter.shares
                assert shares.total_bytes == total
                assert min(shares.memtable_bytes) >= MIN_MEMTABLE_BYTES
                assert min(shares.cache_bytes) >= 0
                if not any(
                    ingested or ghost
                    for ingested, ghost, _ in window[:num_shards]
                ):
                    assert shares == before and not decision.applied
                # What each store was last told is what the arbiter holds.
                for shard, store in enumerate(stores):
                    assert store.applied[-1] == (
                        shares.memtable_bytes[shard],
                        shares.cache_bytes[shard],
                    )
                trace.append(shares)
            return trace

        assert run() == run()


class TestTickGating:
    def test_maybe_tick_waits_for_interval(self):
        clock = FakeClock()
        arbiter, stores, clock = make_arbiter(clock=clock, interval=5.0)
        assert arbiter.maybe_tick() is None
        clock.advance(4.9)
        assert arbiter.maybe_tick() is None
        clock.advance(0.2)
        assert arbiter.maybe_tick() is not None
        # The deadline rearms from the tick that fired.
        assert arbiter.maybe_tick() is None

    def test_forced_tick_rearms_deadline(self):
        clock = FakeClock()
        arbiter, _, clock = make_arbiter(clock=clock, interval=5.0)
        clock.advance(10.0)
        arbiter.tick()
        assert arbiter.maybe_tick() is None


class TestObservability:
    def test_rebalance_event_carries_before_and_after(self):
        obs = Observability(clock=FakeClock())
        arbiter, stores, _ = make_arbiter(num_shards=2, obs=obs)
        stores[0].ingested_bytes = 1_000_000
        arbiter.tick()
        events = [
            event
            for event in obs.tracer.events()
            if event.kind == MEMORY_REBALANCE
        ]
        assert events
        fields = events[-1].fields
        assert fields["reason"] == "write_pressure"
        assert (fields["to_shard"], fields["to_side"]) == (0, "memtable")
        assert fields["moved_bytes"] == arbiter.budget.step_bytes
        assert fields["saving_to"] > fields["saving_from"]
        assert len(fields["memtable_bytes_before"]) == 2
        assert len(fields["memtable_bytes_after"]) == 2
        assert (
            fields["write_fraction_after"]
            > fields["write_fraction_before"]
        )

    def test_gauges_and_counters_published(self):
        obs = Observability(clock=FakeClock())
        arbiter, stores, _ = make_arbiter(num_shards=1, obs=obs)
        stores[0].ghost_hit_bytes = 100_000
        arbiter.tick()
        snapshot = obs.registry.snapshot()
        gauges = {series["name"] for series in snapshot["gauges"]}
        counters = {series["name"] for series in snapshot["counters"]}
        assert "memory_budget_total_bytes" in gauges
        assert "memory_write_fraction" in gauges
        assert "memory_arbiter_ticks_total" in counters
        assert "memory_rebalances_total" in counters

    def test_steady_state_emits_no_event(self):
        obs = Observability(clock=FakeClock())
        arbiter, _, _ = make_arbiter(num_shards=2, obs=obs)
        first = arbiter.tick()
        second = arbiter.tick()
        assert not first.applied
        assert second.reason == "steady"
        assert not second.applied
        assert not [
            event
            for event in obs.tracer.events()
            if event.kind == MEMORY_REBALANCE
        ]


class TestValidation:
    def test_bad_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            make_arbiter(interval=0.0)
