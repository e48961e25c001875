"""Controller tests: fake stores, fake clock, fully deterministic."""

import pytest

from repro.engine import StoreStats
from repro.errors import ConfigurationError
from repro.memory import MemoryArbiter, MemoryBudget
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

    def __init__(self) -> None:
        self.applied: list[tuple[int, int]] = []
        self.ingested_bytes = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.row_hits = 0
        self.write_stalls = 0
        self.memory_fill = 0.0

    def set_memory_budget(self, memtable_bytes: int, cache_bytes: int):
        self.applied.append((memtable_bytes, cache_bytes))

    def stats(self) -> StoreStats:
        # StoreStats derives memory_fill as sealed / (num_memtables - 1).
        return StoreStats(
            memtable_entries=0,
            memtable_bytes=0,
            sealed_memtables=round(self.memory_fill * 100),
            num_memtables=101,
            disk_components=0,
            components_per_level={},
            merges_completed=0,
            write_stalls=self.write_stalls,
            stall_seconds_total=0.0,
            wal_bytes=0,
            write_stalled=False,
            write_headroom=1.0,
            throttle_sleep_seconds=0.0,
            block_cache_hit_rate=0.0,
            block_cache_used_bytes=0,
            row_hits=self.row_hits,
            ingested_bytes=self.ingested_bytes,
            cache_hits=self.cache_hits,
            cache_misses=self.cache_misses,
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

    def test_apply_initial_false_defers(self):
        stores = [FakeStore()]
        MemoryArbiter(
            MemoryBudget(2**20, 1),
            stores,
            clock=FakeClock(),
            apply_initial=False,
        )
        assert stores[0].applied == []

    def test_target_count_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            MemoryArbiter(
                MemoryBudget(2**20, 2), [FakeStore()], clock=FakeClock()
            )


class TestWriteReadSplit:
    def test_write_stalls_pull_bytes_toward_memtables(self):
        arbiter, stores, _ = make_arbiter(num_shards=1)
        before = arbiter.shares.memtable_bytes[0]
        stores[0].write_stalls = 3
        stores[0].memory_fill = 1.0
        stores[0].ingested_bytes = 10_000_000
        decision = arbiter.tick()
        assert decision.applied
        assert decision.reason == "write_stalls"
        assert decision.write_pressure > decision.read_pressure
        assert arbiter.shares.memtable_bytes[0] > before

    def test_cache_misses_pull_bytes_toward_cache(self):
        arbiter, stores, _ = make_arbiter(num_shards=1)
        before = arbiter.shares.cache_bytes[0]
        stores[0].cache_misses = 5000
        stores[0].cache_hits = 100
        decision = arbiter.tick()
        assert decision.applied
        assert decision.read_pressure > decision.write_pressure
        assert arbiter.shares.cache_bytes[0] > before

    def test_deadband_suppresses_noise(self):
        arbiter, stores, _ = make_arbiter(num_shards=1, deadband=0.2)
        stores[0].memory_fill = 0.1  # below the deadband
        decision = arbiter.tick()
        assert arbiter.write_fraction == 0.5
        assert decision.reason in ("steady", "share_drift")

    def test_fraction_never_leaves_clamp_band(self):
        arbiter, stores, _ = make_arbiter(num_shards=1, step_fraction=0.5)
        for _ in range(20):
            stores[0].write_stalls += 10
            stores[0].memory_fill = 1.0
            stores[0].ingested_bytes += 1_000_000
            arbiter.tick()
        assert arbiter.write_fraction <= arbiter.budget.max_write_fraction
        for _ in range(40):
            stores[0].cache_misses += 10_000
            stores[0].memory_fill = 0.0
            arbiter.tick()
        assert arbiter.write_fraction >= arbiter.budget.min_write_fraction


class TestPerShardShares:
    def test_hot_read_shard_gains_cache(self):
        arbiter, stores, _ = make_arbiter(num_shards=2)
        for _ in range(6):
            stores[0].cache_hits += 10_000
            arbiter.tick()
        shares = arbiter.shares
        assert shares.cache_bytes[0] > shares.cache_bytes[1]

    def test_a_shard_served_by_rows_is_not_idle(self):
        """Gets a cached row answers look up no block; the shard they
        hit is still the busy reader and keeps gaining cache."""
        arbiter, stores, _ = make_arbiter(num_shards=2)
        for _ in range(6):
            stores[0].row_hits += 10_000
            arbiter.tick()
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
                stores[(step + 1) % 3].cache_misses += 1000
                arbiter.tick()
                trace.append(arbiter.shares)
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
        stores[0].write_stalls = 1
        stores[0].memory_fill = 1.0
        stores[0].ingested_bytes = 1_000_000
        arbiter.tick()
        events = [
            event
            for event in obs.tracer.events()
            if event.kind == MEMORY_REBALANCE
        ]
        assert events
        fields = events[-1].fields
        assert fields["reason"] == "write_stalls"
        assert len(fields["memtable_bytes_before"]) == 2
        assert len(fields["memtable_bytes_after"]) == 2
        assert (
            fields["write_fraction_after"]
            > fields["write_fraction_before"]
        )

    def test_gauges_and_counters_published(self):
        obs = Observability(clock=FakeClock())
        arbiter, stores, _ = make_arbiter(num_shards=1, obs=obs)
        stores[0].cache_misses = 1000
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
        assert second.reason == "steady"
        assert not second.applied
        rebalances = [
            event
            for event in obs.tracer.events()
            if event.kind == MEMORY_REBALANCE
        ]
        # Only the first tick (weights settling from their priors) may
        # have moved shares; a quiet steady state emits nothing new.
        assert len(rebalances) <= (1 if first.applied else 0)


class TestValidation:
    def test_bad_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            make_arbiter(interval=0.0)

    def test_bad_step_rejected(self):
        with pytest.raises(ConfigurationError):
            make_arbiter(step_fraction=0.0)

    def test_bad_smoothing_rejected(self):
        with pytest.raises(ConfigurationError):
            make_arbiter(smoothing=0.0)
