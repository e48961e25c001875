"""Behavioural tests of the fluid LSM simulator."""

import pytest

from repro.core import (
    FairScheduler,
    GlobalComponentConstraint,
    GreedyScheduler,
    LevelingPolicy,
    SingleThreadedScheduler,
    TieringPolicy,
    UidAllocator,
    model,
)
from repro.errors import ConfigurationError, SimulationError
from repro.sim import (
    SimulatedLSMTree,
    loaded_layout_tree,
)
from repro.workloads import (
    BurstPhase,
    BurstyArrivals,
    ClosedArrivals,
    ConstantArrivals,
)


def tiering_tree(config, keyspace, scheduler=None, arrivals=None, limit=None):
    levels = model.levels_for_tiering(
        config.total_keys, config.memory_component_entries, 3
    )
    policy = TieringPolicy(3, levels)
    limit = limit or model.default_component_limit(policy.expected_components())
    initial = loaded_layout_tree(policy, keyspace, config, UidAllocator())
    return SimulatedLSMTree(
        config=config,
        policy=policy,
        scheduler=scheduler or FairScheduler(),
        constraint=GlobalComponentConstraint(limit),
        keyspace=keyspace,
        arrivals=arrivals or ClosedArrivals(),
        initial_components=initial,
    )


def leveling_tree(config, keyspace, scheduler=None, arrivals=None):
    levels = model.levels_for_leveling(
        config.total_keys, config.memory_component_entries, 10
    )
    policy = LevelingPolicy(10, levels, config.memory_component_bytes)
    initial = loaded_layout_tree(policy, keyspace, config, UidAllocator())
    return SimulatedLSMTree(
        config=config,
        policy=policy,
        scheduler=scheduler or FairScheduler(),
        constraint=GlobalComponentConstraint(
            model.default_component_limit(policy.expected_components())
        ),
        keyspace=keyspace,
        arrivals=arrivals or ClosedArrivals(),
        initial_components=initial,
    )


class TestClosedSystem:
    def test_throughput_close_to_analytic_model(self, config):
        # With flush I/O excluded and a keyspace so sparse that updates
        # essentially never collide (no reclamation), the simulator must
        # track the closed-form W = B/L.
        from repro.workloads import KeyspaceModel, UniformKeys

        pure = config.with_(flush_costs_io=False)
        levels = model.levels_for_tiering(
            pure.total_keys, pure.memory_component_entries, 3
        )
        sparse = KeyspaceModel(UniformKeys(pure.total_keys * 500))
        tree = tiering_tree(pure, sparse)
        result = tree.run(3600)
        measured = result.measured_throughput(exclude_initial=600)
        predicted = model.max_write_throughput_tiering(
            pure.bandwidth_entries_per_s, levels
        )
        # The closed form assumes every entry flows through all L levels;
        # a finite run only pushes entries partway down, so the measured
        # throughput brackets the prediction from above but must stay
        # within a small multiple of it (each entry is written several
        # times), and the realized write amplification must be meaningful.
        assert predicted * 0.8 <= measured <= predicted * 2.0
        amplification = result.io_activity.total() / (
            result.total_writes * pure.entry_bytes
        )
        assert 2.0 <= amplification <= levels + 1

    def test_reclamation_raises_throughput_above_model(
        self, config, uniform_keyspace
    ):
        # With a realistic keyspace, updates collide and merges reclaim,
        # so measured throughput must sit at or above the no-reclamation
        # closed form (which charges every entry a write per level).
        pure = config.with_(flush_costs_io=False)
        result = tiering_tree(pure, uniform_keyspace).run(3600)
        levels = model.levels_for_tiering(
            pure.total_keys, pure.memory_component_entries, 3
        )
        predicted = model.max_write_throughput_tiering(
            pure.bandwidth_entries_per_s, levels
        )
        assert result.measured_throughput(600) >= 0.9 * predicted

    def test_component_constraint_respected_modulo_inflight(
        self, config, uniform_keyspace
    ):
        tree = tiering_tree(config, uniform_keyspace, limit=20)
        result = tree.run(1800)
        # flushes already sealed may land after the stall begins, so the
        # count can exceed the limit by at most the memory components
        assert result.components.maximum() <= 20 + config.num_memory_components

    def test_closed_run_has_no_latency_metric(self, config, uniform_keyspace):
        result = tiering_tree(config, uniform_keyspace).run(600)
        assert result.closed_system
        with pytest.raises(ConfigurationError):
            result.write_latencies()

    def test_merges_actually_happen(self, config, uniform_keyspace):
        result = tiering_tree(config, uniform_keyspace).run(1800)
        assert len(result.merge_log) > 5
        assert all(record.output_bytes > 0 for record in result.merge_log)

    def test_io_activity_recorded(self, config, uniform_keyspace):
        result = tiering_tree(config, uniform_keyspace).run(600)
        assert result.io_activity.total() > 0


class TestOpenSystem:
    def test_low_rate_runs_stall_free_with_small_latency(
        self, config, uniform_keyspace
    ):
        tree = tiering_tree(config, uniform_keyspace, arrivals=ConstantArrivals(5.0))
        result = tree.run(1800)
        assert result.stall_count() == 0
        assert result.write_latency_profile((99.0,))[99.0] < 0.1

    def test_overload_grows_queue(self, config, uniform_keyspace):
        # arrival far above capacity: the queue must blow up
        tree = tiering_tree(
            config, uniform_keyspace, arrivals=ConstantArrivals(500.0)
        )
        result = tree.run(1800)
        assert result.final_queue_length > 1000

    def test_total_writes_conserved(self, config, uniform_keyspace):
        rate = 10.0
        tree = tiering_tree(config, uniform_keyspace, arrivals=ConstantArrivals(rate))
        result = tree.run(1800)
        arrived = result.arrivals.final_total
        departed = result.departures.final_total
        assert arrived == pytest.approx(rate * 1800, rel=0.01)
        assert departed <= arrived + 1e-6
        assert departed + result.final_queue_length == pytest.approx(
            arrived, rel=1e-6
        )

    def test_bursty_arrivals_tracked(self, config, uniform_keyspace):
        arrivals = BurstyArrivals([BurstPhase(300.0, 5.0), BurstPhase(60.0, 20.0)])
        tree = tiering_tree(config, uniform_keyspace, arrivals=arrivals)
        result = tree.run(1800)
        series = result.throughput_series()
        assert series.max() > 1.5 * series[1]  # bursts visible in throughput


class TestSchedulerEffects:
    def test_greedy_keeps_fewer_components_than_fair(
        self, config, uniform_keyspace
    ):
        rate = None
        results = {}
        for name, scheduler in (
            ("fair", FairScheduler()),
            ("greedy", GreedyScheduler()),
        ):
            testing = tiering_tree(config, uniform_keyspace)
            if rate is None:
                rate = 0.9 * testing.run(1800).measured_throughput(300)
            tree = tiering_tree(
                config,
                uniform_keyspace,
                scheduler=scheduler,
                arrivals=ConstantArrivals(rate),
            )
            results[name] = tree.run(1800)
        fair_avg = results["fair"].components.time_average(300, 1800)
        greedy_avg = results["greedy"].components.time_average(300, 1800)
        assert greedy_avg <= fair_avg + 1e-6

    def test_single_threaded_stalls_on_leveling(self, config, uniform_keyspace):
        testing = leveling_tree(config, uniform_keyspace)
        max_throughput = testing.run(1800).measured_throughput(300)
        tree = leveling_tree(
            config,
            uniform_keyspace,
            scheduler=SingleThreadedScheduler(),
            arrivals=ConstantArrivals(0.95 * max_throughput),
        )
        result = tree.run(3600)
        assert result.stall_time > 60.0


class TestInvariants:
    def test_clock_advances(self, config, uniform_keyspace):
        tree = tiering_tree(config, uniform_keyspace)
        tree.run(100)
        assert tree.clock == pytest.approx(100.0)

    def test_zero_duration_rejected(self, config, uniform_keyspace):
        with pytest.raises(SimulationError):
            tiering_tree(config, uniform_keyspace).run(0)

    def test_event_cap_enforced(self, config, uniform_keyspace):
        tight = config.with_(max_events=1000)
        with pytest.raises(SimulationError):
            tiering_tree(tight, uniform_keyspace).run(36000)

    def test_component_sizes_positive(self, config, uniform_keyspace):
        tree = tiering_tree(config, uniform_keyspace)
        tree.run(1200)
        for level, components in tree.levels_view().items():
            for component in components:
                assert component.size_bytes > 0
                assert component.level == level

    def test_unique_entries_bounded_by_keyspace(self, config, uniform_keyspace):
        tree = tiering_tree(config, uniform_keyspace)
        tree.run(1800)
        # obsolete versions may coexist across components, but no single
        # component exceeds the keyspace
        for components in tree.levels_view().values():
            for c in components:
                assert c.entry_count <= config.total_keys * 1.001


class TestZipfReclamation:
    def test_zipf_throughput_at_least_uniform(
        self, config, uniform_keyspace, zipf_keyspace
    ):
        uniform_result = tiering_tree(config, uniform_keyspace).run(2400)
        zipf_tree = tiering_tree(config, zipf_keyspace)
        zipf_result = zipf_tree.run(2400)
        # Zipf updates reclaim more per merge -> higher write throughput
        # (Section 4.2 observes exactly this for bLSM)
        assert zipf_result.measured_throughput(600) >= (
            0.95 * uniform_result.measured_throughput(600)
        )
