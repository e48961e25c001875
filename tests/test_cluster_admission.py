"""Tests for cluster stats rollups and global vs. local admission scope.

All on synthetic :class:`StoreStats` snapshots — the scope semantics are
pure routing logic, so no engines are needed: a "hot" snapshot reports
``write_stalled`` and the controllers must react only as far as the
scope allows.
"""

import pytest

from repro.cluster import (
    ClusterAdmission,
    aggregate_stats,
    build_cluster_admission,
    worst_case_stats,
)
from repro.engine.datastore import StoreStats
from repro.errors import ConfigurationError
from repro.server.admission import (
    ADMIT,
    DELAY,
    REJECT,
    LimitAdmission,
    StopAdmission,
)


def snap(
    stalled=False,
    headroom=1.0,
    sealed=0,
    num_memtables=2,
    entries=10,
    stalls=0,
):
    return StoreStats(
        memtable_entries=entries,
        memtable_bytes=entries * 100,
        sealed_memtables=sealed,
        num_memtables=num_memtables,
        disk_components=1,
        components_per_level={0: 1},
        merges_completed=0,
        write_stalls=stalls,
        stall_seconds_total=float(stalls),
        wal_bytes=entries * 100,
        write_stalled=stalled,
        write_headroom=headroom,
        throttle_sleep_seconds=0.0,
        block_cache_hit_rate=1.0,
        block_cache_used_bytes=0,
    )


HEALTHY = [snap(), snap(), snap(), snap()]
HOT_SHARD_1 = [snap(), snap(stalled=True, headroom=0.0, stalls=3), snap(), snap()]


class TestStatsRollups:
    def test_aggregate_counts_and_worst_signals(self):
        cluster = aggregate_stats(HOT_SHARD_1)
        assert cluster.num_shards == 4
        assert cluster.write_stalled
        assert cluster.stalled_shards == (1,)
        assert cluster.write_headroom == 0.0
        assert cluster.write_stalls == 3
        assert cluster.memtable_entries == 40

    def test_aggregate_healthy(self):
        cluster = aggregate_stats(HEALTHY)
        assert not cluster.write_stalled
        assert cluster.stalled_shards == ()

    def test_aggregate_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            aggregate_stats([])

    def test_worst_case_merges_backpressure(self):
        merged = worst_case_stats(HOT_SHARD_1)
        assert merged.write_stalled
        assert merged.write_headroom == 0.0
        assert merged.memtable_entries == 40  # counters still summed

    def test_worst_case_memory_fill_from_fullest_shard(self):
        snapshots = [snap(), snap(sealed=1, num_memtables=2)]
        merged = worst_case_stats(snapshots)
        assert merged.memory_fill == 1.0

    def test_worst_case_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            worst_case_stats([])

    def test_snapshot_is_json_shaped(self):
        view = aggregate_stats(HOT_SHARD_1).snapshot()
        assert view["cluster"]["stalled_shards"] == [1]
        assert len(view["shards"]) == 4
        assert view["shards"][1]["write_stalled"] is True


class TestGlobalScope:
    def test_one_stalled_shard_rejects_everything(self):
        admission = build_cluster_admission(
            "global", "stop", 4, retry_after=0.07
        )
        for shard in range(4):
            decision = admission.decide(shard, HOT_SHARD_1, 100)
            assert decision.action == REJECT
            assert decision.retry_after == pytest.approx(0.07)

    def test_healthy_cluster_admits(self):
        admission = build_cluster_admission("global", "stop", 4)
        for shard in range(4):
            assert admission.decide(shard, HEALTHY, 100).action == ADMIT

    def test_mode_labels(self):
        admission = build_cluster_admission("global", "stop", 4)
        assert admission.scope == "global"
        assert admission.base_mode == "stop"
        assert admission.mode == "global:stop"


class TestLocalScope:
    def test_only_the_stalled_shard_rejects(self):
        admission = build_cluster_admission("local", "stop", 4)
        assert admission.decide(1, HOT_SHARD_1, 100).action == REJECT
        for shard in (0, 2, 3):
            assert (
                admission.decide(shard, HOT_SHARD_1, 100).action == ADMIT
            )

    def test_gradual_delays_only_the_pressured_shard(self):
        admission = build_cluster_admission(
            "local", "gradual", 2, max_delay=0.02, threshold=0.5
        )
        snapshots = [snap(headroom=0.1), snap()]
        pressured = admission.decide(0, snapshots, 100)
        assert pressured.action == DELAY
        assert pressured.delay_seconds > 0.0
        assert admission.decide(1, snapshots, 100).action == ADMIT
        assert admission.stall_pause == pytest.approx(0.02)

    def test_limit_buckets_are_per_shard(self):
        controllers = [
            LimitAdmission(100.0, clock=lambda: 0.0) for _ in range(2)
        ]
        admission = ClusterAdmission("local", controllers)
        # drain shard 0's bucket; shard 1's bucket must be untouched
        assert admission.decide(0, HEALTHY[:2], 100).action == ADMIT
        assert admission.decide(0, HEALTHY[:2], 100).action == DELAY
        assert admission.decide(1, HEALTHY[:2], 100).action == ADMIT


class TestBatchDecisions:
    def test_batch_touching_hot_shard_takes_worst_decision(self):
        admission = build_cluster_admission("local", "stop", 4)
        decision = admission.decide_many({0: 50, 1: 50}, HOT_SHARD_1)
        assert decision.action == REJECT

    def test_batch_avoiding_hot_shard_admits_locally(self):
        admission = build_cluster_admission("local", "stop", 4)
        decision = admission.decide_many({0: 50, 2: 50}, HOT_SHARD_1)
        assert decision.action == ADMIT

    def test_batch_avoiding_hot_shard_rejects_globally(self):
        admission = build_cluster_admission("global", "stop", 4)
        decision = admission.decide_many({0: 50, 2: 50}, HOT_SHARD_1)
        assert decision.action == REJECT

    def test_longest_delay_wins(self):
        admission = build_cluster_admission(
            "local", "gradual", 2, max_delay=0.1, threshold=0.0
        )
        snapshots = [snap(headroom=0.4), snap(headroom=0.8)]
        decision = admission.decide_many({0: 10, 1: 10}, snapshots)
        assert decision.action == DELAY
        assert decision.delay_seconds == pytest.approx(
            admission.decide(0, snapshots, 10).delay_seconds
        )

    def test_empty_batch_rejected(self):
        admission = build_cluster_admission("local", "stop", 2)
        with pytest.raises(ConfigurationError):
            admission.decide_many({}, HEALTHY[:2])


class TestValidation:
    def test_unknown_scope(self):
        with pytest.raises(ConfigurationError):
            build_cluster_admission("galactic", "stop", 4)

    def test_zero_shards(self):
        with pytest.raises(ConfigurationError):
            build_cluster_admission("local", "stop", 0)

    def test_global_needs_exactly_one_controller(self):
        with pytest.raises(ConfigurationError):
            ClusterAdmission("global", [StopAdmission(), StopAdmission()])

    def test_no_controllers(self):
        with pytest.raises(ConfigurationError):
            ClusterAdmission("local", [])

    def test_mixed_modes_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterAdmission(
                "local", [StopAdmission(), LimitAdmission(100.0)]
            )

    def test_shard_out_of_range(self):
        admission = build_cluster_admission("local", "stop", 2)
        with pytest.raises(ConfigurationError):
            admission.decide(7, HEALTHY[:2], 10)
