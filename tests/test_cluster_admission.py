"""Tests for cluster stats rollups and global vs. local admission scope.

All on synthetic :class:`StoreStats` snapshots — the scope semantics are
pure routing logic, so no engines are needed: a "hot" snapshot reports
no headroom and the adapters must react only as far as the scope allows.
"""

import pytest

from repro.cluster import SCOPES, ClusterAdmission, ClusterRouter, aggregate_stats
from repro.engine.datastore import StoreStats
from repro.errors import ConfigurationError
from repro.server.admission import ADMIT, DELAY, REJECT


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

    def test_snapshot_is_json_shaped(self):
        view = aggregate_stats(HOT_SHARD_1).snapshot()
        assert view["cluster"]["stalled_shards"] == [1]
        assert len(view["shards"]) == 4
        assert view["shards"][1]["write_stalled"] is True


class TestGlobalScope:
    def test_one_stalled_shard_rejects_everything(self):
        admission = ClusterAdmission(
            "global", "stop", 4, retry_after=0.07
        )
        for shard in range(4):
            decision = admission.decide(shard, HOT_SHARD_1, 100)
            assert decision.action == REJECT
            assert decision.retry_after == pytest.approx(0.07)

    def test_healthy_cluster_admits(self):
        admission = ClusterAdmission("global", "stop", 4)
        for shard in range(4):
            assert admission.decide(shard, HEALTHY, 100).action == ADMIT

    def test_lowest_headroom_slows_everything(self):
        admission = ClusterAdmission(
            "global", "gradual", 2, rate_bytes_per_s=100.0, threshold=0.5
        )
        snapshots = [snap(headroom=0.1), snap()]
        for shard in range(2):
            assert admission.decide(shard, snapshots, 100).action == DELAY

    def test_fullest_shard_memory_fill_stalls_everything(self):
        admission = ClusterAdmission("global", "stop", 2)
        snapshots = [snap(), snap(sealed=1, num_memtables=2)]
        assert snapshots[1].memory_fill == 1.0
        for shard in range(2):
            assert admission.decide(shard, snapshots, 100).action == REJECT

    def test_mode_labels(self):
        admission = ClusterAdmission("global", "stop", 4)
        assert admission.scope == "global"
        assert admission.base_mode == "stop"
        assert admission.mode == "global:stop"


class TestLocalScope:
    def test_only_the_stalled_shard_rejects(self):
        admission = ClusterAdmission("local", "stop", 4)
        assert admission.decide(1, HOT_SHARD_1, 100).action == REJECT
        for shard in (0, 2, 3):
            assert (
                admission.decide(shard, HOT_SHARD_1, 100).action == ADMIT
            )

    def test_gradual_delays_only_the_pressured_shard(self):
        admission = ClusterAdmission(
            "local", "gradual", 2, rate_bytes_per_s=100.0, retry_after=0.02
        )
        snapshots = [snap(headroom=0.1), snap()]
        pressured = admission.decide(0, snapshots, 100)
        assert pressured.action == DELAY
        assert pressured.delay_seconds > 0.0
        assert admission.decide(1, snapshots, 100).action == ADMIT
        assert admission.retry_after == pytest.approx(0.02)

    def test_limit_buckets_are_per_shard(self):
        admission = ClusterAdmission(
            "local", "limit", 2, rate_bytes_per_s=100.0, clock=lambda: 0.0
        )
        # queue a second on shard 0's pacer; shard 1's must be idle
        assert admission.decide(0, HEALTHY[:2], 100).delay_seconds == 1.0
        assert admission.decide(0, HEALTHY[:2], 100).delay_seconds == 2.0
        assert admission.decide(1, HEALTHY[:2], 100).delay_seconds == 1.0


class TestBatchDecisions:
    def test_batch_touching_hot_shard_takes_worst_decision(self):
        admission = ClusterAdmission("local", "stop", 4)
        decision = admission.decide_many({0: 50, 1: 50}, HOT_SHARD_1)
        assert decision.action == REJECT

    def test_batch_avoiding_hot_shard_admits_locally(self):
        admission = ClusterAdmission("local", "stop", 4)
        decision = admission.decide_many({0: 50, 2: 50}, HOT_SHARD_1)
        assert decision.action == ADMIT

    def test_batch_avoiding_hot_shard_rejects_globally(self):
        admission = ClusterAdmission("global", "stop", 4)
        decision = admission.decide_many({0: 50, 2: 50}, HOT_SHARD_1)
        assert decision.action == REJECT

    def test_longest_delay_wins(self):
        admission = ClusterAdmission(
            "local", "gradual", 2, rate_bytes_per_s=100.0, threshold=0.0,
            clock=lambda: 0.0,
        )
        snapshots = [snap(headroom=0.4), snap(headroom=0.8)]
        decision = admission.decide_many({0: 10, 1: 10}, snapshots)
        assert decision.action == DELAY
        # shard 0 paces at 40 B/s, shard 1 at 80 B/s
        assert decision.delay_seconds == pytest.approx(10 / 40.0)

    def test_empty_batch_rejected(self):
        admission = ClusterAdmission("local", "stop", 2)
        with pytest.raises(ConfigurationError):
            admission.decide_many({}, HEALTHY[:2])


class TestValidation:
    def test_unknown_scope(self):
        with pytest.raises(ConfigurationError):
            ClusterAdmission("galactic", "stop", 4)

    def test_zero_shards(self):
        with pytest.raises(ConfigurationError):
            ClusterAdmission("local", "stop", 0)

    def test_shard_out_of_range(self):
        admission = ClusterAdmission("local", "stop", 2)
        with pytest.raises(ConfigurationError):
            admission.decide(7, HEALTHY[:2], 10)
        with pytest.raises(ConfigurationError):
            ClusterAdmission("global", "stop", 2).decide(0, [], 10)

    @pytest.mark.parametrize("scope", SCOPES)
    @pytest.mark.parametrize("built_for, shards", [(3, 2), (2, 4)])
    def test_a_shard_count_mismatch_is_refused(self, scope, built_for, shards):
        """Regression: an admission built for another shard count passed
        the range check for the last shard and died with ``IndexError``;
        a router took it and failed every write there (INTERNAL)."""
        admission = ClusterAdmission(scope, "stop", built_for)
        snapshots = [snap()] * shards
        with pytest.raises(ConfigurationError, match="out of range"):
            admission.decide(max(built_for, shards) - 1, snapshots, 10)
        with pytest.raises(ConfigurationError, match="built for"):
            ClusterRouter(
                [("127.0.0.1", 1)] * shards,
                stats_fn=lambda: snapshots,
                admission=admission,
            )
