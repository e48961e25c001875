"""Leader-kill chaos acceptance: promote a follower, lose nothing.

This is the replicated counterpart of ``tests/test_chaos.py`` and the
PR's acceptance bar: a seeded chaos run with one follower per shard
under quorum acks kills shard 1's leader mid-stream and never restores
it. The run passes only if the router promoted the most-caught-up
follower, every acked write reads back, and the surviving shards'
P99 stayed within a fixed bound of an undisturbed baseline.

Like ``tests/test_chaos.py``, wall-clock enters only through breaker
cooldowns and pacing sleeps; the kill schedule itself is by op index,
so the same seed kills the same leader at the same point every run.
"""

import asyncio
import time

import pytest

from repro.cluster import LocalCluster
from repro.engine import StoreOptions
from repro.errors import ConfigurationError
from repro.faults import run_chaos
from repro.faults.chaos import ChaosReport
from repro.metrics.percentiles import percentile_profile
from repro.server.client import KVClient


class TestReplicatedVerdict:
    def base(self):
        return dict(
            ops_total=10,
            acked=9,
            recovery_seconds=0.1,
            lost_acked=0,
            other_errors=0,
            replicas=1,
            ack_policy="quorum",
            promotions=1,
            shard_epochs=[0, 1, 0],
        )

    def test_clean_failover_is_ok(self):
        report = ChaosReport(**self.base())
        assert report.ok
        assert "promotion(s)" in report.summary()

    def test_no_degraded_scan_required_with_replicas(self):
        # a follower served the scan honestly, so nothing degraded
        report = ChaosReport(**self.base(), degraded_scan_seen=False)
        assert report.ok

    @pytest.mark.parametrize(
        "poison",
        [
            dict(lost_acked=1),
            dict(recovery_seconds=-1.0),
            dict(promotions=0),
            dict(other_errors=3),
        ],
    )
    def test_any_violation_fails_the_run(self, poison):
        report = ChaosReport(**{**self.base(), **poison})
        assert not report.ok
        assert "FAILED" in report.summary()

    def test_to_dict_is_json_ready(self):
        report = ChaosReport(
            **self.base(),
            breaker_transitions=[("closed", "open"), ("open", "closed")],
        )
        payload = report.to_dict()
        assert payload["ok"] is True
        assert payload["recovered"] is True
        assert payload["breaker_transitions"] == [
            ["closed", "open"],
            ["open", "closed"],
        ]
        assert payload["shard_epochs"] == [0, 1, 0]

    def test_replicated_schedule_skips_restore_validation(self, tmp_path):
        # restore_at is ignored in leader-kill mode, but kill_at still
        # has to land strictly inside the stream
        with pytest.raises(ConfigurationError):
            asyncio.run(
                run_chaos(str(tmp_path), replicas=1, kill_at=0.0)
            )


def test_restore_shard_refused_with_replicas(tmp_path):
    async def scenario():
        cluster = LocalCluster(
            str(tmp_path),
            num_shards=2,
            options=StoreOptions(block_cache_bytes=0),
            replicas=1,
        )
        async with cluster:
            await cluster.kill_shard(0)
            with pytest.raises(ConfigurationError):
                await cluster.restore_shard(0)

    asyncio.run(scenario())


async def _baseline_p99(tmp_path, keys, value_bytes, op_interval):
    """P99 of the same write stream with nobody being killed."""
    cluster = LocalCluster(
        str(tmp_path / "baseline"),
        num_shards=3,
        options=StoreOptions(block_cache_bytes=0),
        replicas=1,
        ack_policy="quorum",
    )
    samples = []
    async with cluster:
        host, port = cluster.address
        async with KVClient(host, port, max_retries=0) as client:
            for index, key in enumerate(keys):
                value = f"{index:08d}".encode().ljust(value_bytes, b"b")
                started = time.monotonic()
                await client.put(key, value)
                samples.append(time.monotonic() - started)
                await asyncio.sleep(op_interval)
    return percentile_profile(samples, (99.0,))[99.0]


def test_leader_kill_failover_meets_the_acceptance_bar(tmp_path):
    cooldown = 0.2
    op_interval = 0.001

    async def scenario():
        report = await run_chaos(
            str(tmp_path / "chaos"),
            num_shards=3,
            ops=200,
            kill_shard=1,
            seed=11,
            cooldown=cooldown,
            op_interval=op_interval,
            replicas=1,
            ack_policy="quorum",
            read_from_replica=True,
        )
        keys = [f"key-{i:06d}".encode() for i in range(100)]
        baseline = await _baseline_p99(tmp_path, keys, 32, op_interval)
        return report, baseline

    report, baseline = asyncio.run(scenario())
    assert report.ok, report.summary()
    # Not one acked write was lost across the failover.
    assert report.lost_acked == 0
    assert report.other_errors == 0
    # The router promoted exactly the killed shard's follower and
    # bumped its epoch; the other shards kept their original leaders.
    assert report.promotions >= 1
    assert report.shard_epochs[1] >= 1
    assert report.shard_epochs[0] == 0
    assert report.shard_epochs[2] == 0
    # Failover landed within a small multiple of the breaker cooldown
    # (the breaker has to open before the router can promote).
    assert 0.0 <= report.recovery_seconds < cooldown * 5
    # The breaker trail shows the failover: it opened on the kill and
    # ended closed once the promoted follower took over.
    assert ("closed", "open") in report.breaker_transitions
    assert report.breaker_transitions[-1][1] == "closed"
    assert report.final_health == {
        "0": "closed", "1": "closed", "2": "closed",
    }
    # Mid-outage the scatter scan was served by a follower, with an
    # honest staleness figure instead of a degraded verdict.
    assert report.replica_scan_seen
    assert report.max_staleness_bytes >= 0
    # Survivor P99 stayed within a fixed bound of the no-kill
    # baseline: the outage never leaked onto the healthy shards.
    assert report.surviving_p99 < max(10 * baseline, 0.25), (
        f"survivor P99 {report.surviving_p99:.4f}s vs "
        f"baseline {baseline:.4f}s"
    )
