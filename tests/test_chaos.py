"""Chaos-runner acceptance: kill a shard mid-load, come back whole.

This is the one suite that intentionally uses real wall-clock time (the
breaker cooldown and recovery probing), kept short: a few hundred
operations with millisecond pacing. The assertions are the robustness
acceptance bar — survivors keep a bounded P99, the degraded scan names
the killed shard, the breaker walks closed→open→half-open→closed, and
not one acked write is lost.
"""

import asyncio
import hashlib

from repro.errors import ConfigurationError
from repro.faults import run_chaos, run_corruption_chaos
from repro.faults.chaos import ChaosReport
from repro.server.client import KVClient

import pytest


def test_empty_survivor_set_reports_zero_p99(tmp_path):
    # One shard, and it is the one killed: no write lands on a surviving
    # range, so there is no sample to take a percentile of.
    report = asyncio.run(
        run_chaos(
            str(tmp_path), num_shards=1, ops=40, kill_shard=0, seed=1,
            cooldown=0.05, op_interval=0.001,
        )
    )
    assert report.surviving_p99 == 0.0


class TestReportVerdict:
    def base(self):
        return dict(
            ops_total=10,
            acked=8,
            degraded_scan_seen=True,
            degraded_scan_correct=True,
            recovery_seconds=0.1,
            lost_acked=0,
            other_errors=0,
        )

    def test_clean_run_is_ok(self):
        assert ChaosReport(**self.base()).ok

    @pytest.mark.parametrize(
        "poison",
        [
            dict(lost_acked=1),
            dict(recovery_seconds=-1.0),
            dict(degraded_scan_seen=False),
            dict(degraded_scan_correct=False),
            dict(other_errors=2),
        ],
    )
    def test_any_violation_fails_the_run(self, poison):
        report = ChaosReport(**{**self.base(), **poison})
        assert not report.ok
        assert "FAILED" in report.summary()


class TestScheduleValidation:
    @pytest.mark.parametrize(
        "schedule",
        [
            dict(kill_at=0.0),
            dict(kill_at=0.7, restore_at=0.3),
            dict(restore_at=1.0),
        ],
    )
    def test_bad_kill_restore_schedule_rejected(self, tmp_path, schedule):
        with pytest.raises(ConfigurationError):
            asyncio.run(run_chaos(str(tmp_path), **schedule))


def test_chaos_run_meets_the_acceptance_bar(tmp_path):
    report = asyncio.run(
        run_chaos(
            str(tmp_path),
            num_shards=3,
            ops=200,
            kill_shard=1,
            seed=11,
            cooldown=0.2,
            op_interval=0.001,
        )
    )
    assert report.ok, report.summary()
    # The outage produced fail-fasts instead of hangs, and the shards
    # that stayed up never saw multi-second latency.
    assert report.shard_down_fast_fails > 0
    assert report.surviving_p99 < 0.5
    assert report.fail_fast_max < 0.5
    # The killed shard's breaker walked the full recovery path.
    assert ("closed", "open") in report.breaker_transitions
    assert ("open", "half_open") in report.breaker_transitions
    assert ("half_open", "closed") in report.breaker_transitions
    assert report.final_health == {
        "0": "closed", "1": "closed", "2": "closed",
    }
    assert report.lost_acked == 0


def test_chaos_run_with_maintenance_workers(tmp_path):
    # The same kill/restore schedule with every shard running its
    # background maintenance worker: kills land mid-flush/mid-merge,
    # and recovery must still come back whole with no acked loss.
    from repro.engine import StoreOptions

    report = asyncio.run(
        run_chaos(
            str(tmp_path),
            num_shards=3,
            ops=200,
            kill_shard=1,
            seed=11,
            cooldown=0.2,
            op_interval=0.001,
            options=StoreOptions(
                block_cache_bytes=0,
                background_maintenance=True,
            ),
        )
    )
    assert report.ok, report.summary()
    assert report.lost_acked == 0
    assert report.final_health == {
        "0": "closed", "1": "closed", "2": "closed",
    }


def test_a_keyspace_with_no_key_on_the_killed_shard_is_rejected(tmp_path):
    # key-000000 routes to one shard of three; killing another leaves
    # the post-load phase nothing to probe its recovery with.
    from repro.cluster.ring import HashRing

    only = HashRing(3).shard_for(b"key-000000")
    with pytest.raises(ConfigurationError, match="no key"):
        asyncio.run(
            run_chaos(str(tmp_path), kill_shard=(only + 1) % 3, keyspace=1)
        )
    assert not list(tmp_path.iterdir())  # refused before anything booted


#: The first 32 puts of seed 0, as issued before the runners shared
#: their load driver: the key numbers, and the SHA-256 of the 32 values
#: back to back. The corruption runner draws its audit reads from the
#: same ``rng``, so its stream parts ways with the kill runner's.
SEED_0 = {
    run_chaos: (
        [197, 104, 149, 120, 112, 36, 241, 98, 25, 140, 4, 36, 43, 103,
         112, 235, 196, 10, 233, 228, 3, 80, 181, 215, 254, 127, 242, 59,
         178, 27, 173, 22],
        "69c7c1014d929829a10cc68ef29d930dd91f6209a97be0b4bad6728bae9028b7",
    ),
    run_corruption_chaos: (
        [197, 104, 63, 214, 37, 31, 128, 193, 161, 21, 76, 218, 133, 249,
         153, 134, 77, 233, 220, 119, 161, 29, 72, 20, 107, 30, 235, 17,
         1, 177, 78, 50],
        "c583b5e88a8311bb06b375e846961621bbf0f511f5e21eb9bbca3569e8653d8b",
    ),
}


@pytest.mark.parametrize("runner", list(SEED_0), ids=lambda fn: fn.__name__)
def test_a_seed_replays_the_same_ops(tmp_path, monkeypatch, runner):
    issued = []
    put = KVClient.put

    class Enough(Exception):
        pass

    async def recording(self, key, value):
        if len(issued) == 32:
            raise Enough  # both schedules fire their fault later
        issued.append((key, value))
        return await put(self, key, value)

    monkeypatch.setattr(KVClient, "put", recording)
    with pytest.raises(Enough):
        asyncio.run(runner(str(tmp_path), seed=0, op_interval=0.0))
    keys, digest = SEED_0[runner]
    assert [key for key, _ in issued] == [b"key-%06d" % n for n in keys]
    values = b"".join(value for _, value in issued)
    assert hashlib.sha256(values).hexdigest() == digest
    assert all(
        value.startswith(b"%08d" % index) and len(value) == 32
        for index, (_, value) in enumerate(issued)
    )
