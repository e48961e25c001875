"""Corrupt-at-rest chaos acceptance: detect, contain, repair, never lie.

The replicated counterpart of the kill/restore chaos suite: a seeded
run flips a byte inside a live run's data region mid-load, and passes
only if the damage was detected (read path, scrubber, or a merge
reading its input), the run was quarantined, every audited read either
matched the model or refused loudly with ``DATA_CORRUPT``, and the
leader rebuilt the run from its follower before the deadline.
"""

import asyncio

import pytest

from repro.errors import ConfigurationError
from repro.faults import CorruptionChaosReport, run_corruption_chaos


class TestCorruptionVerdict:
    def base(self):
        return dict(
            ops_total=100,
            acked=100,
            reads_total=40,
            corrupt_reads=2,
            wrong_answers=0,
            other_errors=0,
            injections=1,
            corrupted_files=["00000003.run"],
            detected=True,
            detection_sources=["read"],
            quarantined_seen=1,
            runs_repaired=1,
            repair_seconds=0.2,
            final_quarantined=0,
            lost_acked=0,
            replicas=1,
        )

    def test_clean_survival_is_ok(self):
        report = CorruptionChaosReport(**self.base())
        assert report.repaired
        assert report.ok
        assert "verdict: OK" in report.summary()

    @pytest.mark.parametrize(
        "poison",
        [
            dict(injections=0),
            dict(detected=False),
            dict(quarantined_seen=0),
            dict(runs_repaired=0),
            dict(final_quarantined=1),
            dict(wrong_answers=1),
            dict(lost_acked=1),
            dict(other_errors=2),
        ],
    )
    def test_any_violation_fails_the_run(self, poison):
        report = CorruptionChaosReport(**{**self.base(), **poison})
        assert not report.ok
        assert "FAILED" in report.summary()

    def test_to_dict_carries_the_derived_verdict(self):
        payload = CorruptionChaosReport(**self.base()).to_dict()
        assert payload["ok"] is True
        assert payload["repaired"] is True
        assert payload["detection_sources"] == ["read"]

    def test_corruption_mode_requires_a_replica(self, tmp_path):
        with pytest.raises(ConfigurationError):
            asyncio.run(run_corruption_chaos(str(tmp_path), replicas=0))


def test_corruption_chaos_meets_the_acceptance_bar(tmp_path):
    report = asyncio.run(
        run_corruption_chaos(
            str(tmp_path),
            num_shards=2,
            ops=200,
            target_shard=0,
            corrupt_at=0.4,
            seed=7,
            replicas=1,
        )
    )
    assert report.ok, report.summary()
    # At least one byte flip landed and was noticed.
    assert report.injections >= 1
    assert report.detected
    assert set(report.detection_sources) <= {"read", "scrub", "merge"}
    # Containment: refusals are fine, lies are not.
    assert report.wrong_answers == 0
    assert report.quarantined_seen >= 1
    # Repair: the leader rebuilt from its follower and cleared the
    # quarantine within the run's deadline.
    assert report.runs_repaired >= 1
    assert report.final_quarantined == 0
    assert report.repair_seconds >= 0
    # Not one acked write was lost through the whole episode.
    assert report.lost_acked == 0
    assert report.other_errors == 0
    # The background scrubber was live during the run: it runs on the
    # maintenance workers scrubbing requires.
    assert report.scrub.get("passes_completed", 0) >= 1


def test_a_merge_meeting_the_flipped_block_does_not_wedge_the_repair(
    tmp_path,
):
    """Seed 0 at the defaults (300 ops, ``leader_only``): the load that,
    run inline, once had a merge chunk meet the flipped block, answer
    the pumping ``put`` with ``INTERNAL`` and keep the job claimed so
    the repair never ran. A scrubbing store runs workers now; the
    inline case is ``tests/engine/test_corruption.py::TestMergeInteraction``."""
    report = asyncio.run(run_corruption_chaos(str(tmp_path), seed=0))
    assert report.ok, report.summary()
    assert set(report.detection_sources) <= {"read", "scrub", "merge"}
    assert report.other_errors == 0
    assert report.lost_acked == 0
    assert report.runs_repaired >= 1
    assert report.final_quarantined == 0
