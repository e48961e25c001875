"""Applier decision tree: duplicates, gaps, epochs, staged resets."""

import pytest

from repro.engine import LSMStore, StoreOptions, WriteAheadLog
from repro.errors import CorruptionError, ReplicaGapError, StaleEpochError
from repro.replication import ReplicaApplier

OPTIONS = StoreOptions(
    memtable_bytes=4096,
    num_memtables=2,
    policy="tiering",
    size_ratio=3,
    levels=2,
    background_maintenance=False,
)

#: The leader log every span below claims to come from.
LINEAGE = 7


@pytest.fixture
def store(tmp_path):
    store = LSMStore.open(str(tmp_path / "follower"), OPTIONS)
    yield store
    store.close()


def span_of(*batches):
    """The log bytes of ``batches``, one frame each."""
    return b"".join(bytes(WriteAheadLog.encode_frame(b)) for b in batches)


def frame(
    batches,
    start,
    epoch=0,
    lineage=LINEAGE,
    reset=False,
    first=False,
    final=False,
):
    return {
        "epoch": epoch,
        "probe": False,
        "lineage": lineage,
        "start": start,
        "span": span_of(*batches),
        "reset": reset,
        "first": first,
        "final": final,
    }


def reset(batches, lsn, first=True, final=True, **fields):
    return frame(batches, lsn, reset=True, first=first, final=final, **fields)


def attached(store, lsn=0):
    """An applier that has been reset to an empty snapshot at ``lsn``."""
    applier = ReplicaApplier(store)
    applier.apply_frame(reset([], lsn))
    return applier


A, B = [(b"a", b"1")], [(b"b", b"2")]
LEN_A, LEN_B = len(span_of(A)), len(span_of(B))


def test_in_order_frames_apply(store):
    applier = attached(store)
    applier.apply_frame(frame([A], 0))
    status = applier.apply_frame(frame([B], LEN_A))
    assert status["applied"] == LEN_A + LEN_B
    assert status["frames_applied"] == 2
    assert list(store.scan()) == [(b"a", b"1"), (b"b", b"2")]


def test_a_span_of_many_frames_is_one_ack(store):
    applier = attached(store, lsn=100)
    status = applier.apply_frame(frame([A, B, [(b"a", None)]], 100))
    assert status["applied"] == 100 + len(span_of(A, B, [(b"a", None)]))
    assert status["frames_applied"] == 3
    assert list(store.scan()) == [(b"b", b"2")]
    assert store.upstream == (LINEAGE, status["applied"], 0)


def test_duplicate_frame_skipped_not_reapplied(store):
    applier = attached(store)
    applier.apply_frame(frame([A], 0))
    newer = [(b"a", b"2")]
    applier.apply_frame(frame([newer], LEN_A))
    # the shipper re-sends the first span after a reconnect: applying it
    # again would roll ``a`` back
    status = applier.apply_frame(frame([A], 0))
    assert status["frames_skipped"] == 1
    assert status["applied"] == LEN_A + len(span_of(newer))
    assert list(store.scan()) == [(b"a", b"2")]


def test_gap_rejected_with_expected_cursor(store):
    applier = attached(store)
    applier.apply_frame(frame([A], 0))
    with pytest.raises(ReplicaGapError) as excinfo:
        applier.apply_frame(frame([[(b"c", b"3")]], LEN_A + 20))
    assert excinfo.value.expected == (LINEAGE, LEN_A)
    # nothing was applied past the gap
    assert applier.status()["applied"] == LEN_A
    assert list(store.scan()) == [(b"a", b"1")]


def test_stale_epoch_fenced(store):
    applier = ReplicaApplier(store)
    applier.apply_frame(reset([A], 10, epoch=2))
    with pytest.raises(StaleEpochError):
        applier.apply_frame(frame([[(b"z", b"9")]], 10, epoch=1))
    assert list(store.scan()) == [(b"a", b"1")]


def test_probe_adopts_higher_epoch_without_applying(store):
    applier = ReplicaApplier(store)
    status = applier.apply_frame(
        {"epoch": 5, "probe": True}
    )
    assert status["epoch"] == 5
    assert status["frames_applied"] == 0
    assert status["lineage"] is None  # follows nobody yet


def test_span_after_a_leader_truncation_continues_the_cursor(store):
    # The LSN form of "a new generation from zero rebases": the leader
    # cut its log after this follower acked everything, and the next
    # span simply starts where the last one ended.
    applier = attached(store, lsn=5000)
    applier.apply_frame(frame([A], 5000))
    status = applier.apply_frame(frame([B], 5000 + LEN_A))
    assert status["lineage"] == LINEAGE
    assert status["applied"] == 5000 + LEN_A + LEN_B
    assert list(store.scan()) == [(b"a", b"1"), (b"b", b"2")]


def test_other_lineage_span_is_a_gap(store):
    # The LSN form of "a stale-generation frame is skipped": positions
    # of another log are not comparable, so even one that *looks* like a
    # duplicate (or like the next span) is refused, never skipped.
    applier = attached(store)
    applier.apply_frame(frame([A], 0))
    for start in (0, LEN_A):
        with pytest.raises(ReplicaGapError) as excinfo:
            applier.apply_frame(frame([[(b"old", b"x")]], start, lineage=8))
        assert excinfo.value.expected == (LINEAGE, LEN_A)
    assert applier.status()["frames_skipped"] == 0
    assert list(store.scan()) == [(b"a", b"1")]


def test_unattached_follower_refuses_log_spans(store):
    with pytest.raises(ReplicaGapError) as excinfo:
        ReplicaApplier(store).apply_frame(frame([A], 0))
    assert excinfo.value.expected == (None, 0)
    assert list(store.scan()) == []


def test_overlapping_span_is_a_gap(store):
    # The LSN form of "a new generation not from zero is a gap": a span
    # must start exactly at the cursor; one reaching back before it and
    # past it is not trimmed.
    applier = attached(store)
    applier.apply_frame(frame([A], 0))
    with pytest.raises(ReplicaGapError):
        applier.apply_frame(frame([A, B], 5))
    assert applier.status()["applied"] == LEN_A


def test_reset_replaces_state_and_rebases(store):
    applier = attached(store)
    applier.apply_frame(frame([[(b"old", b"x"), (b"keep", b"1")]], 0))
    status = applier.apply_frame(
        reset([[(b"keep", b"2"), (b"new", b"3")]], 40, lineage=9)
    )
    assert status == dict(
        status, lineage=9, applied=40, ship_tail=40, resets=2
    )
    # keys outside the snapshot are gone; snapshot values win
    assert list(store.scan()) == [(b"keep", b"2"), (b"new", b"3")]
    assert store.upstream == (9, 40, 0)


class TestStagedReset:
    OLD = [(b"old", b"x")]
    CHUNKS = [[(b"a", b"1")], [(b"b", b"2")], [(b"c", b"3")]]

    def follower(self, store):
        applier = attached(store)
        applier.apply_frame(frame([self.OLD], 0))
        return applier, applier.status()

    def test_nothing_is_visible_until_the_final_chunk(self, store):
        applier, before = self.follower(store)
        first, middle, last = self.CHUNKS
        for chunk, is_first in ((first, True), (middle, False)):
            status = applier.apply_frame(
                reset([chunk], 900, first=is_first, final=False)
            )
            assert status == before
            assert list(store.scan()) == self.OLD
            assert store.upstream == (LINEAGE, before["applied"], 0)
        status = applier.apply_frame(reset([last], 900, first=False))
        assert status["applied"] == 900
        assert list(store.scan()) == [op for c in self.CHUNKS for op in c]

    def test_a_chunk_without_its_first_is_a_gap(self, store):
        applier, before = self.follower(store)
        with pytest.raises(ReplicaGapError):
            applier.apply_frame(reset([self.CHUNKS[2]], 900, first=False))
        assert applier.status() == before
        assert list(store.scan()) == self.OLD

    @pytest.mark.parametrize(
        "other", [dict(lineage=8), dict(epoch=1), dict(start=901)]
    )
    def test_a_chunk_of_another_reset_drops_the_stage(self, store, other):
        applier, before = self.follower(store)
        applier.apply_frame(
            reset([self.CHUNKS[0]], 900, first=True, final=False)
        )
        fields = dict(dict(lineage=LINEAGE, epoch=0, start=900), **other)
        with pytest.raises(ReplicaGapError):
            applier.apply_frame(
                frame(
                    [self.CHUNKS[1]],
                    fields["start"],
                    epoch=fields["epoch"],
                    lineage=fields["lineage"],
                    reset=True,
                )
            )
        # ... for good: the final chunk of the first reset finds nothing
        # to complete (or, after a newer epoch's chunk, is fenced)
        with pytest.raises((ReplicaGapError, StaleEpochError)):
            applier.apply_frame(reset([self.CHUNKS[2]], 900, first=False))
        assert list(store.scan()) == self.OLD
        assert applier.status()["applied"] == before["applied"]

    def test_a_first_chunk_starts_over(self, store):
        applier, _ = self.follower(store)
        applier.apply_frame(
            reset([self.CHUNKS[0]], 900, first=True, final=False)
        )
        # the shipper gave up mid-reset and begins again, same identity
        applier.apply_frame(
            reset([self.CHUNKS[1]], 900, first=True, final=False)
        )
        applier.apply_frame(reset([self.CHUNKS[2]], 900, first=False))
        assert list(store.scan()) == self.CHUNKS[1] + self.CHUNKS[2]

    def test_a_log_span_between_chunks_drops_the_stage(self, store):
        applier, before = self.follower(store)
        applier.apply_frame(
            reset([self.CHUNKS[0]], 900, first=True, final=False)
        )
        applier.apply_frame(frame([B], before["applied"]))
        with pytest.raises(ReplicaGapError):
            applier.apply_frame(reset([self.CHUNKS[2]], 900, first=False))
        assert list(store.scan()) == [(b"b", b"2")] + self.OLD


def test_a_damaged_span_changes_nothing(store):
    applier = attached(store)
    applier.apply_frame(frame([A], 0))
    before = applier.status()
    damaged = frame([B, [(b"c", b"3")]], LEN_A, epoch=4)
    damaged["span"] = damaged["span"][:-1] + b"\x00"
    with pytest.raises(CorruptionError):
        applier.apply_frame(damaged)
    # not the intact first frame, not the epoch, not the cursor
    assert applier.status() == before
    assert list(store.scan()) == [(b"a", b"1")]


def test_ship_tail_tracks_staleness_lower_bound(store):
    applier = attached(store)
    applier.apply_frame(frame([A], 0))
    assert applier.status()["ship_tail"] == LEN_A
    # a duplicate must not move the tail backwards
    applier.apply_frame(frame([B], LEN_A))
    applier.apply_frame(frame([A], 0))
    assert applier.status()["ship_tail"] == LEN_A + LEN_B


def test_prime_sets_cursor(store):
    applier = ReplicaApplier(store)
    applier.prime(4, 2, 100)
    status = applier.status()
    assert (status["epoch"], status["lineage"], status["applied"]) == (
        4,
        2,
        100,
    )
    # what a leader reports about itself is not an upstream cursor
    assert store.upstream is None


def test_a_new_applier_continues_from_the_stores_cursor(store):
    applier = attached(store)
    applier.apply_frame(frame([A], 0, epoch=3))
    successor = ReplicaApplier(store)
    status = successor.status()
    assert (status["epoch"], status["lineage"], status["applied"]) == (
        3,
        LINEAGE,
        LEN_A,
    )
    successor.apply_frame(frame([B], LEN_A, epoch=3))
    assert list(store.scan()) == [(b"a", b"1"), (b"b", b"2")]
