"""Applier decision tree: duplicates, gaps, epochs, staged resets."""

import os

import pytest

from repro.engine import LSMStore, StoreOptions, WriteAheadLog
from repro.errors import CorruptionError, ReplicaGapError, StaleEpochError
from repro.replication import ReplicaApplier

from ..engine.images import chunks, frozen, unnamed_runs

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


def frame(batches, start, epoch=0, lineage=LINEAGE):
    return {
        "epoch": epoch,
        "probe": False,
        "lineage": lineage,
        "start": start,
        "span": span_of(*batches),
        "reset": False,
        "first": False,
        "final": False,
    }


def empty_reset(lsn, epoch=0, lineage=LINEAGE):
    """The reset of an empty leader: one chunk, no files."""
    return {
        "epoch": epoch,
        "probe": False,
        "lineage": lineage,
        "start": lsn,
        "span": b"",
        "reset": True,
        "first": True,
        "final": True,
        "layout": (),
        "file": 0,
        "offset": 0,
    }


def attached(store, lsn=0):
    """An applier that has been reset to an empty leader at ``lsn``."""
    applier = ReplicaApplier(store)
    applier.apply_frame(empty_reset(lsn))
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


def test_stale_epoch_fenced(store, tmp_path):
    applier = ReplicaApplier(store)
    with frozen(tmp_path / "leader", A) as image:
        [chunk] = chunks(image, epoch=2, start=10)
    applier.apply_frame(chunk)
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


def test_reset_replaces_state_and_rebases(store, tmp_path):
    applier = attached(store)
    applier.apply_frame(frame([[(b"old", b"x"), (b"keep", b"1")]], 0))
    with frozen(tmp_path / "leader", [(b"keep", b"2"), (b"new", b"3")]) as image:
        [chunk] = chunks(image, lineage=9, start=40)
    status = applier.apply_frame(chunk)
    assert status == dict(
        status, lineage=9, applied=40, ship_tail=40, resets=2
    )
    # keys outside the image are gone; image values win
    assert list(store.scan()) == [(b"keep", b"2"), (b"new", b"3")]
    assert store.upstream == (9, 40, 0)
    assert unnamed_runs(store) == []


class TestStagedReset:
    OLD = [(b"old", b"x")]
    ROWS = [(b"k%03d" % index, b"v" * 40) for index in range(64)]
    #: Bytes per chunk: the image's one file travels in several.
    LIMIT = 1024

    @pytest.fixture
    def image_chunks(self, tmp_path):
        with frozen(tmp_path / "leader", self.ROWS) as image:
            assert len(image.files) == 1
            yield lambda **fields: chunks(
                image, self.LIMIT, start=900, **fields
            )

    def follower(self, store):
        applier = attached(store)
        applier.apply_frame(frame([self.OLD], 0))
        return applier, applier.status()

    def test_nothing_is_visible_until_the_final_chunk(
        self, store, image_chunks
    ):
        applier, before = self.follower(store)
        *staged, last = image_chunks()
        assert len(staged) >= 3
        for chunk in staged:
            status = applier.apply_frame(chunk)
            assert status == before
            assert list(store.scan()) == self.OLD
            assert store.upstream == (LINEAGE, before["applied"], 0)
        status = applier.apply_frame(last)
        assert status["applied"] == 900
        assert list(store.scan()) == self.ROWS
        assert unnamed_runs(store) == []

    def test_a_chunk_without_its_first_is_a_gap(self, store, image_chunks):
        applier, before = self.follower(store)
        with pytest.raises(ReplicaGapError):
            applier.apply_frame(image_chunks()[-1])
        assert applier.status() == before
        assert list(store.scan()) == self.OLD

    def test_a_retried_chunk_is_acked_and_a_skipped_one_is_a_gap(
        self, store, image_chunks
    ):
        applier, before = self.follower(store)
        first, second, third, *rest = image_chunks()
        applier.apply_frame(first)
        applier.apply_frame(second)
        [staged] = unnamed_runs(store)
        path = os.path.join(store.directory, staged)
        written = applier._stage.written
        # a client retries a request it timed out on: an ack, no write
        assert applier.apply_frame(second) == before
        assert applier._stage.written == written
        assert os.path.getsize(path) == written
        with pytest.raises(ReplicaGapError):
            applier.apply_frame(rest[0])  # ``third`` never arrived
        assert applier._stage is None
        assert unnamed_runs(store) == []
        assert list(store.scan()) == self.OLD
        assert applier.status()["applied"] == before["applied"]

    @pytest.mark.parametrize(
        "other", [dict(lineage=8), dict(epoch=1), dict(start=901)]
    )
    def test_a_chunk_of_another_reset_drops_the_stage(
        self, store, image_chunks, other
    ):
        applier, before = self.follower(store)
        first, second, *rest = image_chunks()
        applier.apply_frame(first)
        assert unnamed_runs(store)  # the stage's file
        foreign = dict(second, **other)
        with pytest.raises(ReplicaGapError):
            applier.apply_frame(foreign)
        assert unnamed_runs(store) == []
        # ... for good: the rest of the first reset finds nothing to
        # continue (or, after a newer epoch's chunk, is fenced)
        with pytest.raises((ReplicaGapError, StaleEpochError)):
            applier.apply_frame(rest[-1])
        assert list(store.scan()) == self.OLD
        assert applier.status()["applied"] == before["applied"]

    def test_a_first_chunk_starts_over(self, store, image_chunks):
        applier, _ = self.follower(store)
        first, second, *rest = image_chunks()
        applier.apply_frame(first)
        applier.apply_frame(second)
        # the shipper gave up mid-reset and begins again
        for chunk in image_chunks():
            applier.apply_frame(chunk)
        assert list(store.scan()) == self.ROWS
        assert unnamed_runs(store) == []

    def test_a_log_span_between_chunks_drops_the_stage(
        self, store, image_chunks
    ):
        applier, before = self.follower(store)
        first, *rest = image_chunks()
        applier.apply_frame(first)
        applier.apply_frame(frame([B], before["applied"]))
        assert unnamed_runs(store) == []
        with pytest.raises(ReplicaGapError):
            applier.apply_frame(rest[-1])
        assert list(store.scan()) == [(b"b", b"2")] + self.OLD

    def test_a_damaged_image_is_refused_whole(self, store, image_chunks):
        applier, before = self.follower(store)
        *staged, last = image_chunks()
        middle = dict(staged[1], span=bytes(len(staged[1]["span"])))
        for chunk in [staged[0], middle, *staged[2:]]:
            applier.apply_frame(chunk)
        with pytest.raises(CorruptionError):
            applier.apply_frame(last)
        assert applier.status() == before
        assert list(store.scan()) == self.OLD
        assert unnamed_runs(store) == []


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
