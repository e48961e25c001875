"""Properties of shipped-WAL replay.

The shipper may restart from any earlier cursor point after a
reconnect, which re-sends every span from that point on; spans may
therefore arrive duplicated arbitrarily many times. The applier's
contract is that any such schedule — as long as the first delivery of
each span is in order, which the LSN-cursor protocol guarantees —
leaves the follower's ``scan()`` byte-identical to the leader's. And a
span is the log's own bytes: cut anywhere they carry exactly the log's
frames, and damaged anywhere they apply nothing.
"""

from __future__ import annotations

import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.engine import LSMStore, StoreOptions, WriteAheadLog
from repro.errors import CorruptionError
from repro.replication import ReplicaApplier

#: Large memtable + inline maintenance: the leader's WAL retains every
#: frame (no rotation, no truncation) for the duration of one example.
OPTIONS = StoreOptions(
    memtable_bytes=1 << 20,
    num_memtables=4,
    policy="tiering",
    size_ratio=3,
    levels=2,
    background_maintenance=False,
)

KEYS = [b"k%d" % i for i in range(8)]

ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(KEYS),
        st.one_of(st.none(), st.binary(min_size=1, max_size=16)),
    ),
    min_size=1,
    max_size=4,
)

batches_strategy = st.lists(ops_strategy, min_size=1, max_size=8)


def frame(span, start, lineage):
    return {
        "epoch": 0,
        "probe": False,
        "lineage": lineage,
        "start": start,
        "span": span,
        "reset": False,
        "first": False,
        "final": False,
    }


def empty_reset(start, lineage):
    """The reset of an empty leader: one chunk, no files."""
    return dict(
        frame(b"", start, lineage),
        reset=True,
        first=True,
        final=True,
        layout=(),
        file=0,
        offset=0,
    )


def attach(follower, position):
    """An applier reset to the leader's (empty) state at LSN 0."""
    applier = ReplicaApplier(follower)
    applier.apply_frame(empty_reset(0, position.lineage))
    return applier


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(batches=batches_strategy, data=st.data())
def test_any_restart_and_duplication_schedule_converges(batches, data):
    with tempfile.TemporaryDirectory() as scratch:
        leader = LSMStore.open(f"{scratch}/leader", OPTIONS)
        follower = LSMStore.open(f"{scratch}/follower", OPTIONS)
        try:
            applier = attach(follower, leader.wal_position())
            for batch in batches:
                leader.write_batch(batch)
            position = leader.wal_position()
            log_path = f"{scratch}/leader/wal.log"
            # One span per frame, the finest schedule a shipper can run.
            frames = [
                frame(
                    WriteAheadLog.read_span(
                        log_path, start, end - start
                    )[0],
                    start,
                    position.lineage,
                )
                for start, end, _ops in WriteAheadLog.stream_frames(
                    log_path
                )
            ]
            assert len(frames) == len(batches)

            # Shipping schedule: before each first delivery, maybe
            # rewind to an arbitrary earlier cursor point and re-send
            # everything from there (what a reconnecting shipper does).
            for index in range(len(frames)):
                if index > 0 and data.draw(
                    st.booleans(), label=f"rewind before #{index}"
                ):
                    rewind = data.draw(
                        st.integers(min_value=0, max_value=index - 1),
                        label=f"rewind point before #{index}",
                    )
                    for resent in frames[rewind:index]:
                        applier.apply_frame(resent)
                applier.apply_frame(frames[index])
            # Trailing duplicates after everything was delivered once.
            for _ in range(data.draw(
                st.integers(min_value=0, max_value=3),
                label="trailing duplicates",
            )):
                dup = data.draw(
                    st.integers(min_value=0, max_value=len(frames) - 1),
                    label="trailing duplicate index",
                )
                applier.apply_frame(frames[dup])

            assert list(follower.scan()) == list(leader.scan())
            status = applier.status()
            assert status["applied"] == position.lsn
            assert status["ship_tail"] == position.lsn
        finally:
            leader.close()
            follower.close()


@settings(max_examples=60, deadline=None)
@given(
    batches=batches_strategy,
    limit=st.integers(min_value=1, max_value=200),
)
def test_spans_carry_exactly_the_logs_frames(batches, limit):
    """``read_span`` + the follower's walker == ``stream_frames``, for
    any frames and any span size — including one smaller than a frame,
    which must still travel."""
    with tempfile.TemporaryDirectory() as scratch:
        path = f"{scratch}/wal.log"
        log = WriteAheadLog(path)
        for batch in batches:
            log.append(batch)
        log.close()
        expected = list(WriteAheadLog.stream_frames(path))
        boundaries = {0} | {end for _start, end, _ops in expected}
        shipped, offset = [], 0
        while offset < log.size_bytes:
            span, frames = WriteAheadLog.read_span(path, offset, limit)
            decoded = WriteAheadLog.decode_span(span)
            assert frames == len(decoded) >= 1
            # at least one frame, then as many more as fit
            end = offset + len(span)
            assert frames == 1 or len(span) <= limit
            following = min((b for b in boundaries if b > end), default=None)
            assert following is None or following - offset > limit
            shipped += decoded
            offset += len(span)
            assert offset in boundaries
        assert shipped == [ops for _start, _end, ops in expected]
        assert WriteAheadLog.read_span(path, offset, limit) == (b"", 0)


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(batches=st.lists(ops_strategy, min_size=1, max_size=3))
def test_a_damaged_span_is_never_applied_in_part(batches):
    """Every truncation and every single bit flip of a span: nothing of
    the message is applied and the cursor does not move. (A cut *on* a
    frame boundary is no damage — it is a shorter span, and what it
    holds is exactly the frames before the cut.)"""
    span = b"".join(bytes(WriteAheadLog.encode_frame(b)) for b in batches)
    boundaries, end = [], 0
    for batch in batches:
        end += len(WriteAheadLog.encode_frame(batch))
        boundaries.append(end)
    with tempfile.TemporaryDirectory() as scratch:
        follower = LSMStore.open(f"{scratch}/follower", OPTIONS)
        try:
            applier = ReplicaApplier(follower)
            applier.apply_frame(empty_reset(40, 7))
            before = applier.status()

            def rejected(damaged):
                with pytest.raises(CorruptionError):
                    applier.apply_frame(frame(damaged, 40, 7))
                assert applier.status() == before
                assert follower.upstream == (7, 40, 0)
                assert follower.stats().memtable_entries == 0

            for cut in range(1, len(span)):
                if cut in boundaries:
                    whole = WriteAheadLog.decode_span(span[:cut])
                    assert whole == batches[: boundaries.index(cut) + 1]
                else:
                    rejected(span[:cut])
            for bit in range(len(span) * 8):
                flipped = bytearray(span)
                flipped[bit // 8] ^= 1 << (bit % 8)
                rejected(bytes(flipped))
        finally:
            follower.close()
