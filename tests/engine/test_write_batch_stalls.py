"""``write_batch`` under write stalls: atomicity and stall accounting.

The stall gate runs *before* the WAL append, so a batch refused at a
closed gate with ``wait=False`` must leave no trace — not in the
memtable, not in the WAL, not in the stall count, and therefore not
after a crash-recovery reopen. A batch that may wait makes its writer
run the held-back merges inside the gate, and lands atomically.

A store without workers runs every merge a rotation makes eligible
before the rotating write returns, so its gate never closes on its own:
these tests hold merges back (flushes still run) until the runs trip
the constraint, then let them go.
"""

from __future__ import annotations

import threading

import pytest

from repro.engine import LSMStore, StoreOptions
from repro.errors import ClosedError, FaultInjectedError
from repro.faults import FaultPlan, FaultRule

#: A tree this tight stalls after a handful of held-back rotations:
#: limit 5 >= 2 * levels + 1, so every stall has mergeable work and is
#: transient once merges run again.
STALL_OPTIONS = StoreOptions(
    memtable_bytes=4096,
    num_memtables=2,
    policy="tiering",
    size_ratio=3,
    levels=2,
    constraint_limit=5,
    merge_chunk_bytes=1024,
    background_maintenance=False,
    block_cache_bytes=0,
)


def hold_back_merges(store: LSMStore) -> None:
    """No merge is claimed until :func:`release_merges`."""
    store._compaction.claim_merge = lambda: None


def release_merges(store: LSMStore) -> None:
    del store._compaction.claim_merge


def fill_until_gate_closes(store: LSMStore, tag: bytes) -> int:
    """With merges held back, write until the gate is closed for the
    next write (which, allowed to wait, would find nothing to run and
    raise); returns how many puts landed. Merges stay held back."""
    hold_back_merges(store)
    for index in range(100_000):
        store.put(b"fill-%s-%06d" % (tag, index), b"x" * 256)
        if store.write_stalled:
            return index + 1
    raise AssertionError("store never stalled under fill load")


def refused(store: LSMStore, batch) -> bool:
    """Offer ``batch`` with ``wait=False``: True if the store said None."""
    return store.timed_write_batch(batch, wait=False) is None


def drain_stall(store: LSMStore) -> None:
    """Let merges run again and run them to quiescence."""
    release_merges(store)
    store.maintenance()
    assert not store.write_stalled


def test_rejected_batch_is_atomic_no_partial_state(tmp_path):
    batch = [
        (b"batch-put-a", b"1"),
        (b"fill-seed-000000", None),  # delete of a landed key
        (b"batch-put-b", b"2"),
    ]
    with LSMStore.open(str(tmp_path), STALL_OPTIONS) as store:
        landed = fill_until_gate_closes(store, b"seed")
        assert landed > 0
        entries_before = store.stats().memtable_entries

        assert refused(store, batch)

        # The refusal never entered the gate: no stall counted...
        assert store.stats().write_stalls == 0
        assert stall_outcomes(store) == []
        # ...and left no partial effects: puts absent, delete not applied.
        assert store.stats().memtable_entries == entries_before
        assert store.get(b"batch-put-a") is None
        assert store.get(b"batch-put-b") is None
        assert store.get(b"fill-seed-000000") == b"x" * 256


def test_rejected_batch_leaves_no_wal_trace_across_reopen(tmp_path):
    batch = [(b"batch-ghost", b"boo"), (b"fill-seed-000001", None)]
    store = LSMStore.open(str(tmp_path), STALL_OPTIONS)
    landed = fill_until_gate_closes(store, b"seed")
    wal_before = store.wal_position()
    assert refused(store, batch)
    # The gate is checked before the WAL append: nothing was logged.
    assert store.wal_position() == wal_before
    store.crash()  # the log is replayed as it lies, not flushed away

    with LSMStore.open(str(tmp_path), STALL_OPTIONS) as reopened:
        assert reopened.get(b"batch-ghost") is None
        assert reopened.get(b"fill-seed-000001") == b"x" * 256
        assert reopened.get(b"fill-seed-%06d" % (landed - 1)) == b"x" * 256


def test_batch_lands_atomically_once_stall_clears(tmp_path):
    batch = [
        (b"batch-put-a", b"1"),
        (b"fill-seed-000000", None),
        (b"batch-put-b", b"2"),
    ]
    with LSMStore.open(str(tmp_path), STALL_OPTIONS) as store:
        fill_until_gate_closes(store, b"seed")
        assert refused(store, batch)

        drain_stall(store)
        assert not refused(store, batch)  # same batch, now admitted

        assert store.get(b"batch-put-a") == b"1"
        assert store.get(b"batch-put-b") == b"2"
        assert store.get(b"fill-seed-000000") is None  # tombstone applied


def test_blocking_mode_absorbs_the_stall_and_applies_the_batch(tmp_path):
    with LSMStore.open(str(tmp_path), STALL_OPTIONS) as store:
        # Apply the same pressure; a batch that may wait never raises —
        # its writer runs the released merges inside the gate.
        fill_until_gate_closes(store, b"seed")
        release_merges(store)

        batch = [(b"k-%03d" % i, b"v-%03d" % i) for i in range(50)]
        batch += [(b"fill-seed-%06d" % i, None) for i in range(10)]
        store.write_batch(batch)

        for i in range(50):
            assert store.get(b"k-%03d" % i) == b"v-%03d" % i
        for i in range(10):
            assert store.get(b"fill-seed-%06d" % i) is None
        stats = store.stats()
        # The blocking stall was observed and its time accounted.
        assert stats.write_stalls == 1
        assert not store.write_stalled
        assert stats.stall_seconds_total >= 0.0


def test_mixed_batch_round_trips_through_wal_recovery(tmp_path):
    options = STALL_OPTIONS.with_(constraint_limit=0)
    batch = [(b"a", b"1"), (b"b", b"2"), (b"a", None), (b"c", b"3")]
    with LSMStore.open(str(tmp_path), options) as store:
        store.write_batch(batch)
        assert store.get(b"a") is None  # later delete wins inside the batch

    with LSMStore.open(str(tmp_path), options) as reopened:
        assert reopened.get(b"a") is None
        assert reopened.get(b"b") == b"2"
        assert reopened.get(b"c") == b"3"


# -- how a stall ended is what its ``stall_exit`` event says ---------------


def stall_outcomes(store: LSMStore) -> list[str]:
    return [
        event.fields["outcome"]
        for event in store.obs.tracer.events()
        if event.kind == "stall_exit"
    ]


def test_a_refused_write_enters_no_stall(tmp_path):
    """Only a write that waits at the gate is a stall: one offered with
    ``wait=False`` is answered None before it, with no event pair."""
    with LSMStore.open(str(tmp_path), STALL_OPTIONS) as store:
        landed = fill_until_gate_closes(store, b"seed")
        key = b"fill-seed-%06d" % landed
        assert store.timed_put(key, b"x", wait=False) is None
        assert store.timed_delete(b"fill-seed-000000", wait=False) is None
        kinds = {event.kind for event in store.obs.tracer.events()}
        assert not kinds & {"stall_enter", "stall_exit"}
        assert store.stats().write_stalls == 0


def test_a_write_that_rode_the_stall_out_exits_it_resumed(tmp_path):
    with LSMStore.open(str(tmp_path), STALL_OPTIONS) as store:
        landed = fill_until_gate_closes(store, b"seed")
        release_merges(store)
        store.put(b"fill-seed-%06d" % landed, b"x" * 256)
        assert stall_outcomes(store) == ["resumed"]
        assert store.stats().write_stalls == 1


def test_a_stall_nothing_can_clear_exits_failed(tmp_path):
    """The stalled writer runs the held-back work itself, and the disk
    fails the first run file write it makes: the put raises, and the
    stall, which nothing cleared, exits ``failed`` (it used to be
    logged as ``resumed``)."""

    def stall(directory: str, plan: FaultPlan) -> LSMStore:
        store = LSMStore.open(directory, STALL_OPTIONS.with_(fault_plan=plan))
        hold_back_merges(store)
        index = 0
        while not store.write_stalled:
            # Sixteen keys, so every run overlaps the others and a merge
            # rewrites its inputs instead of linking their files.
            store.put(b"fill-%02d" % (index % 16), b"x" * 256)
            index += 1
        return store

    # Inline maintenance replays alike: the gate closes after as many
    # run file writes on a second store.
    dry = FaultPlan()
    with stall(str(tmp_path / "dry"), dry):
        written = dry.occurrences("sstable.write")
    plan = FaultPlan([FaultRule("sstable.write", written)])
    with stall(str(tmp_path / "db"), plan) as store:
        release_merges(store)
        with pytest.raises(FaultInjectedError):
            store.put(b"after", b"x" * 256)
        assert plan.fired
        assert stall_outcomes(store) == ["failed"]
        assert store.stats().write_stalls == 1


def test_a_stall_the_store_was_closed_under_exits_closed(tmp_path):
    options = STALL_OPTIONS.with_(background_maintenance=True)
    store = LSMStore.open(str(tmp_path), options)
    parked = threading.Event()
    emit = store.obs.tracer.emit

    def watching(kind, **fields):
        event = emit(kind, **fields)
        if kind == "stall_enter":
            parked.set()
        return event

    store.obs.tracer.emit = watching
    # Workers that flush but never claim a merge: runs pile up until
    # the gate closes, and the writer parks in it for good.
    hold_back_merges(store)
    raised: list[BaseException] = []

    def writer() -> None:
        try:
            for index in range(100_000):
                store.put(b"fill-%06d" % index, b"x" * 256)
        except BaseException as error:  # noqa: BLE001 — reported below
            raised.append(error)

    thread = threading.Thread(target=writer, daemon=True)
    thread.start()
    try:
        assert parked.wait(30.0), "the writer never stalled"
    finally:
        store.close()  # merges still held back: nothing can resume it
    thread.join(30.0)
    assert not thread.is_alive()
    assert [type(error) for error in raised] == [ClosedError]
    assert stall_outcomes(store) == ["closed"]

