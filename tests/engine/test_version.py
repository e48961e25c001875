"""Reads against an immutable ``Version``: what may run beside them.

A get pins the current version and answers from it without the store
lock; a scan holds the lock only to pin it and copy the active
memtable's rows. These tests race reads against flushes, merges, a
write to the key being read, ``close()``, and a publish that holds the
lock — each an interleaving the single-threaded tests never reach.
"""

import os
import sys
import threading

import pytest

from repro.engine import LSMStore, StoreOptions, Version
from repro.errors import ClosedError

WORKERS = StoreOptions(
    memtable_bytes=4096,
    policy="tiering",
    size_ratio=3,
    levels=3,
    scheduler="greedy",
    background_maintenance=True,
    maintenance_threads=1,
)
INLINE = WORKERS.with_(background_maintenance=False)

#: How long a read that must not wait is given to finish.
PROMPT = 5.0


def key(index: int) -> bytes:
    return b"a%04d" % index


def in_thread(target, *args, name=None):
    """Run ``target(*args)`` on a thread; the thread and a one-slot
    list for its answer, or the exception it raised."""
    outcome = []

    def run():
        try:
            outcome.append(target(*args))
        except BaseException as error:  # noqa: BLE001 — handed back
            outcome.append(error)

    thread = threading.Thread(target=run, name=name, daemon=True)
    thread.start()
    return thread, outcome


def test_reads_equal_the_model_while_a_worker_flushes_and_merges(tmp_path):
    """Readers check every key and several ranges against a model that
    stands still while they read; a second writer keeps filling 4 KiB
    memtables with keys outside the model's range, so rotations, flush
    publishes and merge publishes install versions under the reads —
    more threads than cores, switched every 10 µs."""
    model: dict[bytes, bytes] = {}
    errors: list[str] = []
    with LSMStore.open(str(tmp_path / "db"), WORKERS) as store:
        churn_stop = threading.Event()

        def churn():
            index = 0
            while not churn_stop.is_set():
                store.put(b"z%06d" % index, b"c" * 100)
                index += 1

        def read(reader: int):
            for _ in range(3):
                for index in range(120):
                    got = store.get(key(index))
                    if got != model.get(key(index)):
                        errors.append(f"get {key(index)!r}: {got!r}")
                for lo, hi, limit in (
                    (b"a", b"b", None),
                    (key(10), key(90), 7),
                    (key(reader * 7), b"b", 25),
                ):
                    expected = sorted(
                        (k, v) for k, v in model.items() if lo <= k < hi
                    )[:limit]
                    got = list(store.scan(lo, hi, limit))
                    if got != expected:
                        errors.append(f"scan {lo!r}..{hi!r}/{limit}")

        churner = threading.Thread(target=churn, daemon=True)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads finely
        churner.start()
        try:
            for round_ in range(12):
                for index in range(round_ % 3, 120, 3):
                    if (index + round_) % 5 == 0:
                        store.delete(key(index))
                        model.pop(key(index), None)
                    else:
                        value = b"r%d-" % round_ + b"v" * 60
                        store.put(key(index), value)
                        model[key(index)] = value
                readers = [
                    threading.Thread(target=read, args=(n,)) for n in range(3)
                ]
                for thread in readers:
                    thread.start()
                for thread in readers:
                    thread.join(PROMPT * 6)
                    assert not thread.is_alive()
        finally:
            sys.setswitchinterval(switch)
            churn_stop.set()
            churner.join(PROMPT)
        assert not churner.is_alive()
        assert not errors, errors[:5]
        stats = store.stats()
        assert stats.merges_completed > 0
        assert store.obs.registry.counter("engine_flushes_total").value > 12


def test_a_run_read_overtaken_by_a_write_and_its_flush_leaves_no_row(
    tmp_path, monkeypatch
):
    """The row-install race, forced: a get reads the old value from a
    run and pauses; the key is written and flushed; the get resumes.
    It may answer the old value — it read before the write — but it
    must not cache that value as the key's row, or the next get would
    answer it from the row after the memtable that held the new value
    is gone."""
    from repro.engine import sstable

    with LSMStore.open(str(tmp_path / "db"), INLINE) as store:
        store.put(b"k", b"old")
        store.flush()
        read_done, resume = threading.Event(), threading.Event()
        reader_get = sstable.SSTableReader.get
        paused = []

        def pausing_get(self, wanted):
            answer = reader_get(self, wanted)
            if not paused and threading.current_thread().name == "racer":
                paused.append(wanted)
                read_done.set()
                resume.wait(PROMPT)
            return answer

        monkeypatch.setattr(sstable.SSTableReader, "get", pausing_get)
        outcome = []
        racer = threading.Thread(
            target=lambda: outcome.append(store.get(b"k")), name="racer"
        )
        racer.start()
        assert read_done.wait(PROMPT)
        store.put(b"k", b"new")
        store.flush()
        resume.set()
        racer.join(PROMPT)
        assert outcome == [b"old"]
        assert store.get(b"k") == b"new"
        # With nothing racing, a run's answer still becomes the row.
        monkeypatch.setattr(sstable.SSTableReader, "get", reader_get)
        store.put(b"other", b"x")
        store.flush()
        assert store.get(b"other") == b"x"
        hits = store.stats().row_hits
        assert store.get(b"other") == b"x"
        assert store.stats().row_hits == hits + 1


@pytest.fixture
def closed_reads(monkeypatch):
    """Descriptors read after they were closed: ``os.close`` and
    ``os.open`` are tracked, and every ``os.pread`` checked against
    them."""
    closed_fds: set[int] = set()
    read_closed: list[int] = []
    real_close, real_open, real_pread = os.close, os.open, os.pread

    def tracking_close(fd):
        closed_fds.add(fd)
        real_close(fd)

    def tracking_open(*args, **kwargs):
        fd = real_open(*args, **kwargs)
        closed_fds.discard(fd)
        return fd

    def tracking_pread(fd, length, offset):
        if fd in closed_fds:
            read_closed.append(fd)
        return real_pread(fd, length, offset)

    monkeypatch.setattr(os, "close", tracking_close)
    monkeypatch.setattr(os, "open", tracking_open)
    monkeypatch.setattr(os, "pread", tracking_pread)
    return read_closed


EXPECTED = {key(index): b"v%04d" % index for index in range(200)}


def loaded(directory: str) -> LSMStore:
    """A store holding ``EXPECTED`` in runs, with no merge left for its
    close to run: the runs a read pins are the ones the close lets go."""
    store = LSMStore.open(directory, WORKERS)
    for k, v in EXPECTED.items():
        store.put(k, v)
    store.flush()
    store.maintenance()
    return store


def test_reads_paused_across_a_whole_close_still_answer(
    tmp_path, monkeypatch, closed_reads
):
    """A get stopped before its run probe and a scan stopped after its
    memtable copy both resume after ``close()`` has returned: each
    answers from the runs of the version it pinned, whose files are
    still open, and no descriptor is read after it was closed — a
    reused number would read another file, fail its checksum and
    quarantine a healthy run."""
    from repro.engine import sstable

    directory = str(tmp_path / "db")
    store = loaded(directory)
    paused = {"get": threading.Event(), "scan": threading.Event()}
    resume = threading.Event()
    might_contain = sstable.SSTableReader.might_contain
    scan = Version.scan

    def pause(name):
        if threading.current_thread().name == name:
            paused[name].set()
            resume.wait(PROMPT)

    def paused_probe(self, wanted):
        pause("get")
        return might_contain(self, wanted)

    def paused_scan(self, *args):
        pause("scan")
        return scan(self, *args)

    monkeypatch.setattr(sstable.SSTableReader, "might_contain", paused_probe)
    monkeypatch.setattr(Version, "scan", paused_scan)
    getter, got = in_thread(store.get, key(7), name="get")
    scanner, scanned = in_thread(store.scan, key(3), None, 2, name="scan")
    assert paused["get"].wait(PROMPT) and paused["scan"].wait(PROMPT)
    store.close()
    resume.set()
    for thread in (getter, scanner):
        thread.join(PROMPT)
        assert not thread.is_alive()
    assert got == [EXPECTED[key(7)]]
    assert list(scanned[0]) == [(key(n), EXPECTED[key(n)]) for n in (3, 4)]
    assert not closed_reads
    with LSMStore.open(directory, WORKERS) as store:
        assert store.quarantined_entries() == []


def test_a_read_racing_close_answers_or_raises_closed(tmp_path, closed_reads):
    """Reads hammering a store while it closes each return the right
    answer or raise ``ClosedError``, and nothing else."""
    directory = str(tmp_path / "db")
    for _ in range(3):
        store = loaded(directory)
        wrong: list[object] = []
        start = threading.Barrier(4)

        def read(offset: int):
            start.wait()
            index = offset
            while True:
                k = key(index % 200)
                try:
                    if index % 5 == 0:
                        got = dict(store.scan(k, None, 3))
                        if any(EXPECTED[s] != v for s, v in got.items()):
                            wrong.append(got)
                    elif store.get(k) != EXPECTED[k]:
                        wrong.append(k)
                except ClosedError:
                    return
                except Exception as error:  # noqa: BLE001 — the finding
                    wrong.append(error)
                    return
                index += 1

        readers = [
            threading.Thread(target=read, args=(n * 31,), daemon=True)
            for n in range(3)
        ]
        for thread in readers:
            thread.start()
        start.wait()
        store.close()
        for thread in readers:
            thread.join(PROMPT)
            assert not thread.is_alive()
        assert not wrong, wrong[:3]
    assert not closed_reads
    with LSMStore.open(directory, WORKERS) as store:
        assert store.quarantined_entries() == []


def test_reads_finish_while_a_publish_holds_the_store_lock(
    tmp_path, monkeypatch
):
    """A flush publish holds the store lock across its fsynced manifest
    line. A get — from a run, from the memtable, or absent — and a
    bounded scan that had copied its memtable rows before the publish
    took the lock all finish while it still holds it."""
    with LSMStore.open(str(tmp_path / "db"), INLINE) as store:
        for index in range(0, 100, 2):
            store.put(key(index), b"run")
        store.flush()
        store.put(key(1), b"memtable")

        copied, go = threading.Event(), threading.Event()
        scan = Version.scan

        def scan_after_the_publish_starts(self, *args):
            copied.set()
            go.wait(PROMPT)
            return scan(self, *args)

        monkeypatch.setattr(Version, "scan", scan_after_the_publish_starts)
        scanner, scanned = in_thread(store.scan, key(0), key(6), 3)
        assert copied.wait(PROMPT)

        publishing, release = threading.Event(), threading.Event()
        append = store._manifest._append

        def slow_append(edit):
            assert store._lock._is_owned()
            publishing.set()
            release.wait(PROMPT * 4)
            append(edit)

        monkeypatch.setattr(store._manifest, "_append", slow_append)
        store.put(key(3), b"flushed")
        publisher, _ = in_thread(store.flush)
        try:
            assert publishing.wait(PROMPT)
            go.set()
            scanner.join(PROMPT)
            assert not scanner.is_alive(), "the scan waited on the lock"
            assert list(scanned[0]) == [
                (key(0), b"run"), (key(1), b"memtable"), (key(2), b"run")
            ]
            for wanted, answer in (
                (key(4), b"run"),
                (key(1), b"memtable"),
                (key(5), None),
                (key(3), b"flushed"),
            ):
                getter, got = in_thread(store.get, wanted)
                getter.join(PROMPT)
                assert not getter.is_alive(), f"get {wanted!r} waited"
                assert got == [answer]
            assert publisher.is_alive()  # the lock was held throughout
        finally:
            release.set()
            publisher.join(PROMPT)
        assert store.get(key(3)) == b"flushed"


@pytest.mark.parametrize("limit", [1, 2, 4])
def test_a_bounded_scan_sees_past_the_active_memtables_tombstones(
    tmp_path, limit
):
    """The active memtable's copy stops after ``limit`` plus its
    tombstones: deleted keys newest in the memtable still shadow their
    runs' values, and the rows past them come from the runs."""
    with LSMStore.open(str(tmp_path / "db"), INLINE) as store:
        for index in range(10):
            store.put(key(index), b"run")
        store.flush()
        for index in range(4):
            store.delete(key(index))
        store.put(key(9), b"memtable")
        rows = list(store.scan(None, None, limit))
        assert rows == [(key(4 + n), b"run") for n in range(limit)]
