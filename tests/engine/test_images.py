"""Run images: what a reset ships and a checkpoint copies, and the
install that makes one the whole of a follower's store."""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.engine import LSMStore, StoreOptions, verify_store

from .images import chunks, frozen, install, unnamed_runs

INLINE = StoreOptions(
    memtable_bytes=16 * 1024,
    policy="tiering",
    size_ratio=3,
    levels=3,
    background_maintenance=False,
)
WORKERS = INLINE.with_(memtable_bytes=8 * 1024, background_maintenance=True)
ROWS = [(b"row-%04d" % index, b"image" * 8) for index in range(300)]


@pytest.mark.parametrize("group_commit", [False, True])
def test_an_image_holds_exactly_the_writes_before_its_lsn(
    tmp_path, group_commit
):
    """Writers keep going while the image is frozen: workers flush with
    the store lock released, and a commit group applies only after its
    fsync. Whatever lands meanwhile, the image's runs hold every write
    whose log frame ends at or before its LSN, and no other."""
    options = WORKERS.with_(group_commit=group_commit)
    leader = LSMStore.open(str(tmp_path / "leader"), options)
    ends, stop, seen = {}, threading.Event(), []

    def write(prefix):
        index = 0
        while not stop.is_set():
            key = b"%s-%08d" % (prefix, index)
            ends[key] = leader.timed_put(key, b"v" * 100).wal_end
            index += 1

    writers = [
        threading.Thread(target=write, args=(prefix,))
        for prefix in (b"a", b"b")
    ]
    try:
        for writer in writers:
            writer.start()
        for attempt in range(4):
            time.sleep(0.05)
            image = leader.run_image()
            copy = LSMStore.open(str(tmp_path / f"copy{attempt}"), INLINE)
            with copy:
                install(copy, image)
                seen.append((image.lsn, [key for key, _ in copy.scan()]))
    finally:
        stop.set()
        for writer in writers:
            writer.join()
        leader.close()
    for lsn, keys in seen:
        assert keys
        assert keys == sorted(key for key, end in ends.items() if end <= lsn)
    assert len({lsn for lsn, _keys in seen}) == len(seen)


def _failures(store):
    return store.obs.registry.counter("engine_maintenance_failures_total").value


def test_an_install_abandons_the_merges_it_supersedes(tmp_path):
    """A merge pending when the install runs is abandoned — its partial
    output deleted — for its inputs go: nothing publishes over the
    image, and no later chunk meets a retired input file."""
    follower = LSMStore.open(str(tmp_path / "follower"), INLINE)
    try:
        follower._compaction.claim_merge = lambda: None  # hold merges
        for index in range(1200):
            follower.put(b"old-%04d" % (index % 250), b"x" * 100)
        assert follower._compaction.merge_jobs_in_flight
        assert unnamed_runs(follower)  # the pending merge's output
        with frozen(tmp_path / "leader", ROWS) as image:
            install(follower, image)
        assert follower._compaction.merge_jobs_in_flight == 0
        assert unnamed_runs(follower) == []
        del follower._compaction.claim_merge
        follower.maintenance()
        assert list(follower.scan()) == ROWS
        assert not _failures(follower)
    finally:
        follower.close()
    assert verify_store(str(tmp_path / "follower")).clean


def test_an_install_waits_out_a_merge_chunk_a_worker_has_claimed(
    tmp_path,
):
    """The chunk a worker is advancing (here the whole merge, slowed by
    the rate limiter) publishes before the install's edit, never after
    it, over runs that no longer exist."""
    directory = str(tmp_path / "follower")
    options = WORKERS.with_(rate_limit_bytes_per_s=128 * 1024)
    follower = LSMStore.open(directory, options)
    try:
        with frozen(tmp_path / "leader", ROWS) as image:
            for index in range(400):
                follower.put(b"old-%04d" % (index % 97), b"x" * 100)
            deadline = time.monotonic() + 10.0
            while not follower._compaction.merge_claimed():
                assert time.monotonic() < deadline, "no merge chunk claimed"
                time.sleep(0.001)
            install(follower, image)
        assert follower._compaction.merge_jobs_in_flight == 0
        assert unnamed_runs(follower) == []
        follower.maintenance()
        assert list(follower.scan()) == ROWS
        assert not _failures(follower)
    finally:
        follower.close()
    report = verify_store(directory)
    assert report.clean and not report.orphan_files
    with LSMStore.open(directory, INLINE) as reopened:
        assert list(reopened.scan()) == ROWS


def test_a_crash_right_after_an_install_reopens_to_exactly_the_image(
    tmp_path,
):
    """The follower's own writes were in its memtable and its log. They
    are forgotten and the log is cut before the edit, so a crash never
    replays them over the image."""
    directory = str(tmp_path / "follower")
    follower = LSMStore.open(directory, INLINE)
    follower.write_batch([(b"old-run", b"1")])
    follower.flush()
    follower.write_batch([(b"old-log", b"2"), (ROWS[0][0], b"stale")])
    assert follower.stats().wal_bytes > 0
    with frozen(tmp_path / "leader", ROWS) as image:
        install(follower, image)
    assert follower.stats().wal_bytes == 0
    follower.crash()
    with LSMStore.open(directory, INLINE) as reopened:
        assert list(reopened.scan()) == ROWS
        assert reopened.stats().memtable_entries == 0
        assert unnamed_runs(reopened) == []
    assert verify_store(directory).clean


def test_a_checkpoint_is_the_image_linked(tmp_path):
    """A checkpoint copies exactly the runs an image would ship."""
    with LSMStore.open(str(tmp_path / "db"), INLINE) as store:
        store.write_batch(ROWS)
        names = [name for name, _reader, _size in store.run_image().files]
        store.checkpoint(str(tmp_path / "copy"))
    with LSMStore.open(str(tmp_path / "copy"), INLINE) as copy:
        assert list(copy.scan()) == ROWS
        assert [n for r in copy.live_runs() for n in r.files] == names


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
)
def test_an_image_holds_no_descriptor_of_its_own(tmp_path):
    """An image pins the store's readers and opens nothing: after a
    checkpoint, a chunked read of every file and the store's close,
    dropping the image leaves the process the descriptors it had
    before the store opened."""

    def open_fds():
        return len(os.listdir("/proc/self/fd"))

    before = open_fds()
    store = LSMStore.open(str(tmp_path / "db"), INLINE)
    store.write_batch(ROWS)
    image = store.run_image()
    assert image.files
    store.checkpoint(str(tmp_path / "copy"))
    sent = b"".join(chunk["span"] for chunk in chunks(image, limit=4096))
    assert len(sent) == sum(size for _name, _reader, size in image.files)
    store.close()
    assert open_fds() > before  # the image still pins the run files
    del image
    assert open_fds() == before
