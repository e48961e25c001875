"""The block-at-a-time merge: equivalence with the record-at-a-time
reference, and when a block may (and may not) be copied verbatim.

:func:`repro.engine.iterators.reconciling_iterator` is the reference:
whatever :class:`MergeJob` writes must be, entry for entry, what the
iterator yields over the same inputs.
"""

import hashlib
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.components import Component, MergeDescriptor
from repro.engine import (
    CompactionManager,
    LSMStore,
    Manifest,
    SSTableReader,
    SSTableWriter,
    StoreOptions,
    merge,
    sstable,
    verify_store,
)
from repro.engine.bloom import BloomFilter
from repro.engine.merge import MergeJob
from repro.engine.iterators import reconciling_iterator
from repro.engine.ratelimiter import RateLimiter
from repro.engine.runs import Run
from repro.errors import CorruptionError

from . import bare_manager


def key(index):
    return b"k%06d" % index


def write_run(path, entries, **writer_options):
    writer = SSTableWriter(str(path), **writer_options)
    writer.add_many(entries)
    return writer.finish()


def make_job(
    paths, output, options, drop_tombstones, may_link=False, limiter=None
):
    """A MergeJob over ``paths`` (oldest first), as the manager builds
    it, each path a run of one file; one that may not link takes the
    k-way path whatever its inputs."""
    runs = [Run((SSTableReader(str(path)),)) for path in paths]
    descriptor = MergeDescriptor(
        uid=1,
        inputs=[
            Component(
                uid=index,
                level=0,
                size_bytes=float(run.data_bytes),
                entry_count=float(run.entry_count),
            )
            for index, run in enumerate(runs)
        ],
        target_level=1,
    )
    link_order = merge._link_order
    if not may_link:
        merge._link_order = lambda *args: None
    try:
        job = MergeJob(
            descriptor,
            list(enumerate(runs))[::-1],
            str(output),
            options,
            limiter or RateLimiter(0),
            drop_tombstones=drop_tombstones,
        )
    finally:
        merge._link_order = link_order
    job.inputs = runs  # closed by run_job
    return job


def run_job(job, chunk_bytes=1 << 20):
    chunks = 0
    while not job.advance(chunk_bytes):
        chunks += 1
        assert chunks < 1_000_000
    close_job(job)
    return job.stats


def close_job(job):
    job.close_readers()
    for run in job.inputs:
        for reader in run.files:
            reader.close()


def reference(paths, drop_tombstones):
    readers = [SSTableReader(str(path)) for path in reversed(paths)]
    try:
        return list(
            reconciling_iterator(
                [reader.items() for reader in readers],
                keep_tombstones=not drop_tombstones,
            )
        )
    finally:
        for reader in readers:
            reader.close()


def read_back(path):
    reader = SSTableReader(str(path))
    try:
        return list(reader.items())
    finally:
        reader.close()


#: 300-byte values under the default 4 KiB block size: an entry takes
#: 315 bytes, so a block closes on its 14th (4 410 bytes) and a run of
#: ``blocks * PER_BLOCK`` entries is that many full blocks and no tail.
VALUE = b"v" * 300
PER_BLOCK = 14
OPTIONS = StoreOptions()


def disjoint_runs(
    tmp_path, blocks_per_run=3, runs=3, overlap=False, **writer_options
):
    """``runs`` runs of ``blocks_per_run`` full blocks, keys 1000 apart.

    With ``overlap`` the oldest also holds one key just past the newest
    run's last: the inputs' ranges overlap, so a merge of them takes
    the k-way path, while each of them still lies below the others'
    heads but for that key.
    """
    paths = []
    for index in range(runs):
        start = index * 1000
        path = tmp_path / f"in{index}.run"
        entries = [
            (key(start + i), VALUE) for i in range(blocks_per_run * PER_BLOCK)
        ]
        if overlap and index == 0:
            last = (runs - 1) * 1000 + blocks_per_run * PER_BLOCK
            entries.append((key(last), VALUE))
        write_run(path, entries, **writer_options)
        paths.append(path)
    return paths


class TestPassThrough:
    def test_disjoint_inputs_are_copied_block_for_block(self, tmp_path):
        paths = disjoint_runs(tmp_path)
        expected = reference(paths, drop_tombstones=True)
        job = make_job(paths, tmp_path / "out.run", OPTIONS, True)
        stats = run_job(job)
        assert (job.blocks_copied, job.blocks_rewritten) == (9, 0)
        assert read_back(stats.path) == expected
        assert stats.entry_count == 9 * PER_BLOCK
        # Verbatim means verbatim: each output block's stored bytes are
        # an input block's.
        stored = set()
        for path in paths:
            reader = SSTableReader(str(path))
            stored |= {
                reader.read_data_block(i).stored
                for i in range(reader.block_count)
            }
            reader.close()
        reader = SSTableReader(stats.path)
        assert {
            reader.read_data_block(i).stored
            for i in range(reader.block_count)
        } == stored
        reader.close()

    def test_short_tail_blocks_are_repacked_not_copied(self, tmp_path):
        paths = []
        for index in range(2):
            path = tmp_path / f"in{index}.run"
            entries = [
                (key(index * 1000 + i), VALUE)
                for i in range(2 * PER_BLOCK + 3)
            ]
            if index == 0:  # overlaps the next run: a k-way merge
                entries.append((key(1000 + 2 * PER_BLOCK + 3), VALUE))
            write_run(path, entries)
            paths.append(path)
        job = make_job(paths, tmp_path / "out.run", OPTIONS, True)
        stats = run_job(job)
        assert (job.blocks_copied, job.blocks_rewritten) == (4, 2)
        assert read_back(stats.path) == reference(paths, True)

    def test_overlapping_blocks_are_rewritten(self, tmp_path):
        old = tmp_path / "old.run"
        new = tmp_path / "new.run"
        write_run(old, [(key(2 * i), VALUE) for i in range(3 * PER_BLOCK)])
        write_run(new, [(key(2 * i + 1), VALUE) for i in range(3 * PER_BLOCK)])
        job = make_job([old, new], tmp_path / "out.run", OPTIONS, True)
        stats = run_job(job)
        assert (job.blocks_copied, job.blocks_rewritten) == (0, 6)
        assert read_back(stats.path) == reference([old, new], True)

    @pytest.mark.parametrize(
        "input_codec, output_codec", [("zlib", "none"), ("none", "zlib")]
    )
    def test_codec_mismatched_blocks_are_never_copied(
        self, tmp_path, input_codec, output_codec
    ):
        paths = disjoint_runs(tmp_path, block_codec=input_codec)
        options = StoreOptions(block_codec=output_codec)
        job = make_job(paths, tmp_path / "out.run", options, True)
        stats = run_job(job)
        assert job.blocks_copied == 0 and job.blocks_rewritten == 9
        assert stats.codec == output_codec
        assert read_back(stats.path) == reference(paths, True)

    def test_matching_compressed_blocks_are_copied(self, tmp_path):
        paths = disjoint_runs(tmp_path, block_codec="zlib")
        options = StoreOptions(block_codec="zlib")
        job = make_job(paths, tmp_path / "out.run", options, True)
        stats = run_job(job)
        assert (job.blocks_copied, job.blocks_rewritten) == (9, 0)
        assert stats.data_bytes < stats.logical_bytes
        assert read_back(stats.path) == reference(paths, True)

    def test_blocks_of_another_block_size_are_repacked(self, tmp_path):
        paths = disjoint_runs(tmp_path, block_bytes=1024)
        job = make_job(paths, tmp_path / "out.run", OPTIONS, True)
        stats = run_job(job)
        assert job.blocks_copied == 0
        assert read_back(stats.path) == reference(paths, True)

    def test_droppable_tombstones_block_the_copy(self, tmp_path):
        paths = disjoint_runs(tmp_path, runs=2)
        entries = [(key(5000 + i), VALUE) for i in range(3 * PER_BLOCK)]
        entries[PER_BLOCK + 2] = (entries[PER_BLOCK + 2][0], None)
        deleted = tmp_path / "deleted.run"
        write_run(deleted, entries)
        paths.append(deleted)

        dropping = make_job(paths, tmp_path / "drop.run", OPTIONS, True)
        stats = run_job(dropping)
        assert (dropping.blocks_copied, dropping.blocks_rewritten) == (8, 1)
        assert stats.tombstone_count == 0
        assert stats.entry_count == 9 * PER_BLOCK - 1
        assert read_back(stats.path) == reference(paths, True)

        # The same tombstone is no obstacle when the merge keeps it.
        keeping = make_job(paths, tmp_path / "keep.run", OPTIONS, False)
        stats = run_job(keeping)
        assert (keeping.blocks_copied, keeping.blocks_rewritten) == (9, 0)
        assert stats.tombstone_count == 1
        assert read_back(stats.path) == reference(paths, False)

    def test_rate_limiter_is_debited_every_byte(self, tmp_path):
        paths = disjoint_runs(tmp_path)
        limiter = RateLimiter(0)
        job = make_job(
            paths, tmp_path / "out.run", OPTIONS, True, limiter=limiter
        )
        stats = run_job(job)
        assert job.blocks_copied == 9
        assert limiter.total_admitted_bytes == os.path.getsize(stats.path)

    def test_a_chunk_boundary_inside_a_block_resumes_there(self, tmp_path):
        paths = disjoint_runs(tmp_path, runs=2, overlap=True)
        expected = reference(paths, True)
        job = make_job(paths, tmp_path / "out.run", OPTIONS, True)
        # 1000 bytes end inside the first block (14 entries of 315
        # bytes): the chunk stops with the entry that reaches them.
        assert not job.advance(1000)
        consumed = (
            job.total_input_bytes - job.descriptor.remaining_input_bytes
        )
        assert consumed == 4 * 315
        remaining = [job.descriptor.remaining_input_bytes]
        while not job.advance(1000):
            remaining.append(job.descriptor.remaining_input_bytes)
            assert remaining[-1] < remaining[-2]
        close_job(job)
        assert job.descriptor.remaining_input_bytes == 0
        # Split blocks went through the re-pack path; nothing was lost
        # or repeated at any boundary.
        assert job.blocks_rewritten > 0
        assert read_back(job.stats.path) == expected
        assert job.stats.entry_count == len(expected)

    @pytest.mark.parametrize("damaged", [1, 3, 4])
    def test_corrupt_block_fails_the_copy_and_the_merge_is_abandoned(
        self, tmp_path, damaged
    ):
        directory = str(tmp_path)
        options = StoreOptions(
            memtable_bytes=64 * 1024, policy="tiering", size_ratio=3, levels=3
        )
        manifest = Manifest(directory)
        manager = CompactionManager(directory, options, manifest)
        for index in range(3):
            items = [
                (key(index * 1000 + i), VALUE) for i in range(5 * PER_BLOCK)
            ]
            bare_manager.flush(manager, iter(items), len(items))
        inputs = sorted(name for r in manifest.live_runs() for name in r.files)
        job = manager.claim_merge()
        # Flip a byte inside one block of the middle input — its second,
        # fourth or last — and the error must name that block.
        victim = os.path.join(directory, inputs[1])
        reader = SSTableReader(victim)
        offset, length = reader.block_span(damaged)
        reader.close()
        with open(victim, "r+b") as handle:
            handle.seek(offset + length // 2)
            byte = handle.read(1)
            handle.seek(offset + length // 2)
            handle.write(bytes([byte[0] ^ 0xFF]))
        with pytest.raises(CorruptionError) as raised:
            job.advance(manager.chunk_bytes)
        message = str(raised.value)
        assert victim in message
        assert f"offset {offset}" in message
        assert f"({length} bytes)" in message
        # The first run went out whole before the rot was reached.
        assert job.blocks_copied >= 5

        manager.fail_merge(job)
        assert not os.path.exists(job.output_path)
        assert not manager.has_work()
        live = manifest.live_runs()
        assert sorted(name for r in live for name in r.files) == inputs
        manager.close()
        manifest.close()


def block_reads(monkeypatch):
    """Record which blocks a merge reads, one ``(file, block)`` a read."""
    reads = []
    original = SSTableReader.read_data_block

    def recording(self, block_idx):
        reads.append((os.path.basename(self.path), block_idx))
        return original(self, block_idx)

    monkeypatch.setattr(SSTableReader, "read_data_block", recording)
    return reads


def every_block(paths):
    """Each ``(file, block)`` of the runs at ``paths``, sorted."""
    blocks = []
    for path in paths:
        reader = SSTableReader(str(path))
        blocks += [(path.name, i) for i in range(reader.block_count)]
        reader.close()
    return sorted(blocks)


class TestBlockwiseCopy:
    """A k-way merge reads each input block once and copies the whole
    ones it may verbatim; what cannot be copied is re-packed."""

    def test_disjoint_stretches_are_copied_block_by_block(
        self, tmp_path, monkeypatch
    ):
        paths = disjoint_runs(tmp_path, blocks_per_run=6, overlap=True)
        reads = block_reads(monkeypatch)
        job = make_job(paths, tmp_path / "out.run", OPTIONS, True)
        stats = run_job(job)
        # The overlapping key's block is the one re-packed.
        assert (job.blocks_copied, job.blocks_rewritten) == (18, 1)
        assert sorted(reads) == every_block(paths)
        assert read_back(stats.path) == reference(paths, True)

    def test_the_other_inputs_head_ends_the_copies(
        self, tmp_path, monkeypatch
    ):
        old = tmp_path / "old.run"
        new = tmp_path / "new.run"
        write_run(old, [(key(i), VALUE) for i in range(6 * PER_BLOCK)])
        # One newer entry inside the old run's fifth block: blocks 0-3
        # lie wholly below it, block 4 straddles it, block 5 is alone
        # again once the newer run is exhausted.
        inside = 4 * PER_BLOCK + 3
        write_run(new, [(key(inside), b"newer")])
        reads = block_reads(monkeypatch)
        job = make_job([old, new], tmp_path / "out.run", OPTIONS, True)
        stats = run_job(job)
        assert (job.blocks_copied, job.blocks_rewritten) == (5, 2)
        assert sorted(reads) == every_block([old, new])
        assert read_back(stats.path) == reference([old, new], True)
        assert dict(read_back(stats.path))[key(inside)] == b"newer"

    def test_a_block_larger_than_the_cap_still_moves(
        self, tmp_path, monkeypatch
    ):
        paths = disjoint_runs(tmp_path)
        monkeypatch.setattr(sstable, "SEQUENTIAL_IO_BYTES", 100)
        job = make_job(paths, tmp_path / "out.run", OPTIONS, True)
        stats = run_job(job)
        assert (job.blocks_copied, job.blocks_rewritten) == (9, 0)
        assert read_back(stats.path) == reference(paths, True)

    def test_an_ineligible_block_mid_run_is_read_once(
        self, tmp_path, monkeypatch
    ):
        # The middle run's third block holds a tombstone this merge
        # drops: it is re-packed, and the copies resume after it.
        entries = [(key(1000 + i), VALUE) for i in range(6 * PER_BLOCK)]
        entries[2 * PER_BLOCK + 5] = (entries[2 * PER_BLOCK + 5][0], None)
        paths = disjoint_runs(tmp_path, blocks_per_run=6, runs=1)
        deleted = tmp_path / "deleted.run"
        write_run(deleted, entries)
        paths.append(deleted)
        reads = block_reads(monkeypatch)
        job = make_job(paths, tmp_path / "out.run", OPTIONS, True)
        stats = run_job(job)
        assert (job.blocks_copied, job.blocks_rewritten) == (11, 1)
        assert sorted(reads) == every_block(paths)
        assert stats.tombstone_count == 0
        assert read_back(stats.path) == reference(paths, True)


def file_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


def fixed_store_files(directory):
    """Three fixed flushes and their 3-way merge through a store with
    inline maintenance; SHA-256 of every run file as it appears, and
    the merge's block counters."""
    options = StoreOptions(
        memtable_bytes=1 << 20,
        policy="tiering",
        size_ratio=3,
        levels=3,
        background_maintenance=False,
    )
    digests = {}

    def note_new_runs(store):
        for record in store.live_runs():
            [name] = record.files
            if name not in digests:
                path = os.path.join(str(directory), name)
                digests[name] = hashlib.sha256(file_bytes(path)).hexdigest()

    with LSMStore.open(str(directory), options) as store:
        # Oldest: a long stretch to itself, then overlap with the next.
        for index in range(0, 600):
            store.put(key(index), b"a%04d" % index + VALUE)
        store.flush()
        note_new_runs(store)
        # Inserted out of order; overwrites, deletes, short values.
        for index in reversed(range(400, 1000)):
            if index % 97 == 0:
                store.delete(key(index))
            else:
                store.put(key(index), b"b%04d" % index + VALUE[: index % 300])
        store.flush()
        note_new_runs(store)
        # Newest: disjoint from both but for two stray overwrites.
        for index in range(1000, 1400):
            store.put(key(index), b"c%04d" % index + VALUE)
        store.put(key(5), b"stray")
        store.delete(key(700))
        store.flush()
        note_new_runs(store)
        store.maintenance()
        assert store.stats().merges_completed == 1
        note_new_runs(store)
        counts = {
            counter["labels"]["path"]: counter["value"]
            for counter in store.obs.registry.snapshot()["counters"]
            if counter["name"] == "engine_merge_blocks_total"
        }
    return digests, counts


class TestSameFilesAsBefore:
    """Batching changes how the bytes move, not which bytes: the block
    counts below were produced by this function at commit 48bbd93 (one
    record per memtable node, one block per merge call), and so were
    the files' bytes up to their meta blocks. The digests are of the
    files since the meta block lost its ``format_version`` and
    ``filter`` keys, which the footer and filter magics already said."""

    DIGESTS = {
        "00000001.run": "d365a62dc27224aa4a67d31dea969f28e58c1a56b06933ef"
        "8a3d58e84de4c465",
        "00000002.run": "d0c549efacfd5dc3f159cc90c3c93ed0fe68446dcb6bca4b"
        "2e1e15637090790e",
        "00000003.run": "35e5dc2a2bd0cd15abeec09c3eeaba350883a980ae34b6dc"
        "23d4db22e1491570",
        "00000004.run": "d11c31de2918c64379631b35f61d97723cf78dfde7d4ed28"
        "d8ef4a7f0282d2bc",
    }
    COUNTS = {"copied": 67, "rewritten": 35}

    def test_flush_and_merge_outputs_are_byte_identical(self, tmp_path):
        digests, counts = fixed_store_files(tmp_path / "store")
        assert digests == self.DIGESTS
        assert counts == self.COUNTS


class TestStoreWiring:
    def test_merge_block_counters_reach_the_store_registry(self, tmp_path):
        options = StoreOptions(
            memtable_bytes=64 * 1024,
            policy="tiering",
            size_ratio=3,
            levels=3,
            background_maintenance=False,
        )
        with LSMStore.open(str(tmp_path / "store"), options) as store:
            for index in range(600):
                store.put(key(index), VALUE)
                if index == 300:  # the second flush overlaps the first
                    store.put(key(0), VALUE)
            store.flush()
            store.maintenance()
            assert store.stats().merges_completed > 0
            counts = {
                counter["labels"]["path"]: counter["value"]
                for counter in store.obs.registry.snapshot()["counters"]
                if counter["name"] == "engine_merge_blocks_total"
            }
            for index in range(0, 600, 7):
                assert store.get(key(index)) == VALUE
        assert set(counts) == {"copied", "rewritten"}
        # Sequential keys but for one: nearly every block is copied;
        # each input's short tail is re-packed.
        assert counts["copied"] > counts["rewritten"] > 0

    def test_scan_skips_runs_outside_the_range(self, tmp_path, monkeypatch):
        with LSMStore.open(str(tmp_path / "store"), StoreOptions()) as store:
            for start in (0, 1000):
                for index in range(start, start + 50):
                    store.put(key(index), b"x")
                store.flush()
            opened = []
            original = SSTableReader.walk_block

            def counting(self, block_idx):
                opened.append(self.min_key)
                return original(self, block_idx)

            # Every block a scan uses comes through walk_block; 50
            # small entries make one block per run.
            monkeypatch.setattr(SSTableReader, "walk_block", counting)
            assert [k for k, _ in store.scan(key(1010), key(1013))] == [
                key(1010), key(1011), key(1012)
            ]
            assert opened == [key(1000)]
            del opened[:]
            # max_key itself is still inside [lo, hi).
            assert [k for k, _ in store.scan(key(49), key(1000))] == [key(49)]
            assert opened == [key(0)]
            del opened[:]
            assert len(list(store.scan())) == 100
            assert sorted(opened) == [key(0), key(1000)]


def merge_blocks(store):
    """``engine_merge_blocks_total`` by path."""
    return {
        counter["labels"]["path"]: counter["value"]
        for counter in store.obs.registry.snapshot()["counters"]
        if counter["name"] == "engine_merge_blocks_total"
    }


#: About 600 keys per flush: enough that the inputs' filters may be
#: kept as they are when their files are linked.
LINKING = StoreOptions(
    memtable_bytes=48 * 1024,
    policy="tiering",
    size_ratio=3,
    levels=3,
    background_maintenance=False,
)


class TestLink:
    """A merge of key-disjoint inputs links them: the output run names
    their files in key order, and no byte is read or written."""

    def test_a_disjoint_merge_names_its_inputs_files_and_writes_nothing(
        self, tmp_path
    ):
        directory = str(tmp_path / "store")
        model = {}
        with LSMStore.open(directory, LINKING) as store:
            for start in (2000, 0, 1000):  # flushed out of key order
                for index in range(start, start + 600):
                    model[key(index)] = b"%05d" % index
                    store.put(key(index), model[key(index)])
                store.flush()
            inputs = store.live_runs()
            admitted = store.rate_limiter.total_admitted_bytes
            store.maintenance()
            assert store.stats().merges_completed == 1
            [output] = store.live_runs()
            # Key order: the second flush's keys, the third's, the first's.
            assert output.files == (
                inputs[1].files + inputs[2].files + inputs[0].files
            )
            assert output.level == 1
            assert output.sequence == max(r.sequence for r in inputs)
            assert store.rate_limiter.total_admitted_bytes == admitted
            blocks = merge_blocks(store)
            assert blocks["rewritten"] == 0 and blocks["linked"] > 0
            assert sorted(os.listdir(directory)) == sorted(
                [*output.files, "MANIFEST", "wal.log"]
            )
            assert dict(store.scan()) == model
            assert store.get(key(1599)) == model[key(1599)]
            assert store.get(key(700)) is None
        with LSMStore.open(directory, LINKING) as store:
            assert dict(store.scan()) == model
        assert verify_store(directory).clean

    def test_scans_cross_the_files_and_reads_survive_a_reopen(self, tmp_path):
        directory = str(tmp_path / "store")
        model = {key(i): b"%05d" % i for i in range(7200)}
        with LSMStore.open(directory, LINKING) as store:
            for entry_key, value in model.items():
                store.put(entry_key, value)
            store.flush()
            store.maintenance()
            assert store.stats().merges_completed >= 2
            assert set(merge_blocks(store)) == {"linked", "rewritten"}
            assert max(len(r.files) for r in store.live_runs()) > 3
            lo, hi = key(150), key(5000)
            assert list(store.scan(lo, hi)) == [
                (k, v) for k, v in model.items() if lo <= k < hi
            ]
            assert list(store.scan(lo, hi, limit=7)) == [
                (k, model[k]) for k in sorted(model) if k >= lo
            ][:7]
        with LSMStore.open(directory, LINKING) as store:
            assert list(store.scan()) == list(model.items())
            assert all(store.get(k) == v for k, v in model.items())
            assert store.get(key(150) + b"x") is None
        assert verify_store(directory).clean

    def test_every_key_passes_the_filter_and_absent_ones_as_often_as_one(
        self, tmp_path
    ):
        paths = []
        for index in range(3):
            path = tmp_path / f"in{index}.run"
            entries = [(key(index * 10_000 + i), b"v") for i in range(3000)]
            write_run(path, entries, expected_keys=len(entries))
            paths.append(path)
        job = make_job(paths, tmp_path / "out.run", OPTIONS, True, True)
        assert job.advance(1) and job.links == tuple(p.name for p in paths)
        assert not os.path.exists(job.output_path)
        run = Run(tuple(reader for r in job.inputs for reader in r.files))
        present = [entry_key for entry_key, _ in reference(paths, True)]
        assert all(run.might_contain(k) for k in present)
        assert [run.get(k) for k in present] == [(True, b"v")] * 9000
        # Beside every key and in the gaps between the files: each
        # probe asks the one filter whose range holds it.
        absent = [key(i) + b"x" for i in range(22_999)]
        passed = sum(run.might_contain(k) for k in absent) / len(absent)
        whole = BloomFilter(len(present), merge.BLOOM_BITS_PER_KEY)
        whole.add_many(present)
        one = sum(whole.might_contain(k) for k in absent) / len(absent)
        close_job(job)
        assert 0 < passed < 0.015 and passed < 1.5 * one

    def test_dropped_tombstones_and_overlaps_take_the_k_way_path(
        self, tmp_path
    ):
        paths = disjoint_runs(tmp_path, runs=1)
        deleted = tmp_path / "deleted.run"
        write_run(deleted, [(key(5000), None), (key(5001), VALUE)])
        inputs = [*paths, deleted]
        keeping = make_job(inputs, tmp_path / "k.run", OPTIONS, False, True)
        assert keeping.links == ("in0.run", "deleted.run")
        close_job(keeping)
        dropping = make_job(inputs, tmp_path / "d.run", OPTIONS, True, True)
        assert dropping.links is None
        assert run_job(dropping).tombstone_count == 0
        assert read_back(dropping.stats.path) == reference(inputs, True)
        overlapping = disjoint_runs(tmp_path, runs=2, overlap=True)
        job = make_job(overlapping, tmp_path / "o.run", OPTIONS, True, True)
        assert job.links is None
        assert read_back(run_job(job).path) == reference(overlapping, True)

    def test_small_runs_are_merged_rather_than_their_filters_kept(
        self, tmp_path
    ):
        # A run of 42 keys has a filter sized for 1,024, a writer's
        # least: two such filters fit in twice the one filter a k-way
        # merge builds, three do not.
        paths = disjoint_runs(tmp_path)
        two = make_job(paths[:2], tmp_path / "two.run", OPTIONS, True, True)
        assert two.links is not None
        close_job(two)
        three = make_job(paths, tmp_path / "three.run", OPTIONS, True, True)
        assert three.links is None
        reader = SSTableReader(run_job(three).path)
        assert isinstance(reader.point_filter, BloomFilter)
        reader.close()

    def test_a_run_names_at_most_the_file_cap(self, tmp_path, monkeypatch):
        paths = disjoint_runs(tmp_path, runs=2)
        monkeypatch.setattr(merge, "MAX_RUN_FILES", 1)
        job = make_job(paths, tmp_path / "out.run", OPTIONS, True, True)
        assert job.links is None
        assert read_back(run_job(job).path) == reference(paths, True)

    def test_a_sequential_load_of_small_flushes_keeps_its_filters_small(
        self, tmp_path
    ):
        directory = str(tmp_path / "store")
        options = StoreOptions(
            memtable_bytes=4096,
            policy="leveling",
            size_ratio=4,
            levels=3,
            background_maintenance=False,
        )
        with LSMStore.open(directory, options) as store:
            for index in range(3000):
                store.put(key(index), b"v")
            store.flush()
            store.maintenance()
            counts = merge_blocks(store)
            records = store.live_runs()
        # Every merge is key-disjoint, and some still link.
        assert counts["linked"] > 0
        for record in records:
            readers = [
                SSTableReader(os.path.join(directory, name))
                for name in record.files
            ]
            rebuilt = (
                max(
                    sum(r.entry_count for r in readers),
                    sstable.MIN_FILTER_KEYS,
                )
                * merge.BLOOM_BITS_PER_KEY
            )
            assert sum(r.point_filter.bit_size for r in readers) <= (
                merge.APPENDED_FILTER_BITS * rebuilt
            )
            for reader in readers:
                reader.close()

    def test_a_k_way_merge_holds_one_handle_per_input_run(
        self, tmp_path, monkeypatch
    ):
        """Its inputs are runs of several files each; a cursor opens
        the next file's sequential handle only once it closed the last."""
        directory = str(tmp_path / "store")
        model = {}
        with LSMStore.open(directory, LINKING) as store:
            for round_ in range(2):
                for batch in range(3):
                    for i in range(600):
                        index = batch * 10_000 + i * 2 + round_
                        model[key(index)] = b"%d" % round_
                        store.put(key(index), model[key(index)])
                    store.flush()
                store.maintenance()
            [first, second] = store.live_runs()
            assert len(first.files) == len(second.files) == 3
            open_handles, peak = set(), []
            sequential = SSTableReader.sequential_handle
            close = SSTableReader.close

            def opening(self):
                handle = sequential(self)
                open_handles.add(id(handle))
                peak.append(len(open_handles))
                return handle

            def closing(self):
                open_handles.discard(id(self))
                close(self)

            monkeypatch.setattr(SSTableReader, "sequential_handle", opening)
            monkeypatch.setattr(SSTableReader, "close", closing)
            for batch in range(3):  # the level-0 runs that cascade
                for i in range(600):
                    index = batch * 10_000 + 1 + 2 * i
                    model[key(index)] = b"2"
                    store.put(key(index), b"2")
                store.flush()
            store.maintenance()
            assert len(peak) >= 6 and max(peak) <= 3
            assert not open_handles
            assert dict(store.scan()) == model


# -- the property --------------------------------------------------------

_VALUES = st.one_of(
    # One entry in eight is a tombstone: common enough to sit in most
    # runs, rare enough to leave stretches of blocks without one.
    st.integers(0, 7).flatmap(
        lambda n: st.binary(max_size=40) if n else st.none()
    ),
    # Long and compressible: makes zlib blocks that really shrink and
    # blocks that fill on one or two entries.
    st.integers(1, 4).map(lambda n: b"compressible " * (8 * n)),
)


@st.composite
def _run_spec(draw, block_bytes, block_codec):
    """One input run: contents plus how it was written.

    Keys come from a window of a small key space, so runs both overlap
    (duplicates across runs) and leave stretches to themselves (whole
    blocks below every other input's head). Half the runs are written
    the way the merge writes (``block_bytes``, ``block_codec``), so
    that those stretches are copied verbatim, block by block; the
    rest differ in codec or block size.
    """
    lo = draw(st.integers(0, 120))
    width = draw(st.integers(1, 80))
    if draw(st.booleans()):
        # Every key of the window: enough entries for a run of blocks.
        indices = range(lo, lo + width + 1)
    else:
        indices = draw(
            st.sets(st.integers(lo, lo + width), min_size=1, max_size=60)
        )
    contents = [(key(i), draw(_VALUES)) for i in sorted(indices)]
    if draw(st.booleans()):
        return {
            "entries": contents,
            "block_codec": block_codec,
            "block_bytes": block_bytes,
        }
    return {
        "entries": contents,
        "block_codec": draw(st.sampled_from(["none", "zlib"])),
        "block_bytes": draw(st.sampled_from([128, 256])),
    }


@st.composite
def _merge_case(draw):
    """The output's block size and codec, and one to four input runs."""
    block_bytes = draw(st.sampled_from([128, 256]))
    block_codec = draw(st.sampled_from(["none", "zlib"]))
    runs = draw(
        st.lists(_run_spec(block_bytes, block_codec), min_size=1, max_size=4)
    )
    return block_bytes, block_codec, runs


class TestMatchesTheReference:
    @given(
        case=_merge_case(),
        drop_tombstones=st.booleans(),
        chunk_bytes=st.integers(1, 5000),
        io_bytes=st.sampled_from([64, 600, 1 << 18]),
    )
    @settings(max_examples=150, deadline=None)
    def test_merge_output_equals_the_reconciling_iterator(
        self,
        tmp_path_factory,
        case,
        drop_tombstones,
        chunk_bytes,
        io_bytes,
    ):
        block_bytes, block_codec, runs = case
        directory = tmp_path_factory.mktemp("merge")
        paths = []
        for index, spec in enumerate(runs):
            spec = dict(spec)
            path = directory / f"in{index}.run"
            write_run(path, spec.pop("entries"), **spec)
            paths.append(path)
        expected = reference(paths, drop_tombstones)
        options = StoreOptions(
            block_bytes=block_bytes, block_codec=block_codec
        )
        # ``io_bytes`` sizes the merge's file buffers: one block, a few,
        # or none.
        configured = sstable.SEQUENTIAL_IO_BYTES
        sstable.SEQUENTIAL_IO_BYTES = io_bytes
        try:
            job = make_job(
                paths, directory / "out.run", options, drop_tombstones
            )
            stats = run_job(job, chunk_bytes)
        finally:
            sstable.SEQUENTIAL_IO_BYTES = configured
        input_blocks = 0
        for path in paths:
            reader = SSTableReader(str(path))
            input_blocks += reader.block_count
            reader.close()
        assert job.blocks_copied + job.blocks_rewritten == input_blocks
        assert job.descriptor.remaining_input_bytes >= 0

        reader = SSTableReader(stats.path)
        try:
            assert list(reader.items()) == expected
            assert reader.entry_count == len(expected) == stats.entry_count
            tombstones = sum(1 for _, value in expected if value is None)
            assert reader.tombstone_count == tombstones
            if expected:
                assert reader.min_key == expected[0][0]
                assert reader.max_key == expected[-1][0]
            logical = 0
            for index in range(reader.block_count):
                logical += len(reader.read_data_block(index).payload)
            assert reader.logical_bytes == logical
            # The filter saw every key, copied or re-packed.
            for entry_key, value in expected:
                assert reader.might_contain(entry_key)
                assert reader.get(entry_key) == (True, value)
        finally:
            reader.close()
