"""The block-at-a-time merge: equivalence with the record-at-a-time
reference, and when a block may (and may not) be copied verbatim.

:func:`repro.engine.iterators.reconciling_iterator` is the reference:
whatever :class:`MergeJob` writes must be, entry for entry, what the
iterator yields over the same inputs.
"""

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
)
from repro.engine.compaction import MergeJob
from repro.engine.iterators import reconciling_iterator
from repro.engine.ratelimiter import RateLimiter
from repro.errors import CorruptionError


def key(index):
    return b"k%06d" % index


def write_run(path, entries, **writer_options):
    writer = SSTableWriter(str(path), **writer_options)
    writer.add_many(entries)
    return writer.finish()


def make_job(paths, output, options, drop_tombstones, limiter=None):
    """A MergeJob over ``paths`` (oldest first), as the manager builds it."""
    readers = [SSTableReader(str(path)) for path in paths]
    descriptor = MergeDescriptor(
        uid=1,
        inputs=[
            Component(
                uid=index,
                level=0,
                size_bytes=float(reader.data_bytes),
                entry_count=float(reader.entry_count),
            )
            for index, reader in enumerate(readers)
        ],
        target_level=1,
    )
    return MergeJob(
        descriptor,
        readers,
        str(output),
        options,
        limiter or RateLimiter(0),
        drop_tombstones=drop_tombstones,
    )


def run_job(job, chunk_bytes=1 << 20):
    chunks = 0
    while not job.advance(chunk_bytes):
        chunks += 1
        assert chunks < 1_000_000
    job.close_readers()
    return job.stats


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


def disjoint_runs(tmp_path, blocks_per_run=3, runs=3, **writer_options):
    paths = []
    for index in range(runs):
        start = index * 1000
        path = tmp_path / f"in{index}.run"
        write_run(
            path,
            [(key(start + i), VALUE) for i in range(blocks_per_run * PER_BLOCK)],
            **writer_options,
        )
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

    def test_version_1_blocks_are_never_copied(self, tmp_path):
        paths = disjoint_runs(tmp_path, format_version=1)
        job = make_job(paths, tmp_path / "out.run", OPTIONS, True)
        stats = run_job(job)
        assert job.blocks_copied == 0 and job.blocks_rewritten == 9
        reader = SSTableReader(stats.path)
        assert reader.format_version == 2
        reader.close()
        assert read_back(stats.path) == reference(paths, True)

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
        paths = disjoint_runs(tmp_path, runs=2)
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
        job.close_readers()
        assert job.descriptor.remaining_input_bytes == 0
        # Split blocks went through the re-pack path; nothing was lost
        # or repeated at any boundary.
        assert job.blocks_rewritten > 0
        assert read_back(job.stats.path) == expected
        assert job.stats.entry_count == len(expected)

    def test_corrupt_block_fails_the_copy_and_the_merge_is_abandoned(
        self, tmp_path
    ):
        directory = str(tmp_path)
        options = StoreOptions(
            memtable_bytes=64 * 1024, policy="tiering", size_ratio=3, levels=3
        )
        manifest = Manifest(directory)
        manager = CompactionManager(directory, options, manifest)
        for index in range(3):
            items = [
                (key(index * 1000 + i), VALUE) for i in range(3 * PER_BLOCK)
            ]
            manager.register_flush(iter(items), len(items))
        inputs = sorted(r.filename for r in manifest.live_runs())
        job = manager.claim_merge()
        # Flip a byte inside the second block of the middle input: the
        # first run's blocks are copied before the rot is reached.
        victim = os.path.join(directory, inputs[1])
        reader = SSTableReader(victim)
        offset, length = reader.block_span(1)
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
        assert job.blocks_copied >= 3

        manager.fail_merge(job)
        assert not os.path.exists(job.output_path)
        assert not manager.has_work()
        assert sorted(r.filename for r in manifest.live_runs()) == inputs
        manager.close()
        manifest.close()


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
        # Sequential keys: flushes are disjoint, so nearly every block
        # is copied; each input's short tail is re-packed.
        assert counts["copied"] > counts["rewritten"] > 0

    def test_scan_skips_runs_outside_the_range(self, tmp_path, monkeypatch):
        with LSMStore.open(str(tmp_path / "store"), StoreOptions()) as store:
            for start in (0, 1000):
                for index in range(start, start + 50):
                    store.put(key(index), b"x")
                store.flush()
            opened = []
            original = SSTableReader.items

            def counting(self, lo=None, hi=None):
                opened.append(self.min_key)
                return original(self, lo, hi)

            monkeypatch.setattr(SSTableReader, "items", counting)
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


# -- the property --------------------------------------------------------

_VALUES = st.one_of(
    st.none(),
    st.binary(max_size=40),
    # Long and compressible: makes zlib blocks that really shrink and
    # blocks that fill on one or two entries.
    st.integers(1, 4).map(lambda n: b"compressible " * (8 * n)),
)


@st.composite
def _run_spec(draw):
    """One input run: contents plus how it was written.

    Keys come from a window of a small key space, so runs both overlap
    (duplicates across runs) and leave stretches to themselves (whole
    blocks below every other input's head).
    """
    lo = draw(st.integers(0, 120))
    width = draw(st.integers(1, 80))
    indices = draw(
        st.sets(st.integers(lo, lo + width), min_size=1, max_size=60)
    )
    contents = [(key(i), draw(_VALUES)) for i in sorted(indices)]
    legacy = draw(st.booleans())
    return {
        "entries": contents,
        "format_version": 1 if legacy else 2,
        "block_codec": "none" if legacy else draw(st.sampled_from(["none", "zlib"])),
        "filter_kind": "bloom" if legacy else draw(st.sampled_from(["bloom", "cuckoo"])),
        "block_bytes": draw(st.sampled_from([128, 256])),
    }


class TestMatchesTheReference:
    @given(
        runs=st.lists(_run_spec(), min_size=1, max_size=4),
        drop_tombstones=st.booleans(),
        chunk_bytes=st.integers(1, 5000),
        block_bytes=st.sampled_from([128, 256]),
        block_codec=st.sampled_from(["none", "zlib"]),
        filter_kind=st.sampled_from(["bloom", "cuckoo"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_merge_output_equals_the_reconciling_iterator(
        self,
        tmp_path_factory,
        runs,
        drop_tombstones,
        chunk_bytes,
        block_bytes,
        block_codec,
        filter_kind,
    ):
        directory = tmp_path_factory.mktemp("merge")
        paths = []
        for index, spec in enumerate(runs):
            spec = dict(spec)
            path = directory / f"in{index}.run"
            write_run(path, spec.pop("entries"), **spec)
            paths.append(path)
        expected = reference(paths, drop_tombstones)
        options = StoreOptions(
            block_bytes=block_bytes,
            block_codec=block_codec,
            filter_kind=filter_kind,
        )
        job = make_job(paths, directory / "out.run", options, drop_tombstones)
        stats = run_job(job, chunk_bytes)
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
            assert reader.format_version == 2
            assert reader.filter_kind == filter_kind
            if expected:
                assert reader.min_key == expected[0][0]
                assert reader.max_key == expected[-1][0]
            logical = 0
            for index in range(reader.block_count):
                logical += len(reader.read_data_block(index).payload)
            assert reader.logical_bytes == logical
            # The filter saw every key, copied or re-packed.
            for entry_key, value in expected:
                assert reader.get(entry_key) == (True, value)
        finally:
            reader.close()
