"""Scans on lazily primed block cursors: same rows as the reference
merge, and only the block lookups a returned row needs.

:func:`repro.engine.iterators.reconciling_iterator` over the sources'
``items(lo, hi)`` is the oracle — it is also, with the run-bounds
filter, what ``LSMStore.scan`` used to run, so the block lookups it
makes are the bar the cursor merge must stay at or under.
"""

import os
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import LSMStore, SSTableReader, StoreOptions
from repro.engine.iterators import reconciling_iterator
from repro.engine.quarantine import QuarantineEntry
from repro.errors import ConfigurationError, DataCorruptError


def key(index):
    return b"k%06d" % index


def lookups(store):
    """Block lookups so far: every one is a cache hit or a miss."""
    stats = store.stats()
    return stats.cache_hits + stats.cache_misses


def reference_scan(store, lo, hi, limit):
    """The scan as the per-entry heap ran it: rows, and block lookups."""
    before = lookups(store)
    with store._lock:
        sources = [
            memtable.items(lo, hi)
            for memtable in [store._active] + list(reversed(store._sealed))
        ]
        sources += [
            element.items(lo, hi)
            for _run_id, element in store._compaction.read_plan()
            if not isinstance(element, QuarantineEntry)
            and (hi is None or element.min_key < hi)
            and (lo is None or element.max_key >= lo)
        ]
        rows = list(islice(reconciling_iterator(sources), limit))
    return rows, lookups(store) - before


def counted_scan(store, lo=None, hi=None, limit=None):
    before = lookups(store)
    rows = list(store.scan(lo, hi, limit))
    return rows, lookups(store) - before


# -- the property --------------------------------------------------------

#: One source of a tree: keys ``start, start + step, ...`` — small
#: offsets and mixed steps make overlapping, nested and disjoint ranges
#: all common — each a value or (one in six) a tombstone.
_SOURCES = st.builds(
    lambda start, step, values: [
        (key(start + step * position), value)
        for position, value in enumerate(values)
    ],
    st.integers(0, 90),
    st.integers(1, 3),
    st.lists(
        st.integers(0, 5).flatmap(
            lambda n: st.binary(max_size=30) if n else st.none()
        ),
        min_size=1,
        max_size=40,
    ),
)
#: Bounds on keys, between keys, and outside the keyspace.
_BOUNDS = st.one_of(
    st.none(),
    st.integers(-1, 220).map(key),
    st.integers(0, 220).map(lambda index: key(index) + b"+"),
)


@settings(max_examples=60, deadline=None)
@given(
    runs=st.lists(_SOURCES, min_size=1, max_size=6),
    memtables=st.lists(_SOURCES, max_size=2),
    codec=st.sampled_from(["none", "zlib"]),
    block_bytes=st.sampled_from([128, 160, 256]),
    queries=st.lists(
        st.tuples(
            _BOUNDS, _BOUNDS, st.one_of(st.none(), st.integers(0, 70))
        ),
        min_size=1,
        max_size=8,
    ),
)
def test_scan_equals_the_reference_and_looks_up_no_more_blocks(
    tmp_path_factory, runs, memtables, codec, block_bytes, queries
):
    options = StoreOptions(
        memtable_bytes=1 << 20,
        block_bytes=block_bytes,
        block_codec=codec,
        policy="tiering",
        size_ratio=10,  # six runs never reach a merge
        background_maintenance=False,
    )
    directory = tmp_path_factory.mktemp("tree")
    with LSMStore.open(str(directory), options) as store:
        for entries in runs:
            store.write_batch(entries)
            store.flush()
        assert store.stats().disk_components == len(runs)
        for position, entries in enumerate(memtables):
            store.write_batch(entries)
            if position + 1 < len(memtables):
                with store._lock:
                    store._seal_active()  # sealed, and left unflushed
        for lo, hi, limit in queries:
            expected, old_lookups = reference_scan(store, lo, hi, limit)
            rows, new_lookups = counted_scan(store, lo, hi, limit)
            assert rows == expected
            assert new_lookups <= old_lookups


# -- exact counts on a fixed tree ----------------------------------------

#: 1 KiB values in 4 KiB blocks, the benchmark's shape: an entry takes
#: 1 039 bytes, so a block closes on its fourth.
VALUE = b"v" * 1024
PER_BLOCK = 4
BLOCKS_PER_RUN = 20
RUN_KEYS = PER_BLOCK * BLOCKS_PER_RUN
RUN_STRIDE = 1000


def block(run, block_idx):
    """How the fixture's list names block ``block_idx`` of run ``run``."""
    return key(run * RUN_STRIDE), block_idx


@pytest.fixture
def four_runs(tmp_path, monkeypatch):
    """A store of four key-disjoint runs (run ``r`` holds keys
    ``r * 1000 ...``, 20 blocks of 4) and the list that every block a
    scan looks up is appended to, as ``(the run's first key, block)``."""
    options = StoreOptions(
        memtable_bytes=1 << 20,
        policy="tiering",
        size_ratio=10,
        background_maintenance=False,
    )
    looked_up = []
    original = SSTableReader.walk_block

    def recording(self, block_idx):
        looked_up.append((self.min_key, block_idx))
        return original(self, block_idx)

    monkeypatch.setattr(SSTableReader, "walk_block", recording)
    with LSMStore.open(str(tmp_path / "db"), options) as store:
        for run in range(4):
            store.write_batch(
                [(key(run * RUN_STRIDE + i), VALUE) for i in range(RUN_KEYS)]
            )
            store.flush()
        assert store.stats().disk_components == 4
        yield store, looked_up


class TestExactBlockLookups:
    @pytest.mark.parametrize("offset", range(PER_BLOCK))
    def test_a_scan_inside_one_run_reads_only_the_blocks_of_its_rows(
        self, four_runs, offset
    ):
        store, looked_up = four_runs
        first = RUN_STRIDE + 2 * PER_BLOCK + offset
        rows, count = counted_scan(store, key(first), limit=50)
        assert [k for k, _ in rows] == [key(first + i) for i in range(50)]
        # ceil(50 / 4) blocks when the scan starts on a block's first
        # row, one more when it starts far enough inside one.
        expected = (offset + 50 - 1) // PER_BLOCK + 1
        assert expected in (13, 14)
        assert looked_up == [block(1, 2 + i) for i in range(expected)]
        # The cache's counters see exactly the blocks walk_block hands out.
        assert count == expected

    def test_unbounded_scan_starts_without_reading_the_other_runs(
        self, four_runs
    ):
        store, looked_up = four_runs
        rows, count = counted_scan(store, limit=PER_BLOCK)
        assert [k for k, _ in rows] == [key(i) for i in range(PER_BLOCK)]
        assert looked_up == [block(0, 0)] and count == 1

    def test_crossing_a_run_boundary_reads_block_zero_of_the_next_run(
        self, four_runs
    ):
        store, looked_up = four_runs
        last_block = RUN_KEYS - PER_BLOCK
        rows, count = counted_scan(store, key(last_block), limit=6)
        assert [k for k, _ in rows] == [
            *(key(last_block + i) for i in range(PER_BLOCK)),
            key(RUN_STRIDE),
            key(RUN_STRIDE + 1),
        ]
        assert looked_up == [block(0, BLOCKS_PER_RUN - 1), block(1, 0)]
        assert count == 2

    def test_limit_reached_on_a_blocks_last_entry_loads_no_next_block(
        self, four_runs
    ):
        store, looked_up = four_runs
        rows, count = counted_scan(store, key(5 * PER_BLOCK), limit=PER_BLOCK)
        assert len(rows) == PER_BLOCK
        assert looked_up == [block(0, 5)] and count == 1
        # ...whereas the per-entry heap pulled one entry ahead.
        _rows, old = reference_scan(store, key(5 * PER_BLOCK), None, PER_BLOCK)
        assert old > 1

    def test_lo_in_the_gap_between_two_blocks(self, four_runs):
        store, looked_up = four_runs
        # After block 5's last key, before block 6's first.
        gap = key(6 * PER_BLOCK - 1) + b"+"
        # Block 5 must be read to learn that nothing in it follows lo;
        # block 6 begins at or above hi by the index alone.
        assert counted_scan(store, gap, gap + b"+") == ([], 1)
        assert looked_up == [block(0, 5)]
        del looked_up[:]
        rows, count = counted_scan(store, gap, limit=1)
        assert rows == [(key(6 * PER_BLOCK), VALUE)]
        assert looked_up == [block(0, 5), block(0, 6)] and count == 2

    def test_lo_on_a_blocks_first_key_reads_nothing_to_find_its_head(
        self, four_runs
    ):
        store, looked_up = four_runs
        lo = key(2 * RUN_STRIDE + 3 * PER_BLOCK)
        assert counted_scan(store, lo, lo + b"\x00") == ([(lo, VALUE)], 1)
        assert looked_up == [block(2, 3)]

    def test_a_stale_copy_is_stepped_over_in_its_own_block(self, four_runs):
        store, looked_up = four_runs
        # A fifth, newest run rewrites the first key of run 1's block 3
        # and deletes the next: the scan must read that block to move
        # run 1 past both, and return the new value once.
        shadowed = RUN_STRIDE + 3 * PER_BLOCK
        store.write_batch([(key(shadowed), b"new"), (key(shadowed + 1), None)])
        store.flush()
        rows, count = counted_scan(store, key(shadowed), limit=2)
        assert rows == [(key(shadowed), b"new"), (key(shadowed + 2), VALUE)]
        # Run 1's block once (stepping over twice, then its third row),
        # then the new run's only block; both heads came from the index.
        assert looked_up == [block(1, 3), (key(shadowed), 0)]
        assert count == 2


# -- limits --------------------------------------------------------------


class TestLimit:
    def test_limit_zero_returns_nothing_and_reads_no_block(self, four_runs):
        store, looked_up = four_runs
        store.put(key(5), b"in the memtable")
        # lo inside a block: the one start that reads eagerly.
        assert counted_scan(store, key(1), limit=0) == ([], 0)
        assert counted_scan(store, limit=0) == ([], 0)
        assert looked_up == []

    @pytest.mark.parametrize("limit", [-1, -50])
    def test_negative_limit_is_a_configuration_error(self, four_runs, limit):
        store, looked_up = four_runs
        with pytest.raises(ConfigurationError):
            store.scan(limit=limit)
        assert looked_up == []

    def test_limit_one(self, four_runs):
        store, _looked_up = four_runs
        assert list(store.scan(limit=1)) == [(key(0), VALUE)]


# -- corruption ----------------------------------------------------------


def _flip_byte_in_block(store, run_index, block_idx):
    """Damage one stored byte of one data block of the ``run_index``-th
    oldest run; returns that run's id."""
    record = store.live_runs()[run_index]
    path = os.path.join(store.directory, record.files[0])
    reader = SSTableReader(path)
    offset, length = reader.block_span(block_idx)
    reader.close()
    with open(path, "r+b") as handle:
        handle.seek(offset + length // 2)
        byte = handle.read(1)
        handle.seek(offset + length // 2)
        handle.write(bytes([byte[0] ^ 0xFF]))
    return record.run_id


class TestCorruption:
    def test_damage_in_a_block_the_scan_reaches_quarantines_the_run(
        self, four_runs
    ):
        store, looked_up = four_runs
        run_id = _flip_byte_in_block(store, 1, 1)
        with pytest.raises(DataCorruptError) as raised:
            list(store.scan(key(RUN_STRIDE), limit=6))
        assert raised.value.run_id == run_id
        # Block 0 served, block 1 failed; once more from the top, then
        # the run is fenced off and nothing further is read.
        assert looked_up == [block(1, 0), block(1, 1)] * 2
        assert [e.run_id for e in store.quarantined_entries()] == [run_id]
        del looked_up[:]
        with pytest.raises(DataCorruptError):
            list(store.scan(key(RUN_STRIDE), limit=1))
        assert looked_up == []
        # Ranges clear of the fenced run keep serving.
        assert len(list(store.scan(key(2 * RUN_STRIDE), limit=10))) == 10

    def test_damage_in_a_block_the_scan_never_needs_goes_unnoticed(
        self, four_runs
    ):
        store, _looked_up = four_runs
        # Block 0 of run 2: the per-entry heap read it to learn the
        # run's head; the cursor merge has that key from the index.
        _flip_byte_in_block(store, 2, 0)
        # The block right after the scan's last row.
        _flip_byte_in_block(store, 1, 2)
        rows = list(store.scan(key(RUN_STRIDE), limit=2 * PER_BLOCK))
        assert [k for k, _ in rows] == [
            key(RUN_STRIDE + i) for i in range(2 * PER_BLOCK)
        ]
        assert store.quarantined_entries() == []
        # Finding it is the scrubber's job.
        store.scrub_pass()
        assert len(store.quarantined_entries()) == 2


# -- per-scan read amplification counters --------------------------------


def test_scan_counters_count_scans_rows_and_block_lookups(four_runs):
    store, _looked_up = four_runs

    def counters():
        snapshot = store.obs.registry.snapshot()["counters"]
        return tuple(
            next(c["value"] for c in snapshot if c["name"] == name)
            for name in (
                "engine_scans_total",
                "engine_scan_rows_total",
                "engine_scan_blocks_total",
            )
        )

    assert counters() == (0, 0, 0)
    _rows, first = counted_scan(store, key(8), limit=50)
    assert counters() == (1, 50, first) and first == 13
    _rows, second = counted_scan(store, key(3 * RUN_STRIDE + 70))
    assert counters() == (2, 60, first + second)
    list(store.scan(limit=0))
    assert counters() == (2, 60, first + second)
