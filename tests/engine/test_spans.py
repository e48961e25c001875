"""Exact key spans: a scan's answer is a span, a scan takes the rows of
every span it crosses and reads blocks only for the gaps, and a
repeated scan, or a get inside a span, looks up no block.

The unit tests drive :class:`BlockCache` alone; the store tests check
the walk across spans, admission against the epoch (a write or a drop
of the spans between a scan's plan and its admission leaves no span),
and ROADMAP item 5's query-cost laws as block-lookup counts.
"""

import random
import sys
import threading
import time

import pytest

from repro.engine import BlockCache, LSMStore, StoreOptions
from repro.engine.blockcache import (
    ROW_OVERHEAD_BYTES,
    SPAN_ADMIT_SCANS,
    SPAN_OVERHEAD_BYTES,
    SPAN_ROW_OVERHEAD_BYTES,
    SPAN_SHARE,
)
from repro.engine.version import Version
from repro.errors import DataCorruptError


def key(index: int) -> bytes:
    return b"k%06d" % index


def rows(first: int, last: int, value: bytes = b"v") -> list:
    """Rows of keys ``first`` .. ``last - 1``."""
    return [(key(i), value) for i in range(first, last)]


def charge(lo: bytes, end: bytes | None, held: list) -> int:
    """The bytes a span of ``held`` rows over ``[lo, end)`` is charged."""
    return SPAN_OVERHEAD_BYTES + len(end or b"") + sum(
        len(k) + len(v) + SPAN_ROW_OVERHEAD_BYTES for k, v in held
    )


def spans(cache) -> list[tuple[bytes, bytes | None, int]]:
    """``(lo, end, rows)`` of every cached span, in key order."""
    return [(span.lo, span.end, len(span.keys)) for span in cache._spans]


def admit(cache, lo, hi, limit, answer) -> None:
    """Offer one scan's answer as often as it takes to be admitted."""
    for _ in range(SPAN_ADMIT_SCANS):
        cache.put_span(lo, hi, limit, answer, cache.epoch)


class TestSpanUnit:
    def test_a_span_is_admitted_on_the_second_scan_from_its_start(self):
        cache = BlockCache(1 << 20)
        for _ in range(SPAN_ADMIT_SCANS - 1):
            cache.put_span(key(10), None, 5, rows(10, 15), cache.epoch)
            assert spans(cache) == []
        cache.put_span(key(20), None, 5, rows(20, 25), cache.epoch)
        cache.put_span(key(10), None, 5, rows(10, 15), cache.epoch)
        assert spans(cache) == [(key(10), key(14) + b"\x00", 5)]

    def test_a_scan_is_answered_by_the_span_it_left(self):
        cache = BlockCache(1 << 20)
        admit(cache, key(10), None, 5, rows(10, 15))
        end = key(14) + b"\x00"
        assert spans(cache) == [(key(10), end, 5)]
        assert cache.span_rows(key(10), None, 5) == [(key(10), end, rows(10, 15))]
        assert cache.span_rows(key(12), None, 3) == [(key(12), end, rows(12, 15))]
        assert cache.span_rows(key(12), key(14), 9) == [
            (key(12), key(14), rows(12, 14))
        ]
        # Fewer than ``limit`` rows inside: the span, and a gap after it.
        assert cache.span_rows(key(12), None, 4) == [(key(12), end, rows(12, 15))]
        # Starting before it: a gap, then the span cut after the last row
        # the answer can need.
        assert cache.span_rows(key(9), None, 1) == [
            (key(10), key(10) + b"\x00", rows(10, 11))
        ]
        # The store counts what the merge took and whether it read a block.
        cache.count_scan(5, True)
        cache.count_scan(2, False)
        assert (cache.scan_hits, cache.scan_span_rows) == (1, 7)
        # A get inside the span is a row or a proven absence.
        assert cache.get(key(11)) == (True, b"v")
        assert cache.get(key(11) + b"+") == (True, None)
        assert cache.get(key(15)) == (False, None)
        assert cache.row_hits == 2

    def test_fewer_rows_than_the_limit_cover_up_to_the_bound(self):
        cache = BlockCache(1 << 20)
        admit(cache, key(0), key(5), 10, rows(0, 3))
        assert spans(cache) == [(key(0), key(5), 3)]
        assert cache.span_rows(key(1), key(5), 10) == [(key(1), key(5), rows(1, 3))]
        assert cache.span_rows(key(1), key(4), None) == [
            (key(1), key(4), rows(1, 3))
        ]
        assert cache.span_rows(key(1), key(6), 10) == [(key(1), key(5), rows(1, 3))]
        admit(cache, key(7), None, None, rows(7, 9))
        assert spans(cache)[-1] == (key(7), None, 2)
        assert cache.span_rows(key(8), None, 5) == [(key(8), None, rows(8, 9))]
        # A scan across both takes each, with the gap between.
        assert cache.span_rows(key(1), None, 10) == [
            (key(1), key(5), rows(1, 3)), (key(7), None, rows(7, 9))
        ]
        assert cache.span_rows(key(1), None, 3) == [
            (key(1), key(5), rows(1, 3)), (key(7), key(7) + b"\x00", rows(7, 8))
        ]

    def test_a_span_begun_before_a_write_or_a_drop_is_not_admitted(self):
        cache = BlockCache(1 << 20)
        for _ in range(SPAN_ADMIT_SCANS - 1):
            cache.put_span(key(0), None, 5, rows(0, 5), cache.epoch)
        epoch = cache.epoch
        cache.refresh_rows([(b"elsewhere", b"x")])  # any write bumps it
        cache.put_span(key(0), None, 5, rows(0, 5), epoch)
        assert spans(cache) == []
        epoch = cache.epoch
        cache.drop_all_rows()
        cache.put_span(key(0), None, 5, rows(0, 5), epoch)
        assert spans(cache) == []

    def test_overlapping_and_touching_spans_merge(self):
        cache = BlockCache(1 << 20)
        admit(cache, key(0), None, 5, rows(0, 5))
        admit(cache, key(40), key(41), 5, [])
        admit(cache, key(4), key(20), 50, rows(4, 8))
        admit(cache, key(20), key(40), 50, [])  # touches both
        assert spans(cache) == [(key(0), key(41), 8)]
        assert cache.span_rows(key(2), None, 100) == [(key(2), key(41), rows(2, 8))]
        assert cache.span_rows(key(2), key(40), 100) == [
            (key(2), key(40), rows(2, 8))
        ]
        assert cache.used_bytes == charge(key(0), key(41), rows(0, 8))

    def test_a_write_keeps_the_span_exact(self):
        cache = BlockCache(1 << 20)
        admit(cache, key(0), key(9), 20, rows(0, 9, b"old")[::2])
        cache.refresh_rows(
            [(key(2), b"new"), (key(3), b"born"), (key(4), None),
             (key(9), b"outside")]
        )
        [(_, _, held)] = cache.span_rows(key(0), key(9), None)
        assert held == [
            (key(0), b"old"), (key(2), b"new"), (key(3), b"born"),
            (key(6), b"old"), (key(8), b"old"),
        ]
        assert cache.get(key(4)) == (True, None)
        assert cache.get(key(9)) == (False, None)
        assert cache.used_bytes == charge(key(0), key(9), held)

    def test_a_span_over_its_share_is_refused_and_leaves_the_others(self):
        one = charge(key(0), key(4) + b"\x00", rows(0, 5))
        cache = BlockCache(int(2 * one / SPAN_SHARE))
        admit(cache, key(0), None, 5, rows(0, 5))
        admit(cache, key(10), None, 5, rows(10, 15))
        # Alone within its share, but merged with both over it.
        admit(cache, key(3), key(12), 20, rows(3, 12))
        assert spans(cache) == [
            (key(0), key(4) + b"\x00", 5), (key(10), key(14) + b"\x00", 5)
        ]
        # Over the share by its row count alone: refused before a copy.
        admit(cache, key(100), None, None, rows(100, 10_000))
        assert len(spans(cache)) == 2
        # Grown past its share by writes: dropped.
        cache.refresh_rows([(key(1) + b"+", b"x" * one)])
        assert spans(cache) == [(key(10), key(14) + b"\x00", 5)]


class TestSpanGhosts:
    def test_an_evicted_span_is_a_ghost_only_a_scan_from_its_start_hits(self):
        one = charge(key(0), key(4) + b"\x00", rows(0, 5))
        cache = BlockCache(int(one / SPAN_SHARE), ghost_bytes=10 * one)
        admit(cache, key(0), None, 5, rows(0, 5))
        cache.put_row(b"row", b"v" * (cache.capacity_bytes - one), cache.epoch)
        assert spans(cache) == [] and cache.evictions == 1
        assert cache.get(key(0)) == (False, None)  # a get: no credit
        assert cache.ghost_hit_bytes == 0
        assert cache.span_rows(key(0), None, 5) == []
        assert cache.ghost_hit_bytes == one

    def test_an_entry_over_the_ghost_bound_leaves_the_ghost_be(self):
        row = len(b"k0") + 10 + ROW_OVERHEAD_BYTES
        cache = BlockCache(2 * row + 1, ghost_bytes=3 * row)
        for index in range(4):  # k0 and k1 go to the ghost
            cache.put_row(b"k%d" % index, b"v" * 10, cache.epoch)
        assert cache.ghost_bytes == 2 * row
        # Refused, larger than the budget and than the ghost's bound.
        cache.put_row(b"big", b"v" * (4 * row), cache.epoch)
        assert cache.ghost_bytes == 2 * row
        cache.get(b"k0")
        assert cache.ghost_hit_bytes == row


    def test_a_span_over_the_ghost_bound_leaves_the_ghost_be(self):
        big = rows(0, 5, b"v" * 1000)
        one = charge(key(0), key(4) + b"\x00", big)
        cache = BlockCache(int(one / SPAN_SHARE), ghost_bytes=one // 2)
        capacity = cache.capacity_bytes
        small = len(b"a") + 10 + ROW_OVERHEAD_BYTES
        cache.put_row(b"a", b"v" * 10, cache.epoch)
        filler = b"v" * (capacity - 5 - len(b"b") - ROW_OVERHEAD_BYTES)
        cache.put_row(b"b", filler, cache.epoch)  # row a to the ghost
        assert cache.ghost_bytes == small
        admit(cache, key(0), None, 5, big)  # evicts row b, too large
        admit(cache, key(100), None, None, rows(100, 200))  # refused
        # A row that evicts the span, which is larger than the bound.
        value = b"v" * (capacity - one - ROW_OVERHEAD_BYTES)
        cache.put_row(b"r", value, cache.epoch)
        assert spans(cache) == [] and cache.evictions == 3
        assert cache.ghost_bytes == small
        assert cache.get(b"a") == (False, None)
        assert cache.ghost_hit_bytes == small


def _store(tmp_path, **options):
    return LSMStore.open(
        str(tmp_path / "db"),
        StoreOptions(memtable_bytes=16 * 1024, levels=3, **options),
    )


def _lookups(store) -> int:
    stats = store.stats()
    return stats.cache_hits + stats.cache_misses


def _scan(store, lo, hi, limit, times=SPAN_ADMIT_SCANS):
    """Scan ``times`` times, as often as a span takes to be admitted;
    the last answer."""
    for _ in range(times):
        answer = list(store.scan(lo, hi, limit))
    return answer


class TestSpansInTheStore:
    def test_a_repeated_scan_and_a_get_inside_it_read_no_block(self, tmp_path):
        with _store(tmp_path) as store:
            store.write_batch(rows(0, 200, b"v" * 64))
            store.flush()
            first = _scan(store, key(20), None, 30)
            lookups = _lookups(store)
            assert lookups > 0
            assert list(store.scan(key(20), None, 30)) == first
            assert list(store.scan(key(25), key(40), None)) == first[5:20]
            assert store.get(key(33)) == b"v" * 64
            assert _lookups(store) == lookups
            stats = store.refresh_gauges()
            assert (stats.scan_hits, stats.row_hits) == (2, 1)
            counters = {
                c["name"]: c["value"]
                for c in store.obs.registry.snapshot()["counters"]
            }
            assert counters["engine_scan_cache_hits_total"] == 2
            assert counters["engine_scans_total"] == SPAN_ADMIT_SCANS + 2
            store.put(key(21), b"new")
            store.delete(key(22))
            store.flush()
            again = list(store.scan(key(20), None, 3))
            assert again == [first[0], (key(21), b"new"), first[3]]
            assert _lookups(store) == lookups

    def test_a_scan_takes_every_span_it_crosses(self, tmp_path):
        """Spans over ``[20, 30)`` and ``[40, 50)``, one with a key
        deleted inside it: a scan from 10 takes both spans' rows and
        reads blocks for the gaps only, and the deleted key, whose older
        copy a run still holds, stays deleted."""
        with _store(tmp_path) as store:
            store.write_batch(rows(0, 200, b"v" * 64))
            store.flush()
            _scan(store, key(20), key(30), None)
            _scan(store, key(40), key(50), None)
            store.delete(key(45))
            cache = store._compaction.block_cache
            assert spans(cache) == [(key(20), key(30), 10), (key(40), key(50), 9)]
            expected = [row for row in rows(10, 61, b"v" * 64) if row[0] != key(45)]
            before, taken = store.stats(), cache.scan_span_rows
            assert list(store.scan(key(10), None, 50)) == expected
            after = store.stats()
            assert after.scan_span_rows - taken == 19
            assert after.scan_hits == before.scan_hits  # it read blocks
            # Inside a span and past its end; and from inside the first
            # to the end of the second: no gap's block but the one between.
            assert list(store.scan(key(25), key(35), None)) == expected[15:25]
            assert list(store.scan(key(22), key(50), None)) == expected[12:39]
            # Wholly inside: no block.
            lookups = _lookups(store)
            assert list(store.scan(key(41), key(48), None)) == expected[31:37]
            assert _lookups(store) == lookups
            assert store.stats().scan_hits == after.scan_hits + 1

    def test_a_span_spares_every_block_it_covers(self, tmp_path):
        """One run, a span over ``[50, 300)``: a scan of ``[0, 350)``
        looks up exactly the blocks that hold a key of a gap."""
        with _store(tmp_path) as store:
            store.write_batch(rows(0, 400, b"v" * 64))
            store.flush()
            [(_, run)] = store._compaction.version.plan
            firsts = [run.first_key(i) for i in range(run.block_count)] + [None]
            gaps = [(key(0), key(50)), (key(300), key(350))]
            needed = sum(  # block ``[start, end)`` meets a gap ``[lo, hi)``
                any(start < hi and (end is None or lo < end) for lo, hi in gaps)
                for start, end in zip(firsts, firsts[1:])
            )
            assert needed < run.block_count // 2
            _scan(store, key(50), key(300), None)
            lookups = _lookups(store)
            assert list(store.scan(key(0), key(350), None)) == rows(0, 350, b"v" * 64)
            assert _lookups(store) - lookups == needed

    @pytest.mark.parametrize("write", ["put", "delete"])
    def test_a_write_between_a_crossing_scans_plan_and_its_admission(
        self, tmp_path, monkeypatch, write
    ):
        """A span over ``[0, 10)`` and a scan from 5 that crosses it,
        admitted this time: a put, or a delete of a key a run holds,
        commits in the gap after the plan's copy. The scan's answer is
        stale by then, so it must not become a span."""
        with _store(tmp_path) as store:
            store.write_batch(rows(0, 40, b"old"))
            store.flush()
            _scan(store, key(0), key(10), None)
            _scan(store, key(5), None, 20, SPAN_ADMIT_SCANS - 1)
            scan = Version.scan

            def scan_then_write(version, *args):
                answer = scan(version, *args)
                monkeypatch.undo()
                if write == "put":
                    store.put(key(15), b"new")
                else:
                    store.delete(key(15))
                return answer

            monkeypatch.setattr(Version, "scan", scan_then_write)
            assert dict(store.scan(key(5), None, 20))[key(15)] == b"old"
            store.flush()  # out of the memtable: a stale span would answer
            expected = b"new" if write == "put" else None
            for _ in range(SPAN_ADMIT_SCANS):
                assert dict(store.scan(key(5), None, 20)).get(key(15)) == expected
            assert store.get(key(15)) == expected

    @pytest.mark.parametrize("write", ["put", "delete"])
    def test_a_write_between_a_scans_pin_and_its_admission(
        self, tmp_path, monkeypatch, write
    ):
        """The write commits while the admitting scan merges off the
        lock: its answer is stale by then, so it must not become a
        span."""
        with _store(tmp_path) as store:
            store.write_batch(rows(0, 20, b"old"))
            store.flush()
            _scan(store, key(0), None, 10, SPAN_ADMIT_SCANS - 1)
            scan = Version.scan

            def scan_then_write(version, *args):
                answer = scan(version, *args)
                if write == "put":
                    store.put(key(3), b"new")
                else:
                    store.delete(key(3))
                return answer

            monkeypatch.setattr(Version, "scan", scan_then_write)
            assert dict(store.scan(key(0), None, 10))[key(3)] == b"old"
            monkeypatch.undo()
            expected = b"new" if write == "put" else None
            assert dict(store.scan(key(0), None, 10)).get(key(3)) == expected
            assert store.get(key(3)) == expected

    @pytest.mark.parametrize("write", ["put", "delete"])
    def test_a_write_between_a_gets_pin_and_its_row(
        self, tmp_path, monkeypatch, write
    ):
        """The same race on a get, which admits its row with no store
        lock: the epoch alone must refuse the stale row."""
        with _store(tmp_path) as store:
            store.write_batch(rows(0, 20, b"old"))
            store.flush()
            get = Version.get

            def get_then_write(version, *args):
                answer = get(version, *args)
                monkeypatch.undo()
                if write == "put":
                    store.put(key(3), b"new")
                else:
                    store.delete(key(3))
                return answer

            monkeypatch.setattr(Version, "get", get_then_write)
            assert store.get(key(3)) == b"old"
            expected = b"new" if write == "put" else None
            store.flush()  # out of the memtable: a stale row would answer
            assert store.get(key(3)) == expected

    def test_a_quarantine_between_a_scans_pin_and_its_admission(
        self, tmp_path, monkeypatch
    ):
        """A span of rows from a run quarantined after the scan's pin
        would answer a get the fence must fail."""
        with _store(tmp_path) as store:
            store.write_batch(rows(0, 20))
            store.flush()
            [record] = store.live_runs()
            _scan(store, key(0), None, 10, SPAN_ADMIT_SCANS - 1)
            scan = Version.scan

            def scan_then_quarantine(version, *args):
                answer = scan(version, *args)
                store.quarantine_run(record.run_id, "test")
                return answer

            monkeypatch.setattr(Version, "scan", scan_then_quarantine)
            assert len(list(store.scan(key(0), None, 10))) == 10
            monkeypatch.undo()
            assert not store._compaction.block_cache._spans
            with pytest.raises(DataCorruptError):
                store.get(key(3))


class TestConcurrentAdmission:
    def test_reads_racing_writes_leave_every_row_and_span_exact(
        self, tmp_path
    ):
        """Readers admit rows and spans with no store lock, on the key a
        writer is writing once, and scan across the spans they left: a
        stale answer admitted after the write would outlive it, so what
        is cached at the end is the model's."""
        count = 300
        model = dict(rows(0, count, b"old"))
        with _store(tmp_path) as store:
            store.write_batch(rows(0, count, b"old"))
            store.flush()
            stop, errors, at = threading.Event(), [], [0]

            def read() -> None:
                try:
                    while not stop.is_set():
                        start = key(at[0])
                        store.get(start)
                        _scan(store, start, None, 3)
                        # Across the span just left, from before it.
                        _scan(store, key(max(at[0] - 2, 0)), None, 6)
                except Exception as error:  # reported below
                    errors.append(error)

            readers = [threading.Thread(target=read) for _ in range(3)]
            switch = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for thread in readers:
                    thread.start()
                for index in range(count):
                    at[0] = index
                    time.sleep(0.0005)  # let a reader pin the old answer
                    if index % 3 == 0:
                        store.delete(key(index))
                        model.pop(key(index))
                    else:
                        store.put(key(index), b"new")
                        model[key(index)] = b"new"
            finally:
                stop.set()
                for thread in readers:
                    thread.join(30)
                sys.setswitchinterval(switch)
            assert not any(thread.is_alive() for thread in readers)
            assert not errors, errors[:3]
            cache = store._compaction.block_cache
            for cached, row in list(cache._answers.items()):
                if type(cached) is bytes:
                    assert row == model.get(cached)
            for span in cache._spans:
                inside = sorted(
                    (k, v) for k, v in model.items()
                    if span.lo <= k and (span.end is None or k < span.end)
                )
                assert list(zip(span.keys, span.values)) == inside
            store.flush()
            for index in range(count):
                assert store.get(key(index)) == model.get(key(index))


class TestQueryCostLaws:
    """ROADMAP item 5's laws as block-lookup counts: tiering at T = 32,
    no workers, so c flushed runs stay c components, each holding every
    c-th key; reads of present keys."""

    KEYS = 1600

    def _held_at(self, tmp_path, components, cache_bytes):
        store = LSMStore.open(
            str(tmp_path / "db"),
            StoreOptions(
                policy="tiering",
                size_ratio=32,
                levels=2,
                background_maintenance=False,
                block_cache_bytes=cache_bytes,
            ),
        )
        for run in range(components):
            store.write_batch(
                [(key(i), b"v" * 100) for i in range(run, self.KEYS, components)]
            )
            store.flush()
        assert store.stats().disk_components == components
        return store

    def _starts(self):
        return random.Random(5).sample(range(self.KEYS - 100), 30)

    @pytest.mark.parametrize("components", [2, 8, 16])
    def test_a_get_reads_one_block_and_a_scan_one_per_component(
        self, tmp_path, components
    ):
        with self._held_at(tmp_path, components, 0) as store:
            starts = self._starts()
            before = _lookups(store)
            for start in starts:
                assert store.get(key(start)) == b"v" * 100
            per_get = (_lookups(store) - before) / len(starts)
            before = _lookups(store)
            for start in starts:
                assert len(list(store.scan(key(start), None, 50))) == 50
            per_scan = (_lookups(store) - before) / len(starts)
        assert per_get == pytest.approx(1, abs=0.05)
        assert per_scan == pytest.approx(1 + components, abs=0.5)

    @pytest.mark.parametrize("components", [2, 8, 16])
    def test_a_half_covered_scan_reads_the_uncovered_halfs_blocks(
        self, tmp_path, components
    ):
        """A span over the first 25 rows of a 50-row scan: the scan looks
        up what a scan of the other 25 rows alone does (within 0.1 block
        per scan: a gap that starts just past a block's last key reads
        that block). That keeps the seek, one block per component, and
        halves the rest: c + (full - c) / 2 within 0.25, below the full
        scan's 1 + c."""
        with self._held_at(tmp_path, components, 8 << 20) as store:
            starts = self._starts()
            full = half = 0
            for start in starts:
                before = _lookups(store)
                assert len(list(store.scan(key(start), None, 50))) == 50
                full += _lookups(store) - before
                before = _lookups(store)
                list(store.scan(key(start + 25), None, 25))
                half += _lookups(store) - before
            store._compaction.block_cache.drop_all_rows()
            partial = 0
            for start in starts:
                _scan(store, key(start), None, 25)
                before = _lookups(store)
                answer = list(store.scan(key(start), None, 50))
                partial += _lookups(store) - before
                assert answer == [
                    (key(i), b"v" * 100) for i in range(start, start + 50)
                ]
        full, half, partial = (n / len(starts) for n in (full, half, partial))
        assert partial == pytest.approx(half, abs=0.1)
        assert partial == pytest.approx(
            components + (full - components) / 2, abs=0.25
        )
        assert partial < full

    @pytest.mark.parametrize("components", [2, 8, 16])
    def test_a_repeated_scan_reads_no_block(self, tmp_path, components):
        with self._held_at(tmp_path, components, 8 << 20) as store:
            for start in self._starts():
                first = _scan(store, key(start), None, 50)
                before = _lookups(store)
                assert list(store.scan(key(start), None, 50)) == first
                assert _lookups(store) == before
