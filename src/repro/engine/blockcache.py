"""A shared cache of answers, rows and exact key spans, in one byte budget.

The paper's testbed gives AsterixDB a 2 GB buffer cache (Section 3.1);
this is the engine's equivalent: one byte budget shared by every run of
a store, holding the answers reads found. It holds no data block: a
query reads each block it needs from the run's file, and
:meth:`count_block_read` counts it. A row or span spares every block
lookup of a repeat, where a cached block spared only the file read of
one (*Breaking Down Memory Walls*: memory goes where it saves the most
I/O per byte).

- **Spans**: a key interval ``[lo, end)`` whose every live row is
  cached, so a key inside it with no row is a proven absence. A scan
  over ``[lo, hi)`` that returned ``limit`` rows leaves ``[lo, last
  row]``, one that returned fewer ``[lo, hi)``; overlapping or touching
  spans merge. A scan takes the rows of the spans it crosses
  (:meth:`span_rows`) as its whole answer inside them and reads blocks
  only for the gaps; a get inside a span reads none.
- **Rows**: the one-key span ``[k, k]`` a get that a run answered
  leaves, ``key -> value`` or "deleted", held by key: it needs no order.

An answer is admitted only while :attr:`epoch` is where the read found
it before it pinned its version. Every committed write bumps the epoch
(:meth:`refresh_rows`, under the cache's lock and after the write
reached the memtable), and so does every drop of the spans. From there
the commit path keeps each row and span exact (docs/engine.md, "Caching
and backups").

Rows and spans share one LRU list, and the least recent goes first.
So that spans of one-off scans do not crowd out the rows of hot keys, a
span is admitted only on the :data:`SPAN_ADMIT_SCANS`-th scan from its
start, and none may hold more than :data:`SPAN_SHARE` of the budget.

A **ghost list** remembers what the budget cost: the ids of the entries
it evicted or refused, with their bytes, up to ``ghost_bytes`` of them
(a larger entry is not remembered, so it cannot flush the list); a
span's id is ``(start key,)``, which only a scan from there asks for. A
lookup that misses an entry the ghost holds is one a cache that many
bytes larger would have served: its bytes count once into
:attr:`BlockCache.ghost_hit_bytes`, the read side's marginal saving that
:mod:`repro.memory` weighs against the memtable's.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right
from collections import OrderedDict

from ..errors import ConfigurationError

#: What a row costs beyond its key and value bytes: the two bytes
#: objects' headers (66) and its entry in the row LRU, dict slot and
#: links (~103). tracemalloc on CPython 3.11 x86_64 measured 169 per
#: row for 6,000 rows of 100 B and of 1 KiB values.
ROW_OVERHEAD_BYTES = 170
#: What a span costs beyond its rows and its end key's bytes (the span
#: object, its two row lists, its LRU entry and key, its slots in the
#: sorted lists, the end key's header), and what each row in it costs
#: beyond its key and value bytes (the two bytes objects' headers and a
#: slot in each row list). tracemalloc on CPython 3.11 x86_64 measured
#: 466 and 81 over 6,000 one-row and 1,000 fifty-row spans of 1 KiB.
SPAN_OVERHEAD_BYTES = 470
SPAN_ROW_OVERHEAD_BYTES = 88
#: The largest share of the budget one span may hold: a wide scan's span
#: is refused, as its rows alone would evict most of what is cached.
SPAN_SHARE = 0.125
#: A scan's span is admitted on the second scan from its start, counted
#: over the last ``SCAN_STARTS`` starts: most starts are scanned once,
#: and a span of 50 rows would take the budget of 50 rows of hot keys.
SPAN_ADMIT_SCANS = 2
SCAN_STARTS = 1024


class _Span:
    """Keys ``[lo, end)`` (``end`` None: no upper bound) whose every live
    row is held: ``keys`` sorted, ``values`` beside them, ``charge`` the
    bytes the budget counts for all of it."""

    __slots__ = ("lo", "end", "keys", "values", "charge")

    def __init__(self, lo: bytes, end: bytes | None, keys: list, values: list):
        self.lo, self.end, self.keys, self.values = lo, end, keys, values
        self.charge = (
            SPAN_OVERHEAD_BYTES + len(end or b"")
            + sum(map(len, keys)) + sum(map(len, values))
            + SPAN_ROW_OVERHEAD_BYTES * len(keys)
        )


#: What ``_answers`` returns for a key with no row (a row may be None).
_NO_ROW = object()


def _row_charge(key: bytes, value: bytes | None) -> int:
    """The bytes one row is charged against the budget."""
    return len(key) + len(value or b"") + ROW_OVERHEAD_BYTES


#: The share of a store's memory (memtable plus cache bytes) its ghost
#: list covers, and the share of a shard's budget one memory-arbiter
#: step moves: a ghost hit is a lookup one more step of cache would
#: have served.
STEP_SHARE = 0.05


def ghost_bytes_for(memtable_bytes: int, cache_bytes: int) -> int:
    """The ghost bound of a store holding these two budgets."""
    return int((memtable_bytes + cache_bytes) * STEP_SHARE)


#: The cache's counters in the registry, in the order
#: :meth:`BlockCache.count_into` reads them.
_COUNTERS = (
    (
        "engine_block_cache_misses_total",
        "Data blocks queries read from their files: every block lookup.",
    ),
    (
        "engine_block_cache_evictions_total",
        "Spans and rows evicted to stay within the cache budget.",
    ),
    ("engine_row_cache_hits_total", "Point lookups a cached row or span answered."),
    ("engine_scan_cache_hits_total", "Range scans spans answered, reading no block."),
    ("engine_scan_span_rows_total", "Rows range scans took from cached spans."),
    (
        "engine_block_cache_ghost_hit_bytes_total",
        "Bytes of misses on evicted entries the ghost list still held.",
    ),
)


class BlockCache:
    """Byte-budgeted cache of key spans and rows, thread-safe."""

    def __init__(self, capacity_bytes: int, ghost_bytes: int = 0) -> None:
        if capacity_bytes < 0 or ghost_bytes < 0:
            raise ConfigurationError("cache capacity cannot be negative")
        self._capacity = capacity_bytes
        # Evicted or refused ids (a span's ``(start key,)``, a row's
        # key), oldest first, and their bytes.
        self._ghost: OrderedDict[object, int] = OrderedDict()
        self._ghost_capacity = ghost_bytes
        self._ghost_bytes = 0
        self._ghost_hit_bytes = 0
        # Rows by key and spans by ``(start key,)``, one list, least
        # recent first; and the spans in key order beside their start
        # keys: disjoint and never touching, so the span that may cover
        # a key is the one starting last at or before it.
        self._answers: OrderedDict[object, bytes | None | _Span] = OrderedDict()
        self._starts: list[bytes] = []
        self._spans: list[_Span] = []
        # Recent scan starts with no span yet, and how often each was
        # scanned, least recent first.
        self._scan_starts: OrderedDict[bytes, int] = OrderedDict()
        self._used_bytes = 0
        self._epoch = 0
        self._misses = 0
        self._row_hits = 0
        self._scan_hits = 0
        self._scan_span_rows = 0
        self._evictions = 0
        # The totals the last count_into() counted up to.
        self._counted = (0,) * len(_COUNTERS)
        self._lock = threading.Lock()

    @property
    def capacity_bytes(self) -> int:
        """Configured byte budget (0 disables caching)."""
        return self._capacity

    @property
    def used_bytes(self) -> int:
        """Bytes currently cached: spans and rows."""
        return self._used_bytes

    @property
    def misses(self) -> int:
        """Data blocks queries read from their files: every block
        lookup, as no block is cached."""
        return self._misses

    @property
    def row_hits(self) -> int:
        """Point lookups answered by a cached row or span, with no block
        lookup."""
        return self._row_hits

    @property
    def scan_hits(self) -> int:
        """Range scans cached spans answered (memtables aside), no block read."""
        return self._scan_hits

    @property
    def scan_span_rows(self) -> int:
        """Rows range scans took from cached spans."""
        return self._scan_span_rows

    @property
    def evictions(self) -> int:
        """Entries evicted to stay within the budget (resizes included)."""
        return self._evictions

    @property
    def ghost_hit_bytes(self) -> int:
        """Bytes of lookups that missed an entry the ghost list held."""
        return self._ghost_hit_bytes

    @property
    def ghost_bytes(self) -> int:
        """Bytes of evicted or refused entries the ghost list holds."""
        return self._ghost_bytes

    @property
    def epoch(self) -> int:
        """How many committed writes and span drops the cache has seen:
        a read's answer is admitted only at the epoch it began at."""
        return self._epoch

    def count_into(self, registry) -> None:
        """Add to the registry's cache counters what the totals grew by
        since the last call, read under the cache's lock so racing
        callers count a lookup once; stores sharing a registry sum."""
        with self._lock:
            counts = (
                self._misses, self._evictions, self._row_hits,
                self._scan_hits, self._scan_span_rows, self._ghost_hit_bytes,
            )
            before, self._counted = self._counted, counts
        for (name, help_text), now, then in zip(_COUNTERS, counts, before):
            registry.counter(name, help=help_text).inc(now - then)

    def count_block_read(self) -> None:
        """Count one data block a query read from its file (what a run's
        reader calls): under the lock, so racing reads count exactly."""
        with self._lock:
            self._misses += 1

    def get(self, key: bytes) -> tuple[bool, bytes | None]:
        """A get's answer from the key's row or the span covering it, as
        ``(found, value)``: ``(True, None)`` is a proven absence,
        ``(False, None)`` neither. A miss is not counted: the lookup goes
        on to blocks, which are."""
        with self._lock:
            answers = self._answers
            value = answers.get(key, _NO_ROW)
            if value is not _NO_ROW:
                answers.move_to_end(key)
                self._row_hits += 1
                return True, value
            span = self._find_locked(key) if self._starts else None
            if span is None:
                self._ghost_hit_locked(key)
                return False, None
            answers.move_to_end((span.lo,))
            self._row_hits += 1
            keys = span.keys
            index = bisect_left(keys, key)
            if index < len(keys) and keys[index] == key:
                return True, span.values[index]
            return True, None

    def put_row(self, key: bytes, value: bytes | None, epoch: int) -> None:
        """Admit a get's answer as the row of ``key`` (``value`` None:
        deleted) unless a write or a drop came after the get read
        ``epoch``; one larger than the whole budget is not cached."""
        with self._lock:
            if epoch == self._epoch:
                self._put_row_locked(key, value)

    def span_rows(
        self, lo: bytes, hi: bytes | None, limit: int | None
    ) -> list[tuple[bytes, bytes | None, list]]:
        """The spans a scan over ``[lo, hi)`` crosses, in key order, as
        ``(start, end, rows)`` cut to the range, each turned most recent.
        The copy stops at the row that brings them to ``limit``, the end
        cut after it: the scan's answer ends there at the latest."""
        taken: list = []
        with self._lock:
            spans, index = self._spans, bisect_right(self._starts, lo)
            if self._find_locked(lo) is None:
                self._ghost_hit_locked((lo,))
            else:
                index -= 1
            for index in range(index, len(spans)):
                span = spans[index]
                keys, end = span.keys, span.end
                if hi is not None and (end is None or end > hi):
                    if span.lo >= hi:
                        break
                    end = hi
                first = bisect_left(keys, lo) if span.lo < lo else 0
                last = len(keys) if end is None else bisect_left(keys, end, first)
                if limit is not None and last - first >= limit:
                    last = first + limit
                    end = keys[last - 1] + b"\x00"
                rows = list(zip(keys[first:last], span.values[first:last]))
                taken.append((max(span.lo, lo), end, rows))
                self._answers.move_to_end((span.lo,))
                if limit is not None:
                    limit -= len(rows)
                if limit == 0 or end is None or end == hi:
                    break
        return taken

    def count_scan(self, span_rows: int, hit: bool) -> None:
        """Count a scan's rows from spans, and whether it is a hit."""
        with self._lock:
            self._scan_span_rows += span_rows
            self._scan_hits += hit

    def put_span(
        self,
        lo: bytes | None,
        hi: bytes | None,
        limit: int | None,
        rows: list[tuple[bytes, bytes]],
        epoch: int,
    ) -> None:
        """Admit what a scan over ``[lo, hi)`` returned, unless a write
        or a drop came after the scan read ``epoch``: ``[lo, last row]``
        when it returned ``limit`` rows, else ``[lo, hi)``. A span over
        :data:`SPAN_SHARE` of the budget, merged or not, is refused, and
        a large answer is refused by its row count before any copy."""
        end = rows[-1][0] + b"\x00" if len(rows) == limit else hi
        lo = lo or b""
        share = self._capacity * SPAN_SHARE
        if (
            epoch != self._epoch
            or (end is not None and lo >= end)
            or len(rows) * SPAN_ROW_OVERHEAD_BYTES > share
        ):
            return
        with self._lock:
            scans = self._scan_starts.pop(lo, 0) + 1
            if scans < SPAN_ADMIT_SCANS:
                self._scan_starts[lo] = scans
                if len(self._scan_starts) > SCAN_STARTS:
                    self._scan_starts.popitem(last=False)
                return
        span = _Span(lo, end, [key for key, _ in rows], [v for _, v in rows])
        if span.charge > share:
            return
        with self._lock:
            if epoch == self._epoch:
                self._admit_locked(span, share)

    def refresh_rows(self, batch) -> None:
        """A committed write's answers, ``(key, value or None)`` pairs in
        commit order: a key's row takes its new value, admitted by
        :meth:`put_row`'s rule; a key inside a span takes its new row, or
        loses it when deleted, and the span turns most recent, or is
        dropped once over its share. A key with neither gets none. Bumps
        the epoch."""
        with self._lock:
            self._epoch += 1
            answers, starts = self._answers, self._starts
            for key, value in batch:
                if key in answers:
                    self._put_row_locked(key, value)
                index = bisect_right(starts, key) if starts else 0
                if index:  # inline _find_locked: every write passes here
                    span = self._spans[index - 1]
                    if span.end is None or key < span.end:
                        self._refresh_span_locked(span, key, value)
            self._evict_locked()

    def _refresh_span_locked(
        self, span: _Span, key: bytes, value: bytes | None
    ) -> None:
        keys, values = span.keys, span.values
        index = bisect_left(keys, key)
        row = SPAN_ROW_OVERHEAD_BYTES + len(key)
        if index < len(keys) and keys[index] == key:
            delta = -row - len(values[index])
            if value is None:
                del keys[index], values[index]
            else:
                values[index] = value
                delta += row + len(value)
        elif value is not None:
            keys.insert(index, key)
            values.insert(index, value)
            delta = row + len(value)
        else:
            return
        span.charge += delta
        self._used_bytes += delta
        self._answers.move_to_end((span.lo,))
        if span.charge > self._capacity * SPAN_SHARE:
            self._used_bytes -= span.charge
            del self._answers[(span.lo,)]
            self._unindex_locked(span)
            self._remember_locked((span.lo,), span.charge)

    def _put_row_locked(self, key: bytes, value: bytes | None) -> None:
        answers = self._answers
        old = answers.pop(key, _NO_ROW)
        if old is not _NO_ROW:
            self._used_bytes -= _row_charge(key, old)
        size = _row_charge(key, value)
        if size > self._capacity:
            self._remember_locked(key, size)
            return
        answers[key] = value
        self._used_bytes += size
        self._evict_locked()

    def _find_locked(self, key: bytes) -> _Span | None:
        """The span covering ``key``, or None; caller holds the lock."""
        index = bisect_right(self._starts, key)
        if index:
            span = self._spans[index - 1]
            if span.end is None or key < span.end:
                return span
        return None

    def _admit_locked(self, span: _Span, share: float) -> None:
        """Cache ``span``, merged with every span it overlaps or touches,
        as the most recent row or span, then evict to the budget. A merge
        over ``share`` is refused and leaves the spans it would have
        merged alone (each is exact)."""
        lo, end, keys, values = span.lo, span.end, span.keys, span.values
        starts = self._starts
        first = bisect_right(starts, lo)
        if first:
            before = self._spans[first - 1].end
            if before is None or before >= lo:
                first -= 1
        last = len(starts) if end is None else bisect_right(starts, end)
        merged = self._spans[first:last]
        if merged:
            head, tail = merged[0], merged[-1]
            if head.lo < lo:
                cut = bisect_left(head.keys, lo)
                keys[:0], values[:0] = head.keys[:cut], head.values[:cut]
                lo = head.lo
            if end is not None and (tail.end is None or tail.end > end):
                cut = bisect_left(tail.keys, end)
                keys += tail.keys[cut:]
                values += tail.values[cut:]
                end = tail.end
            span = _Span(lo, end, keys, values)
        if span.charge > share:
            return
        for old in merged:
            self._used_bytes -= old.charge
            del self._answers[(old.lo,)]
        starts[first:last] = [lo]
        self._spans[first:last] = [span]
        self._answers[(lo,)] = span
        self._used_bytes += span.charge
        self._evict_locked()

    def _unindex_locked(self, span: _Span) -> None:
        index = bisect_left(self._starts, span.lo)
        del self._starts[index], self._spans[index]

    def _remember_locked(self, key, size: int) -> None:
        """Put an evicted or refused entry at the ghost's tail, dropping
        the oldest past the bound; an entry larger than the bound is not
        remembered. Caller holds the lock."""
        self._ghost_bytes -= self._ghost.pop(key, 0)
        if size <= self._ghost_capacity:
            self._ghost[key] = size
            self._ghost_bytes += size
            self._trim_ghost_locked()

    def _trim_ghost_locked(self) -> None:
        while self._ghost_bytes > self._ghost_capacity:
            self._ghost_bytes -= self._ghost.popitem(last=False)[1]

    def _ghost_hit_locked(self, key) -> None:
        """A lookup missed: if the ghost holds ``key``, count its bytes
        and forget it, so one eviction counts once; caller holds the
        lock."""
        size = self._ghost.pop(key, 0)
        self._ghost_bytes -= size
        self._ghost_hit_bytes += size

    def _evict_locked(self) -> None:
        """Evict the least recent row or span until within budget; caller
        holds the lock."""
        while self._used_bytes > self._capacity:
            key, entry = self._answers.popitem(last=False)
            if isinstance(entry, _Span):
                self._unindex_locked(entry)
                size = entry.charge
            else:
                size = _row_charge(key, entry)
            self._used_bytes -= size
            self._remember_locked(key, size)
            self._evictions += 1

    def resize(
        self, capacity_bytes: int, ghost_bytes: int | None = None
    ) -> int:
        """Change the byte budget in place; returns bytes evicted.

        Shrinking evicts the least recent rows and spans at once:
        ``used_bytes`` never exceeds the new capacity on return. Growing
        raises the budget; refused entries are admitted on their next
        put. ``ghost_bytes`` moves the ghost's bound too (None keeps
        it); what a shrink evicts enters the ghost under it.
        """
        if capacity_bytes < 0 or (ghost_bytes or 0) < 0:
            raise ConfigurationError("cache capacity cannot be negative")
        with self._lock:
            before = self.used_bytes
            self._capacity = capacity_bytes
            if ghost_bytes is not None:
                self._ghost_capacity = ghost_bytes
                self._trim_ghost_locked()
            self._evict_locked()
            return before - self.used_bytes

    def drop_all_rows(self) -> int:
        """Forget every row and span, and bump the epoch so that no read
        begun before admits one; returns bytes freed."""
        with self._lock:
            self._epoch += 1
            freed, self._used_bytes = self._used_bytes, 0
            self._answers.clear()
            self._starts.clear()
            self._spans.clear()
            return freed

    def clear(self) -> None:
        """Drop everything, the ghost list too (budget unchanged)."""
        self.drop_all_rows()
        with self._lock:
            self._scan_starts.clear()
            self._ghost.clear()
            self._ghost_bytes = 0
