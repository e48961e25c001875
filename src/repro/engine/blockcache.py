"""A shared cache of data blocks and point-lookup rows, one byte budget.

The paper's testbed gives AsterixDB a 2 GB buffer cache (Section 3.1);
this is the engine's equivalent: one byte budget shared by every reader
of a store, holding two kinds of entry, each in its own LRU list.

- **Blocks**, keyed by ``(reader generation, offset)``. Scans put the
  blocks they read; point lookups use a cached block but never add one.
  Runs are immutable, so a block needs no invalidation: a deleted run's
  entries are dropped with its reader, and the per-reader generation
  means a reused file name can never alias stale blocks.
- **Rows**: a point lookup's answer, ``key -> value`` or "deleted",
  from the run that held the key. A row caches the one value a lookup
  wanted instead of the block around it. It is not immutable: a write
  that commits to a cached key refreshes its row
  (:meth:`refresh_rows`), and the store drops every row when the set of
  runs changes what a lookup could answer (docs/engine.md, "Caching and
  backups").

Rows outrank blocks in the budget, for a hot row saves a block read per
get and a block a scan reads once saves none (*Breaking Down Memory
Walls*): a block fits only into the bytes rows leave, and a row evicts
the least recent block first, a row only when no block is left. Every
eviction pops the head of one list: O(1), never a walk.

A **ghost list** remembers what the budget cost: the ids of the blocks
and rows it evicted or refused, with their bytes, up to ``ghost_bytes``
of them. A lookup that misses an entry the ghost still holds is one a
cache that many bytes larger would have served; its bytes count once
into :attr:`BlockCache.ghost_hit_bytes`, the read side's marginal
saving that :mod:`repro.memory` weighs against the memtable's.
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict

from ..errors import ConfigurationError

#: What a row costs beyond its key and value bytes: the two bytes
#: objects' headers (66) and its entry in the row LRU, dict slot and
#: links (~103). tracemalloc on CPython 3.11 x86_64 measured 169 per
#: row for 6,000 rows of 100 B and of 1 KiB values.
ROW_OVERHEAD_BYTES = 170


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
    ("engine_block_cache_hits_total", "Block lookups served from the cache."),
    ("engine_block_cache_misses_total", "Block lookups that fell through to disk."),
    (
        "engine_block_cache_evictions_total",
        "Blocks and rows evicted to stay within the cache budget.",
    ),
    (
        "engine_row_cache_hits_total",
        "Point lookups answered by a cached row, no block read.",
    ),
    (
        "engine_block_cache_ghost_hit_bytes_total",
        "Bytes of misses on evicted entries the ghost list still held.",
    ),
)


class BlockCache:
    """Byte-budgeted cache of data blocks and rows, thread-safe."""

    def __init__(self, capacity_bytes: int, ghost_bytes: int = 0) -> None:
        if capacity_bytes < 0 or ghost_bytes < 0:
            raise ConfigurationError("cache capacity cannot be negative")
        self._capacity = capacity_bytes
        # Evicted or refused ids, ``(generation, offset)`` for a block
        # and the key for a row, oldest first, each with its bytes.
        self._ghost: OrderedDict[object, int] = OrderedDict()
        self._ghost_capacity = ghost_bytes
        self._ghost_bytes = 0
        self._ghost_hit_bytes = 0
        self._blocks: OrderedDict[tuple[int, int], bytes] = OrderedDict()
        self._rows: OrderedDict[bytes, bytes | None] = OrderedDict()
        # Per-reader block offsets, so evict_reader drops one reader's
        # blocks without a full scan; a reader's set goes with it.
        self._by_generation: dict[int, set[int]] = {}
        self._block_bytes = 0
        self._row_bytes = 0
        self._hits = 0
        self._misses = 0
        self._row_hits = 0
        self._evictions = 0
        # The totals the last count_into() counted up to.
        self._counted = (0,) * len(_COUNTERS)
        self._lock = threading.Lock()
        self._generations = itertools.count(1)

    @property
    def capacity_bytes(self) -> int:
        """Configured byte budget (0 disables caching)."""
        return self._capacity

    @property
    def used_bytes(self) -> int:
        """Bytes currently cached, blocks and rows."""
        return self._block_bytes + self._row_bytes

    @property
    def hits(self) -> int:
        """Block lookups served from the cache."""
        return self._hits

    @property
    def misses(self) -> int:
        """Block lookups that missed."""
        return self._misses

    @property
    def row_hits(self) -> int:
        """Point lookups answered by a cached row, with no block lookup."""
        return self._row_hits

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

    def count_into(self, registry) -> None:
        """Add to the registry's cache counters what the totals grew by
        since the last call, read under the cache's lock so racing
        callers count a lookup once; stores sharing a registry sum."""
        with self._lock:
            counts = (
                self._hits, self._misses, self._evictions, self._row_hits,
                self._ghost_hit_bytes,
            )
            before, self._counted = self._counted, counts
        for (name, help_text), now, then in zip(_COUNTERS, counts, before):
            registry.counter(name, help=help_text).inc(now - then)

    def hit_rate(self) -> float:
        """Fraction of block lookups served from cache (0 when unused)."""
        total = self._hits + self._misses
        return self._hits / total if total else 0.0

    def register_reader(self) -> int:
        """Allocate a generation id for a new reader.

        Cache keys embed the generation, so blocks of a closed reader can
        never be returned to a different reader that reuses its filename.
        """
        return next(self._generations)

    def get(self, generation: int, offset: int) -> bytes | None:
        """Fetch a cached block, refreshing its recency.

        A zero-capacity cache can never hit, but its lookups are still
        real lookups the reader had to satisfy from disk — they count as
        misses so ``hit_rate()`` honestly reports 0% instead of looking
        like the cache was never consulted.
        """
        key = (generation, offset)
        with self._lock:
            block = self._blocks.get(key)
            if block is None:
                self._misses += 1
                self._ghost_hit_locked(key)
                return None
            self._blocks.move_to_end(key)
            self._hits += 1
            return block

    def put(self, generation: int, offset: int, block: bytes) -> None:
        """Insert a block into the bytes the rows leave, evicting least
        recent blocks; a block that does not fit beside the rows is not
        cached."""
        with self._lock:
            key = (generation, offset)
            if len(block) > self._capacity - self._row_bytes:
                self._remember_locked(key, len(block))
                return
            self._block_bytes += len(block) - len(self._blocks.pop(key, b""))
            self._blocks[key] = block
            self._by_generation.setdefault(generation, set()).add(offset)
            self._evict_locked()

    def get_row(self, key: bytes) -> tuple[bool, bytes | None]:
        """A cached lookup answer as ``(found, value)``: ``(True, None)``
        is a cached deletion, ``(False, None)`` no row. A miss is not
        counted: the lookup goes on to blocks, which are."""
        with self._lock:
            if key not in self._rows:
                self._ghost_hit_locked(key)
                return False, None
            self._rows.move_to_end(key)
            self._row_hits += 1
            return True, self._rows[key]

    def put_row(self, key: bytes, value: bytes | None) -> None:
        """Cache a lookup answer (``value`` None: the key is deleted),
        evicting the least recent block first and a row only when no
        block is left. A row larger than the whole budget is not
        cached."""
        with self._lock:
            self._put_row_locked(key, value)

    def refresh_rows(self, batch) -> None:
        """A committed write's answers, ``(key, value or None)`` pairs in
        commit order: a cached key's row takes its new value, admitted by
        :meth:`put_row`'s rule, so a row that no longer fits the budget
        is dropped. A key with no row gets none."""
        with self._lock:
            for key, value in batch:
                if key in self._rows:
                    self._put_row_locked(key, value)

    def _put_row_locked(self, key: bytes, value: bytes | None) -> None:
        if key in self._rows:
            self._row_bytes -= _row_charge(key, self._rows.pop(key))
        size = _row_charge(key, value)
        if size > self._capacity:
            self._remember_locked(key, size)
            return
        self._rows[key] = value
        self._row_bytes += size
        self._evict_locked()

    def _remember_locked(self, key, size: int) -> None:
        """Put an evicted or refused entry at the ghost's tail, dropping
        the oldest past the bound; caller holds the lock."""
        self._ghost_bytes += size - self._ghost.pop(key, 0)
        self._ghost[key] = size
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
        """Evict the least recent block, or with no block left the least
        recent row, until within budget; caller holds the lock."""
        while self._block_bytes + self._row_bytes > self._capacity:
            if self._blocks:
                key, block = self._blocks.popitem(last=False)
                size = len(block)
                self._block_bytes -= size
                self._by_generation[key[0]].discard(key[1])
            else:
                key, value = self._rows.popitem(last=False)
                size = _row_charge(key, value)
                self._row_bytes -= size
            self._remember_locked(key, size)
            self._evictions += 1

    def resize(
        self, capacity_bytes: int, ghost_bytes: int | None = None
    ) -> int:
        """Change the byte budget in place; returns bytes evicted.

        Shrinking evicts blocks, then rows, at once so accounting stays
        honest — ``used_bytes`` never exceeds the new capacity on
        return. Growing simply raises the budget: previously rejected
        entries are admitted on their next ``put``. Resizing to zero
        drops everything but keeps counting lookups as misses, exactly
        like a cache constructed with capacity 0. Generations are
        untouched — readers registered before a resize keep their ids,
        so a block cached under one can never alias another reader's.
        ``ghost_bytes`` moves the ghost's bound too (None keeps it); what
        a shrink evicts enters the ghost under the new bound.
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

    def evict_reader(self, generation: int) -> int:
        """Drop every block of one reader; returns bytes freed.

        O(blocks of that reader) via the generation index, not O(every
        cached block) — closing one run out of thousands must not stall
        the store lock for a full cache scan.
        """
        with self._lock:
            freed = sum(
                len(self._blocks.pop((generation, offset)))
                for offset in self._by_generation.pop(generation, ())
            )
            self._block_bytes -= freed
            return freed

    def drop_all_rows(self) -> int:
        """Forget every cached answer; returns bytes freed."""
        with self._lock:
            freed, self._row_bytes = self._row_bytes, 0
            self._rows.clear()
            return freed

    def clear(self) -> None:
        """Drop everything, the ghost list too (budget unchanged)."""
        with self._lock:
            self._blocks.clear()
            self._rows.clear()
            self._ghost.clear()
            self._by_generation.clear()
            self._block_bytes = self._row_bytes = self._ghost_bytes = 0
