"""A shared LRU cache of data blocks and point-lookup rows.

The paper's testbed gives AsterixDB a 2 GB buffer cache (Section 3.1);
this is the engine's equivalent: one byte-budgeted LRU shared by every
reader of a store, holding two kinds of entry.

- **Blocks**, keyed by ``(reader generation, offset)``. Scans put the
  blocks they read; point lookups use a cached block but never add one.
  Runs are immutable, so a block needs no invalidation: a deleted run's
  entries are dropped with its reader, and the per-reader generation
  means a reused file name can never alias stale blocks.
- **Rows**: a point lookup's answer, ``key -> value`` or "deleted",
  from the run that held the key. A row caches the one value a lookup
  wanted instead of the block around it. It is not immutable: the store
  drops a key's row when a write commits to it, and every row when the
  set of runs changes what a lookup could answer (docs/engine.md,
  "Caching and backups").

Both kinds share the budget and the recency order, each charged what it
holds, so a hot row keeps its bytes only as long as it earns them
against the blocks scans bring in.
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict

from ..errors import ConfigurationError

#: The generation rows are filed under; readers get 1, 2, ...
ROWS = 0
#: What a row costs beyond its key and value bytes: the two bytes
#: objects' headers (66), and the key tuple, LRU entry and generation
#: index slot (~234 under tracemalloc, CPython 3.11 x86_64).
ROW_OVERHEAD_BYTES = 300
_MISSING = object()


def _charge(key: tuple, entry) -> int:
    """The bytes one entry is charged against the budget."""
    if key[0] != ROWS:
        return len(entry)
    value_bytes = len(entry) if entry is not None else 0
    return len(key[1]) + value_bytes + ROW_OVERHEAD_BYTES


class BlockCache:
    """Byte-budgeted LRU cache of data blocks and rows, thread-safe."""

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes < 0:
            raise ConfigurationError("cache capacity cannot be negative")
        self._capacity = capacity_bytes
        self._entries: OrderedDict[tuple, object] = OrderedDict()
        # Per-generation key index so evict_reader drops one reader's
        # blocks (and drop_all_rows every row) without a full scan.
        self._by_generation: dict[int, set[tuple]] = {}
        self._bytes = 0
        self._hits = 0
        self._misses = 0
        self._row_hits = 0
        self._evictions = 0
        self._lock = threading.Lock()
        self._generations = itertools.count(ROWS + 1)

    @property
    def capacity_bytes(self) -> int:
        """Configured byte budget (0 disables caching)."""
        return self._capacity

    @property
    def used_bytes(self) -> int:
        """Bytes currently cached, blocks and rows."""
        return self._bytes

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
            block = self._entries.get(key)
            if block is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return block

    def put(self, generation: int, offset: int, block: bytes) -> None:
        """Insert a block, evicting LRU entries beyond the budget."""
        self._admit((generation, offset), block)

    def get_row(self, key: bytes) -> tuple[bool, bytes | None]:
        """A cached lookup answer as ``(found, value)``: ``(True, None)``
        is a cached deletion, ``(False, None)`` no row. A miss is not
        counted: the lookup goes on to blocks, which are."""
        cache_key = (ROWS, key)
        with self._lock:
            value = self._entries.get(cache_key, _MISSING)
            if value is _MISSING:
                return False, None
            self._entries.move_to_end(cache_key)
            self._row_hits += 1
            return True, value

    def put_row(self, key: bytes, value: bytes | None) -> None:
        """Cache a lookup answer (``value`` None: the key is deleted)."""
        self._admit((ROWS, key), value)

    def _admit(self, key: tuple, entry) -> None:
        size = _charge(key, entry)
        if self._capacity == 0 or size > self._capacity:
            return
        with self._lock:
            self._drop_locked(key)
            self._entries[key] = entry
            self._by_generation.setdefault(key[0], set()).add(key)
            self._bytes += size
            self._evict_to_capacity_locked()

    def _evict_to_capacity_locked(self) -> None:
        """Evict LRU entries until within budget; caller holds the lock."""
        while self._bytes > self._capacity:
            self._drop_locked(next(iter(self._entries)))
            self._evictions += 1

    def _drop_locked(self, key: tuple) -> int:
        """Remove one entry if cached; returns the bytes freed (caller
        holds the lock)."""
        entry = self._entries.pop(key, _MISSING)
        if entry is _MISSING:
            return 0
        freed = _charge(key, entry)
        self._bytes -= freed
        members = self._by_generation[key[0]]
        members.discard(key)
        if not members:
            del self._by_generation[key[0]]
        return freed

    def resize(self, capacity_bytes: int) -> int:
        """Change the byte budget in place; returns bytes evicted.

        Shrinking evicts LRU entries immediately so accounting stays
        honest — ``used_bytes`` never exceeds the new capacity on
        return. Growing simply raises the budget: previously rejected
        entries are admitted on their next ``put``. Resizing to zero
        drops everything but keeps counting lookups as misses, exactly
        like a cache constructed with capacity 0. Generations are
        untouched — readers registered before a resize keep their ids,
        so a block cached under one can never alias another reader's.
        """
        if capacity_bytes < 0:
            raise ConfigurationError("cache capacity cannot be negative")
        with self._lock:
            before = self._bytes
            self._capacity = capacity_bytes
            self._evict_to_capacity_locked()
            return before - self._bytes

    def evict_reader(self, generation: int) -> int:
        """Drop every block of one reader; returns bytes freed.

        O(blocks of that reader) via the generation index, not O(every
        cached block) — closing one run out of thousands must not stall
        the store lock for a full cache scan.
        """
        with self._lock:
            doomed = list(self._by_generation.get(generation, ()))
            return sum(self._drop_locked(key) for key in doomed)

    def drop_rows(self, keys) -> None:
        """Forget the cached answers for ``keys``: a write changed them."""
        with self._lock:
            if ROWS in self._by_generation:
                for key in keys:
                    self._drop_locked((ROWS, key))

    def drop_all_rows(self) -> int:
        """Forget every cached answer; returns bytes freed."""
        return self.evict_reader(ROWS)

    def clear(self) -> None:
        """Drop everything (budget unchanged)."""
        with self._lock:
            self._entries.clear()
            self._by_generation.clear()
            self._bytes = 0
