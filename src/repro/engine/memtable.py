"""The memory component: a hash map for point access plus a sorted key
index kept in fixed-size chunks.

Point reads and overwrites touch only the ``dict``. A key seen for the
first time is also filed in the index: a list of sorted chunks of at
most :data:`CHUNK_KEYS` keys, found by bisecting the chunks' largest
keys and filled by ``insort`` — so no put, and no scan start, does work
proportional to the table's size. Nothing is ever removed (deletes
store tombstones), and the index holds keys only; values live in the
map, so an overwrite never touches it.

Every mutation, and every iteration over a table that can still
change — the active one — runs under the store lock. A get probes the
active table without it, by one ``dict`` lookup, which the interpreter
runs as a single step; it never iterates it. A sealed table is
immutable and may be iterated without the lock (see
docs/engine-concurrency.md).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Iterator

from ..errors import ConfigurationError
from .options import TOMBSTONE

#: Overhead charged per entry on top of key/value payload, approximating
#: per-entry bookkeeping (keeps memtable_bytes meaningful).
ENTRY_OVERHEAD = 48

#: Most keys one index chunk holds before it splits in two: small enough
#: that an ``insort`` moves a few KiB of pointers at worst, large enough
#: that the list of chunks stays short.
CHUNK_KEYS = 512

_ABSENT = object()


def payload_bytes(batch: list[tuple[bytes, bytes | None]]) -> int:
    """Raw key plus value bytes of a batch (a delete carries no value)."""
    return sum(
        len(key) + (0 if value is TOMBSTONE else len(value))
        for key, value in batch
    )


class MemTable:
    """An ordered in-memory write buffer with tombstone support."""

    def __init__(self) -> None:
        self._values: dict[bytes, bytes | None] = {}
        #: The sorted key index, and each chunk's largest key.
        self._chunks: list[list[bytes]] = []
        self._maxes: list[bytes] = []
        self._tombstones = 0
        self._bytes = 0
        self._sealed = False

    def __len__(self) -> int:
        return len(self._values)

    @property
    def approximate_bytes(self) -> int:
        """Payload plus bookkeeping overhead currently buffered."""
        return self._bytes

    def bytes_at_most_after(
        self, batch: list[tuple[bytes, bytes | None]]
    ) -> int:
        """An upper bound on :attr:`approximate_bytes` once ``batch`` is
        applied: every key charged as new, nothing credited for the
        value an overwrite replaces."""
        return self._bytes + ENTRY_OVERHEAD * len(batch) + payload_bytes(batch)

    @property
    def tombstone_count(self) -> int:
        """Number of keys whose latest entry is a deletion."""
        return self._tombstones

    @property
    def sealed(self) -> bool:
        """Sealed memtables are immutable and awaiting flush."""
        return self._sealed

    def seal(self) -> None:
        """Make the memtable immutable (called at rotation)."""
        self._sealed = True

    def put(self, key: bytes, value: bytes) -> None:
        """Insert or update a key."""
        if not isinstance(value, bytes):
            raise ConfigurationError("values must be bytes (or a delete)")
        old = self._store(key, value)
        if old is _ABSENT:
            self._bytes += len(key) + len(value) + ENTRY_OVERHEAD
        elif old is TOMBSTONE:
            self._tombstones -= 1
            self._bytes += len(value)
        else:
            self._bytes += len(value) - len(old)

    def delete(self, key: bytes) -> None:
        """Record a deletion (anti-matter entry)."""
        old = self._store(key, TOMBSTONE)
        if old is _ABSENT:
            self._tombstones += 1
            self._bytes += len(key) + ENTRY_OVERHEAD
        elif old is not TOMBSTONE:
            self._tombstones += 1
            self._bytes -= len(old)

    def _store(self, key: bytes, value):
        """Set ``key`` and return what it held (``_ABSENT`` if new)."""
        if self._sealed:
            raise ConfigurationError("cannot write to a sealed memtable")
        if not isinstance(key, bytes) or not key:
            raise ConfigurationError("keys must be non-empty bytes")
        values = self._values
        old = values.get(key, _ABSENT)
        values[key] = value
        if old is _ABSENT:
            self._index_key(key)
        return old

    def _index_key(self, key: bytes) -> None:
        maxes = self._maxes
        at = bisect_left(maxes, key)
        if at == len(maxes):
            # Above every indexed key (always, for ascending loads):
            # extend the last chunk.
            if not maxes:
                self._chunks.append([key])
                maxes.append(key)
                return
            at -= 1
            chunk = self._chunks[at]
            chunk.append(key)
            maxes[at] = key
        else:
            chunk = self._chunks[at]
            insort(chunk, key)
        if len(chunk) > CHUNK_KEYS:
            half = len(chunk) // 2
            self._chunks.insert(at + 1, chunk[half:])
            maxes.insert(at + 1, maxes[at])
            del chunk[half:]
            maxes[at] = chunk[-1]

    def get(self, key: bytes) -> tuple[bool, bytes | None]:
        """Return ``(found, value)``; a found tombstone yields
        ``(True, None)`` so callers can distinguish "deleted here" from
        "not present in this component"."""
        value = self._values.get(key, _ABSENT)
        if value is _ABSENT:
            return False, None
        return True, value

    def items(
        self, lo: bytes | None = None, hi: bytes | None = None
    ) -> Iterator[tuple[bytes, bytes | None]]:
        """Ordered iteration over ``[lo, hi)``; tombstones included."""
        chunks = self._chunks
        values = self._values
        first = start = 0
        if lo is not None:
            first = bisect_left(self._maxes, lo)
            if first == len(chunks):
                return
            start = bisect_left(chunks[first], lo)
        for at in range(first, len(chunks)):
            chunk = chunks[at]
            stop = len(chunk)
            if hi is not None and chunk[-1] >= hi:
                stop = bisect_left(chunk, hi, start)
            for key in chunk[start:stop]:
                yield key, values[key]
            if stop < len(chunk):
                return
            start = 0
