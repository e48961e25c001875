"""Reconciling merge iterators over multiple components (Section 2.1).

A query over an LSM-tree must reconcile entries with identical keys across
components: entries from newer components override older ones, and a
tombstone (anti-matter) hides every older version of its key. The
:func:`reconciling_iterator` takes per-component ordered iterators,
*newest first*, and yields each live key's winning entry exactly once via
a heap with recency tie-breaking — the standard priority-queue scan the
paper describes for range queries. It is the reference: repair and
reset paths, the integrity checker and the tests' oracle use it.

The store's :meth:`~repro.engine.LSMStore.scan` applies the same rule
block-wise (:func:`merge_scan`): a k-way merge over cursors that know
their head key before they read a block, so a scan looks up only the
blocks that hold a row it returns. Intervals whose rows a cached span
holds are taken whole, and every cursor steps over them
(:meth:`RunCursor.seek`: by the index, reading a block only where an
interval ends inside it). The head-selection rule itself
(:func:`pick_head`) is shared with the compaction merge.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from typing import Callable, Iterable, Iterator

from ..errors import CorruptionError
from .options import TOMBSTONE

#: Item layout on the heap: (key, recency_rank, value, source_iterator).
#: recency_rank 0 is the newest component, so for equal keys the heap
#: pops the newest entry first and older duplicates are skipped.


def reconciling_iterator(
    sources: Iterable[Iterator[tuple[bytes, bytes | None]]],
    keep_tombstones: bool = False,
) -> Iterator[tuple[bytes, bytes | None]]:
    """Merge ordered per-component streams, newest component first.

    With ``keep_tombstones=False`` (query semantics) deleted keys are
    elided entirely; with True (merge-to-intermediate-level semantics)
    the winning tombstone is emitted so it can keep shadowing older
    components that are not part of this merge.
    """
    heap: list[tuple[bytes, int, bytes | None, Iterator]] = []
    for rank, source in enumerate(sources):
        for key, value in source:
            heapq.heappush(heap, (key, rank, value, source))
            break
    last_key: bytes | None = None
    while heap:
        key, rank, value, source = heapq.heappop(heap)
        for next_key, next_value in source:
            heapq.heappush(heap, (next_key, rank, next_value, source))
            break
        if key == last_key:
            continue  # an older version of an already-emitted key
        last_key = key
        if value is TOMBSTONE and not keep_tombstones:
            continue
        yield key, value


def pick_head(
    cursors: list,
    step_over: Callable[[object], None],
    stop: bytes | None = None,
):
    """One round of a k-way merge over ``cursors``, newest first: the
    cursor to drain next, and the key to stop before.

    A cursor offers its head as ``key`` (never None in the list). The
    first result is the cursor with the smallest head — the newest on a
    tie, whose entry shadows the others'; those are moved past their
    stale copy by ``step_over``, which also takes a cursor it exhausts
    (``key`` None) out of ``cursors``. The second is the smallest head
    among the rest (None when nothing else is left): below it the
    chosen cursor is alone. When the smallest head is at or past
    ``stop``, both are None and no cursor moves.
    """
    best = cursors[0]
    for cursor in cursors[1:]:
        if cursor.key < best.key:
            best = cursor
    if stop is not None and best.key >= stop:
        return None, None
    bound = None
    for cursor in list(cursors):
        if cursor is best:
            continue
        if cursor.key == best.key:
            step_over(cursor)
            if cursor.key is None:
                continue
        if bound is None or cursor.key < bound:
            bound = cursor.key
    return best, bound


class ReaderCorruption(CorruptionError):
    """A checksum failure that says which run's reader raised it.

    Get and scan learn from it *which* run failed (the probe and the
    scan cursors know, their consumers don't) before deciding to retry,
    quarantine, or re-serve, and never let it out of the store; a merge
    chunk's executor quarantines the input it names.
    """

    def __init__(self, run_id: int, error: CorruptionError) -> None:
        super().__init__(str(error))
        self.run_id = run_id


def read_twice(run_id: int, read, *args):
    """``read(*args)`` off run ``run_id``'s file, the way maintenance
    reads a block: a checksum failure is believed only the second time
    in a row (a transient read error passes the re-read; at-rest damage
    fails again), and then names the run."""
    try:
        try:
            return read(*args)
        except CorruptionError:
            return read(*args)
    except CorruptionError as error:
        raise ReaderCorruption(run_id, error) from error


class EntryCursor:
    """A memtable in a scan: a cursor over its (already lazy, already
    bounded) ``items(lo, hi)`` stream, one entry pulled ahead."""

    __slots__ = ("_items", "_value", "key")

    #: Block lookups made; a memtable has no blocks.
    blocks = 0

    def __init__(self, items: Iterator[tuple[bytes, bytes | None]]) -> None:
        self._items = items
        self.step()

    def step(self) -> None:
        """Move past the head."""
        self.key, self._value = next(self._items, (None, None))

    def seek(self, key: bytes) -> None:
        """Move past every entry below ``key``."""
        while self.key is not None and self.key < key:
            self.step()

    def drain(
        self, bound: bytes | None, rows: list, limit: int | None
    ) -> None:
        """Append the live entries below ``bound`` to ``rows``, stopping
        on the row that brings it to ``limit``."""
        while self.key is not None and (bound is None or self.key < bound):
            if self._value is not TOMBSTONE:
                rows.append((self.key, self._value))
                if len(rows) == limit:
                    return
            self.step()


class RunCursor:
    """A sorted run in a scan: a block cursor whose head is usually
    known before any block is read.

    The index gives every block's first key, so a cursor that stands at
    the start of a block — a run that begins at or above ``lo``, a
    ``lo`` that is exactly a block's first key, any block reached by
    finishing the one before — has its head with nothing read. The
    block is looked up (:meth:`SSTableReader.walk_block`: read from the
    file, once per scan) only when the merge drains the cursor or must
    move it past a stale copy of a key. Only a ``lo`` that falls inside
    a block forces a read up front: which key follows ``lo`` there is
    not in the index. :meth:`seek` moves the cursor on the same way.
    """

    __slots__ = (
        "run_id", "_reader", "_stop", "_next", "_payload", "_keys",
        "_ends", "_dead", "_pos", "key", "blocks",
    )

    def __init__(
        self, run_id: int, reader, lo: bytes | None, hi: bytes | None
    ) -> None:
        self.run_id = run_id
        self._reader = reader
        self._stop = hi
        #: Block lookups made — the scan's read amplification.
        self.blocks = 0
        self._next = 0
        self._jump(lo)

    def _jump(self, key: bytes | None) -> None:
        """Stand at the first entry at or past ``key``, from the block the
        index names for it (or ``_next``, if that is further on): its
        first key is the head, unless ``key`` falls inside the block,
        which is then read."""
        self._next = max(self._reader.seek_block(key), self._next)
        self._index_head()
        if key is not None and self.key is not None and self.key < key:
            self._load()
            self._pos = bisect_left(self._keys, key)
            self._block_head()

    def seek(self, key: bytes) -> None:
        """Move past every entry below ``key``: within the loaded block
        if ``key`` falls in it, else by the index, so the blocks in
        between are never read."""
        if self.key is None or self.key >= key:
            return
        keys = self._keys
        if keys is not None and key <= keys[-1]:
            self._pos = bisect_left(keys, key, self._pos)
            self._block_head()
        else:
            self._jump(key)

    def _offer(self, key: bytes) -> None:
        """Make ``key`` the head, unless the scan ends before it."""
        self.key = key if self._stop is None or key < self._stop else None

    def _index_head(self) -> None:
        """Stand at the start of the next block: its first key is the
        head, and the block stays unread."""
        self._keys = None
        if self._next < self._reader.block_count:
            self._offer(self._reader.first_key(self._next))
        else:
            self.key = None

    def _block_head(self) -> None:
        """Take the head from the loaded block at ``_pos``, or from the
        index when the block is used up."""
        if self._pos < len(self._keys):
            self._offer(self._keys[self._pos])
        else:
            self._index_head()

    def _load(self) -> None:
        try:
            self._payload, self._keys, self._ends, self._dead = (
                self._reader.walk_block(self._next)
            )
        except CorruptionError as error:
            raise ReaderCorruption(self.run_id, error) from error
        self._next += 1
        self._pos = 0
        self.blocks += 1

    def step(self) -> None:
        """Move past the head (a stale copy of a key a newer source
        holds); reads the head's block if it is still unread."""
        if self._keys is None:
            self._load()
        self._pos += 1
        self._block_head()

    def drain(
        self, bound: bytes | None, rows: list, limit: int | None
    ) -> None:
        """Append the live entries below ``bound`` to ``rows``, block
        after block, stopping on the row that brings it to ``limit`` —
        without a look at what follows that row."""
        stop = self._stop
        if bound is None or (stop is not None and stop < bound):
            bound = stop
        while True:
            if self._keys is None:
                self._load()
            keys, ends, payload, dead = (
                self._keys, self._ends, self._payload, self._dead
            )
            at = self._pos
            if bound is None or keys[-1] < bound:
                end = len(keys)
            else:
                end = bisect_left(keys, bound, at)
            start = ends[at - 1] if at else 0
            for index in range(at, end):
                key = keys[index]
                entry_end = ends[index]
                if index not in dead:
                    value = payload[start + 8 + len(key) : entry_end]
                    rows.append((key, value))
                    if len(rows) == limit:
                        return
                start = entry_end
            self._pos = end
            self._block_head()
            if self._keys is not None or self.key is None:
                return  # stopped inside the block, or the run is done
            if bound is not None and self.key >= bound:
                return


def merge_scan(
    cursors: list, limit: int | None, spans: list = ()
) -> tuple[list[tuple[bytes, bytes]], int]:
    """Reconcile scan cursors, newest first, into at most ``limit`` rows,
    and say how many of them came from ``spans``.

    :func:`reconciling_iterator`'s answer — newest version of each key,
    deleted keys elided — computed a round at a time: the cursor with
    the smallest head drains up to the smallest other head, so a source
    is touched only while it holds the next row. ``spans`` are ``(start,
    end, rows)`` in key order (``end`` None: no bound), each ``rows``
    the whole answer inside ``[start, end)``: the merge stops at
    ``start``, takes ``rows`` and moves every cursor to ``end``, so no
    older copy of a key inside, a deleted one included, comes back.
    """
    rows: list[tuple[bytes, bytes]] = []
    cursors = [cursor for cursor in cursors if cursor.key is not None]
    taken = 0

    def step_over(cursor) -> None:
        cursor.step()
        if cursor.key is None:
            cursors.remove(cursor)

    for start, end, held in (*spans, (None, None, ())):  # the last: no span
        while cursors and len(rows) != limit:
            best, bound = pick_head(cursors, step_over, start)
            if best is None:
                break  # every head is at or past the span
            if start is not None and (bound is None or start < bound):
                bound = start
            best.drain(bound, rows, limit)
            if best.key is None:
                cursors.remove(best)
        if len(rows) == limit:
            break
        if limit is not None:
            held = held[: limit - len(rows)]
        rows += held
        taken += len(held)
        if end is None or len(rows) == limit:
            break
        for cursor in list(cursors):
            cursor.seek(end)
            if cursor.key is None:
                cursors.remove(cursor)
    return rows, taken
