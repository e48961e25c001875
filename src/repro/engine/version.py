"""What a read sees: one immutable :class:`Version` of the store.

A version names the active memtable, the sealed memtables awaiting
flush and the live runs in probe order, with what the write gate and
the scheduler derive from the run set beside them; a scrub pass takes
its work list from the probe order.
:func:`build_version` builds one eagerly, and
``CompactionManager._install`` assigns it under the store lock at every
rotation, flush or merge publish, repair, quarantine and reset; nothing
changes a version afterwards.

A read pins the current version with one attribute read and answers
from it without the store lock. The sealed memtables and the runs
cannot change under it, and a run a merge retires stays readable while
a pinned version names it: its reader's descriptor closes only when the
last reference goes (:class:`~repro.engine.sstable.SSTableReader`).
Only the active memtable still takes writes. A get looks the key up in
its dict, one atomic step; a scan plans under the lock — the cached
spans it crosses and the active memtable's rows, copied in one hold
(:meth:`Version.plan_scan`) — and merges the rest off it. The read path
— probe, scan, retry — is here; what the store adds is the lock and
the row or span a read leaves behind
(:meth:`~repro.engine.LSMStore.get`, :meth:`~repro.engine.LSMStore.scan`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable, NamedTuple

from ..core.components import Component, TreeSnapshot
from ..errors import CorruptionError
from .iterators import (
    EntryCursor,
    ReaderCorruption,
    RunCursor,
    merge_scan,
    reconciling_iterator,
)
from .memtable import MemTable
from .options import TOMBSTONE
from .quarantine import QuarantineEntry, QuarantineSet
from .runs import Run


class ScanPlan(NamedTuple):
    """What a scan copies under the store lock, as one snapshot: every
    committed write has reached both the spans and the active memtable,
    and no write can come between the two copies."""

    #: ``(start, end, rows)`` of the cached spans the scan crosses
    #: (:meth:`BlockCache.span_rows`), each the whole answer inside.
    spans: list
    #: Where the first key no span holds may lie: the cursors start
    #: there. None: the first span is the whole answer.
    gap: bytes | None
    #: The active memtable's entries from ``gap`` on, at most ``limit``
    #: plus its tombstones (all if unbounded): the answer ends by then.
    active: list


@dataclass(frozen=True, slots=True, eq=False)
class Version:
    """The store at one instant, as every read and decision sees it."""

    active: MemTable
    #: Awaiting flush, oldest first.
    sealed: tuple[MemTable, ...]
    #: ``active`` then ``sealed``, newest first: the probe order.
    memtables: tuple[MemTable, ...]
    #: ``(run_id, element)``, newest data first: a live :class:`Run`, or
    #: the :class:`QuarantineEntry` fencing it off *in probe position*,
    #: so a lookup knows exactly when its answer would depend on the
    #: corrupt run (newer sources can still answer soundly).
    plan: tuple[tuple[int, Run | QuarantineEntry], ...]
    #: Core-typed live runs, oldest first per level.
    snapshot: TreeSnapshot
    levels: dict[int, int]
    #: The component constraint's gate, and its remaining budget as a
    #: fraction (0 = stalled), which admission reads.
    write_stalled: bool
    write_headroom: float

    def get(self, key: bytes, cache) -> tuple[bytes | None, bool]:
        """``(value, from_run)``; value None when absent or deleted.

        Newest first: memtables, the key's cached row or span, runs.
        ``from_run`` says a run answered, so the answer may become the
        key's row. A quarantined run whose bounds cover the key fails the
        lookup with :class:`~repro.errors.DataCorruptError` rather than be
        skipped, which could resurrect a deleted key or serve a stale
        value; a checksum failure raises :class:`ReaderCorruption` naming
        the run.
        """
        for memtable in self.memtables:
            found, value = memtable.get(key)
            if found:
                return value, False
        found, value = cache.get(key)
        if found:
            return value, False
        for run_id, element in self.plan:
            if isinstance(element, QuarantineEntry):
                if element.covers(key):
                    raise element.fence(
                        f"run {run_id} is quarantined and its "
                        f"bounds cover the requested key"
                    )
            elif element.might_contain(key):
                try:
                    found, value = element.get(key)
                except CorruptionError as error:
                    raise ReaderCorruption(run_id, error) from error
                if found:
                    return value, True
        return None, False

    def fence(self, lo: bytes | None, hi: bytes | None) -> None:
        """Raise the :class:`~repro.errors.DataCorruptError` of the first
        quarantined run whose bounds meet ``[lo, hi)``: a scan of that
        range fails fast. Every key in a scan result is a claim that no
        deleted key reappears and no stale value shadows a newer one,
        and a skipped run voids that claim for the whole overlap; ranges
        provably outside the quarantined bounds keep serving."""
        for run_id, element in self.plan:
            if isinstance(element, QuarantineEntry) and element.overlaps(lo, hi):
                raise element.fence(
                    f"scan range intersects quarantined run {run_id}"
                )

    def plan_scan(
        self, cache, lo: bytes, hi: bytes | None, limit: int | None
    ) -> ScanPlan:
        """The :class:`ScanPlan` of a scan over ``[lo, hi)`` (store lock
        held): the spans first, then the active rows from the first gap.
        A span covering ``lo`` whose rows reach ``limit`` or whose end
        reaches ``hi`` leaves no gap, and nothing else is copied."""
        spans = cache.span_rows(lo, hi, limit)
        gap = lo
        if spans and spans[0][0] == lo:
            _start, gap, held = spans[0]
            if gap is None or gap == hi or len(held) == limit:
                return ScanPlan(spans, None, [])
        cap = None if limit is None else limit + self.active.tombstone_count
        return ScanPlan(spans, gap, list(islice(self.active.items(gap, hi), cap)))

    def scan(
        self, plan: ScanPlan, hi: bytes | None, limit: int | None
    ) -> tuple[list[tuple[bytes, bytes]], int, int]:
        """``(rows, block lookups, rows from spans)`` of a scan over
        ``[lo, hi)`` planned by :meth:`plan_scan`: the spans' rows, and
        between them the active memtable's copied rows, the sealed
        memtables and the runs from ``plan.gap``, merged by
        :func:`~repro.engine.iterators.merge_scan`, which looks up a
        block only when a row of the result, or a stale copy of one,
        lies in it and no span holds it. A run whose bounds miss the
        range gets no cursor, and with no gap nothing does. A checksum
        failure in a block the scan reads raises
        :class:`ReaderCorruption`; one in a block it never needs is the
        scrubber's to find."""
        lo, cursors = plan.gap, []
        if lo is not None:
            cursors = [EntryCursor(iter(plan.active))] + [
                EntryCursor(memtable.items(lo, hi))
                for memtable in self.memtables[1:]
            ]
            cursors += [
                RunCursor(run_id, element, lo, hi)
                for run_id, element in self.plan
                if not isinstance(element, QuarantineEntry)
                and (hi is None or element.min_key < hi)
                and element.max_key >= lo
            ]
        rows, taken = merge_scan(cursors, limit, plan.spans)
        return rows, sum(cursor.blocks for cursor in cursors), taken

    def repair_entries(
        self, entry: QuarantineEntry, items: list[tuple[bytes, bytes]]
    ) -> list[tuple[bytes, bytes | None]]:
        """What rebuilds quarantined run ``entry`` from a replica's
        ``items``: the fetched rows in its bounds, plus a tombstone for
        every key in them that another memtable or readable run still
        holds but the replica does not — the corrupt run may have been
        the only thing shadowing an older value, which the swap would
        otherwise resurrect (store lock held: the active memtable is
        iterated)."""
        lo, hi = entry.min_key, entry.max_key + b"\x00"  # covers [min, max]
        fetched = {key: value for key, value in items if entry.covers(key)}
        sources = [memtable.items(lo, hi) for memtable in self.memtables] + [
            element.items(lo, hi)
            for run_id, element in self.plan
            if run_id != entry.run_id
            and not isinstance(element, QuarantineEntry)
        ]
        local = {
            key
            for key, _value in reconciling_iterator(sources, keep_tombstones=True)
        }
        return [
            (key, fetched.get(key, TOMBSTONE))
            for key in sorted(set(fetched) | local)
        ]


def newest_first(components: Iterable[Component]) -> list[Component]:
    """``components`` newest first by sequence stamp: the order reads
    probe runs in, and merges reconcile their inputs in."""
    return sorted(components, key=lambda c: c.handle.sequence, reverse=True)


def build_version(
    active: MemTable,
    sealed: tuple[MemTable, ...],
    components: dict[int, Component],
    runs: dict[int, Run],
    quarantine: QuarantineSet,
    constraint,
) -> Version:
    """A version of these memtables over this run set: ``components``
    by run id (each with its manifest record as ``handle``), the
    readable ``runs`` by run id, and the quarantine that fences some of
    them; ``constraint`` sets the write gate."""
    snapshot = TreeSnapshot(
        sorted(
            components.values(), key=lambda c: (c.level, c.handle.sequence)
        )
    )
    return Version(
        active=active,
        sealed=sealed,
        memtables=(active, *reversed(sealed)),
        plan=tuple(  # a closed store's names none: it let go of its runs
            (c.uid, element)
            for c in newest_first(components.values())
            if (element := quarantine.get(c.uid) or runs.get(c.uid))
        ),
        snapshot=snapshot,
        levels={level: snapshot.count_at(level) for level in snapshot.levels()},
        write_stalled=constraint.is_violated(snapshot),
        write_headroom=constraint.headroom(snapshot),
    )


def read_retrying(attempt: Callable, quarantine: Callable[[int, str], object], *args):
    """``attempt(*args)``, read again after a checksum failure.

    A first failure is only re-read: a transient error passes the second
    time. A second in a row quarantines the run (``quarantine(run_id,
    reason)``) and reads once more, at the version that fences it: the
    read fails fast if it still depends on the run, and answers from the
    healthy remainder if the damage lay elsewhere or a concurrent merge
    retired the run.
    """
    failure = None
    while True:
        try:
            return attempt(*args)
        except ReaderCorruption as error:
            if failure is not None:
                quarantine(error.run_id, str(error))
                error = None
            failure = error
