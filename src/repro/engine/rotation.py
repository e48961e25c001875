"""The rotation rule: when the active memtable is sealed, and what a
write that fills it meets.

:class:`Rotation` holds the live memtable target (the options seed it,
``LSMStore.set_memory_budget`` moves it) and the bytes sealed so far. It
inserts every committed batch into the active memtable, refreshing the
block cache's rows and spans of its keys; it says when the active
memtable is full and seals it, counted and traced. At most
:func:`sealed_slots` sealed memtables await their flush: a rotation that
finds the queue full is a flush stall (Section 5.1.2), which
:meth:`~repro.engine.maintenance.MaintenanceExecutor.rotate_if_full`
waits out. :meth:`Rotation.would_wait` answers a ``wait=False`` writer
before anything is logged.

Store lock held throughout, or the store not yet shared (replay at
open). The compaction manager, whose current version names the
memtables, is the one part this one reads.
"""

from __future__ import annotations

from ..obs import events as obs_events
from .options import TOMBSTONE


def sealed_slots(num_memtables: int) -> int:
    """How many sealed memtables may await their flush at once: every
    memory component but the active one, and at least one."""
    return max(1, num_memtables - 1)


class Rotation:
    """One store's memtable target and the rule that reads it."""

    def __init__(self, options, obs, compaction) -> None:
        self._compaction = compaction
        #: The live memtable threshold.
        self.target = options.memtable_bytes
        #: Bytes of every memtable sealed over the store's lifetime.
        self.sealed_bytes = 0
        self.slots = sealed_slots(options.num_memtables)
        # Workers flush what a rotation seals; without them the writer
        # that rotates flushes it itself.
        self._background = options.background_maintenance
        self._tracer = obs.tracer
        self._m_rotations = obs.registry.counter(
            "engine_memtable_rotations_total",
            help="Active-memtable seals (rotations).",
        )

    def insert(self, batch: list[tuple[bytes, bytes | None]]) -> None:
        """Apply a logged batch to the active memtable and refresh the
        cached rows and spans of its keys (:meth:`BlockCache.refresh_rows`,
        which bumps the cache's epoch): every committed write passes
        here."""
        active = self._compaction.version.active
        for key, value in batch:
            if value is TOMBSTONE:
                active.delete(key)
            else:
                active.put(key, value)
        self._compaction.block_cache.refresh_rows(batch)

    def full(self) -> bool:
        """Has the active memtable reached the target?"""
        return self._compaction.version.active.approximate_bytes >= self.target

    def slot_free(self) -> bool:
        """Is there room in the sealed queue for one more memtable?"""
        return len(self._compaction.version.sealed) < self.slots

    def seal(self) -> None:
        """Rotate: because the memtable filled, or a flush or close
        asked."""
        sealed = self._compaction.rotate().approximate_bytes
        self.sealed_bytes += sealed
        self._m_rotations.inc()
        self._tracer.emit(
            obs_events.MEMTABLE_ROTATE,
            bytes=sealed,
            sealed_queue=len(self._compaction.version.sealed),
        )

    @property
    def ingested_bytes(self) -> int:
        """Bytes written into memtables over the store's lifetime."""
        return self.sealed_bytes + self._compaction.version.active.approximate_bytes

    def would_wait(self, batch: list[tuple[bytes, bytes | None]]) -> bool:
        """Would committing ``batch`` now do more than log and insert?

        True when the stall gate is closed, or when the batch could fill
        the active memtable while its rotation could not get by with a
        bare seal: the sealed queue is full (a flush stall), or there
        is no worker and the writer would flush.
        """
        version = self._compaction.version
        if version.write_stalled:
            return True
        if self._background and len(version.sealed) < self.slots:
            return False
        return version.active.bytes_at_most_after(batch) >= self.target
