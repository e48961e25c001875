"""Follower-side apply: replay shipped WAL spans into a local store.

The applier is the correctness core of log shipping. The shipper may
re-send spans after a reconnect, restart from an arbitrary cursor, or
fall back to a full snapshot; the applier's contract is that whatever
arrives, the follower's ``scan()`` output stays a prefix-consistent copy
of the leader's. Its cursor is ``(lineage, applied)``: how many bytes of
which leader log it has applied (``repro.engine.datastore.WalPosition``).

* a span is walked by the log's own frame walker *before* anything is
  applied — CRC first, then decode — and one bad frame rejects the whole
  message with :class:`~repro.errors.CorruptionError`;
* **duplicates** (span ends at or before the applied cursor) are
  acknowledged without re-applying — last-writer-wins makes replay
  idempotent only if ordering is preserved, so skipping is mandatory,
  not an optimisation;
* **gaps** (span of another lineage, or not starting at the applied
  cursor) are rejected with :class:`~repro.errors.ReplicaGapError`
  carrying the expected cursor, never papered over;
* **stale epochs** are rejected with
  :class:`~repro.errors.StaleEpochError` — the fencing that stops a
  deposed leader from diverging a follower after a promotion;
* **reset chunks** are staged until the final one arrives, then replace
  the entire local state with the leader snapshot they add up to and
  re-base the cursor — the recovery path whenever the leader cannot
  prove its log continues this follower's cursor.

The cursor is mirrored into the store (``LSMStore.set_upstream``) after
every acknowledged advance, which is what lets a clean close persist it
and a restarted follower resume instead of resetting.

All methods are thread-safe and blocking (they call into the LSM
store); the serving layer runs :meth:`ReplicaApplier.apply_frame` on
its worker pool, since a shipped write can park like any other.
"""

from __future__ import annotations

import threading

from ..engine.wal import WriteAheadLog
from ..errors import ReplicaGapError, StaleEpochError


class ReplicaApplier:
    """Applies shipped spans to a follower's :class:`LSMStore`."""

    def __init__(self, store) -> None:
        self._store = store
        self._lock = threading.Lock()
        # Where the store's last applier — before a clean restart, or in
        # a server this one replaces — left off; nothing for a new one.
        self._lineage, self._applied, self._epoch = store.upstream or (
            None, 0, 0
        )
        #: Highest leader-log LSN this follower has *seen* (span
        #: metadata, even if the span was a duplicate). ``ship_tail -
        #: applied`` is the follower's own lower bound on its staleness.
        self._ship_tail = self._applied
        #: Chunks of a reset not yet complete: ``(identity, ops)``.
        self._staged: tuple[tuple[int, int, int], list] | None = None
        self._frames_applied = 0
        self._frames_skipped = 0
        self._resets = 0

    # -- introspection ---------------------------------------------------

    def status(self) -> dict:
        """Cursor and counters, as the REPLICATE ack reports them."""
        quarantined = len(self._store.quarantined_entries())
        with self._lock:
            return {
                "epoch": self._epoch,
                "lineage": self._lineage,
                "applied": self._applied,
                "ship_tail": self._ship_tail,
                "frames_applied": self._frames_applied,
                "frames_skipped": self._frames_skipped,
                "resets": self._resets,
                # A follower advertising quarantined runs is telling the
                # leader its local state is damaged: the shipper answers
                # by sending a full reset snapshot, which heals it.
                "quarantined": quarantined,
            }

    @property
    def store(self):
        """The follower's local store (promotion hands it to a leader)."""
        return self._store

    def prime(self, epoch: int, lineage: int | None, applied: int) -> None:
        """Set the reported cursor directly, without touching the store:
        a leader answers probes with its own log's position."""
        with self._lock:
            self._epoch = epoch
            self._lineage = lineage
            self._applied = applied
            self._ship_tail = max(self._ship_tail, applied)

    # -- the apply path --------------------------------------------------

    def apply_frame(self, frame: dict) -> dict:
        """Apply one decoded REPLICATE payload; returns :meth:`status`.

        ``frame`` is the dict :func:`repro.server.protocol.replicate_payload`
        produces. Probes only read; everything else walks the duplicate/
        gap/epoch/reset decision tree documented in the module docstring.
        """
        with self._lock:
            epoch = frame["epoch"]
            if frame.get("probe"):
                if epoch > self._epoch:
                    self._epoch = epoch
            elif epoch < self._epoch:
                raise StaleEpochError(
                    f"frame epoch {epoch} < replica epoch {self._epoch}"
                )
            else:
                # Before the epoch is adopted or a stage touched: a
                # damaged message changes nothing.
                batches = WriteAheadLog.decode_span(frame["span"])
                self._epoch = epoch
                if frame["reset"]:
                    self._stage_reset_locked(frame, batches)
                else:
                    self._apply_span_locked(frame, batches)
        return self.status()

    def _apply_span_locked(self, frame: dict, batches: list) -> None:
        # Log frames between a reset's chunks mean its sender gave up.
        self._staged = None
        start = frame["start"]
        end = start + len(frame["span"])
        if frame["lineage"] != self._lineage:
            raise ReplicaGapError(
                f"span of lineage {frame['lineage']} does not continue "
                f"cursor ({self._lineage}, {self._applied})",
                expected=(self._lineage, self._applied),
            )
        self._ship_tail = max(self._ship_tail, end)
        if end <= self._applied:
            self._frames_skipped += len(batches)  # duplicate after a reconnect
            return
        if start != self._applied:
            raise ReplicaGapError(
                f"span starts at {start}, expected {self._applied}",
                expected=(self._lineage, self._applied),
            )
        for ops in batches:
            self._store.write_batch(ops)
        self._frames_applied += len(batches)
        self._advance_locked(frame["lineage"], end)

    def _stage_reset_locked(self, frame: dict, batches: list) -> None:
        """Stage one chunk of a snapshot; apply it all at the final one.

        Delegated to :meth:`LSMStore.apply_reset` rather than a local
        scan-and-diff: the store computes the deletions from its
        *readable* state (a plain ``scan`` would fail fast on a
        quarantined run) and drops every quarantined run afterwards —
        sound because the snapshot supersedes the whole store, so a
        reset is also the follower's corruption-repair path. Nothing is
        visible to reads until then: a chunk that does not continue the
        staged reset (no ``first`` chunk seen, another snapshot's
        identity) drops the stage instead of applying part of one.
        """
        identity = (frame["epoch"], frame["lineage"], frame["start"])
        if frame["first"]:
            self._staged = (identity, [])
        elif self._staged is None or self._staged[0] != identity:
            self._staged = None
            raise ReplicaGapError(
                f"reset chunk {identity} does not continue a staged reset",
                expected=(self._lineage, self._applied),
            )
        ops = self._staged[1]
        for batch in batches:
            ops += batch
        if not frame["final"]:
            return
        self._staged = None
        self._store.apply_reset(ops)
        self._ship_tail = frame["start"]
        self._resets += 1
        self._advance_locked(frame["lineage"], frame["start"])

    def _advance_locked(self, lineage: int, applied: int) -> None:
        self._lineage = lineage
        self._applied = applied
        self._store.set_upstream((lineage, applied, self._epoch))
