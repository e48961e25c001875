"""Follower-side apply: replay shipped WAL spans into a local store.

The applier is the correctness core of log shipping. The shipper may
re-send spans after a reconnect, restart from an arbitrary cursor, or
fall back to a reset; the applier's contract is that whatever
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
* **reset chunks** carry the leader's run files, byte for byte; they
  are written into run files of this store's own until the final one
  arrives, which installs them as the entire local state and re-bases
  the cursor — the recovery path whenever the leader cannot prove its
  log continues this follower's cursor.

The cursor is mirrored into the store (``LSMStore.set_upstream``) after
every acknowledged advance, which is what lets a clean close persist it
and a restarted follower resume instead of resetting.

All methods are thread-safe and blocking (they call into the LSM
store); the serving layer runs :meth:`ReplicaApplier.apply_frame` on
its worker pool, since a shipped write can park like any other.
"""

from __future__ import annotations

import os
import threading
from itertools import accumulate

from ..engine.wal import WriteAheadLog
from ..errors import ReplicaGapError, StaleEpochError


class _Stage:
    """A reset image arriving: its files, written in order under fresh
    run names into the store's directory. ``starts`` is where each file
    begins in the image's bytes end to end; ``written``, how many of
    those bytes are on disk."""

    def __init__(self, identity: tuple, store) -> None:
        self.identity = identity
        sizes = [size for _level, files in identity[-1] for size in files]
        names = iter(store.new_run_names(len(sizes)))
        self.runs = [
            (level, tuple(next(names) for _ in files))
            for level, files in identity[-1]
        ]
        self.paths = [
            os.path.join(store.directory, name)
            for _level, files in self.runs
            for name in files
        ]
        self.starts = list(accumulate(sizes, initial=0))
        self.written = 0

    def write(self, file: int, offset: int, data: bytes) -> bool:
        """Append what the image holds at ``offset`` of ``file``, unless
        it is written already; False if it starts past the next byte."""
        start = self.starts[file] + offset
        if start + len(data) <= self.written:
            return True  # a retried chunk, or an empty one
        if start != self.written:
            return False
        with open(self.paths[file], "ab") as staged:
            staged.write(data)
        self.written += len(data)
        return True

    def drop(self) -> None:
        for path in filter(os.path.exists, self.paths):
            os.remove(path)


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
        #: The reset whose chunks are arriving, if any.
        self._stage: _Stage | None = None
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
                # by shipping a reset, which heals it.
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
            elif frame["reset"]:
                self._epoch = epoch
                self._apply_chunk_locked(frame)
            else:
                # Before the epoch is adopted or a stage dropped: a
                # damaged message changes nothing.
                batches = WriteAheadLog.decode_span(frame["span"])
                self._epoch = epoch
                self._apply_span_locked(frame, batches)
        return self.status()

    def _drop_stage_locked(self) -> None:
        if self._stage is not None:
            self._stage.drop()
            self._stage = None

    def _apply_span_locked(self, frame: dict, batches: list) -> None:
        # Log frames between a reset's chunks mean its sender gave up.
        self._drop_stage_locked()
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

    def _apply_chunk_locked(self, frame: dict) -> None:
        """Stage one chunk of a reset image; install it at the final one.

        A ``first`` chunk starts a stage. A chunk already written is
        acked without a write (a client retries what timed out); one of
        another image, past the next byte, or a final one that leaves
        the image short drops the stage — deleting its files — and is a
        gap. Nothing is visible until :meth:`LSMStore.install_image`,
        which drops quarantined runs too: a reset also repairs.
        """
        identity = (
            frame["epoch"], frame["lineage"], frame["start"], frame["layout"]
        )
        if frame["first"]:
            self._drop_stage_locked()
            self._stage = _Stage(identity, self._store)
        stage = self._stage
        try:
            if (
                stage is None
                or stage.identity != identity
                or not stage.write(
                    frame["file"], frame["offset"], frame["span"]
                )
                or (frame["final"] and stage.written != stage.starts[-1])
            ):
                raise ReplicaGapError(
                    f"reset chunk at offset {frame['offset']} of file "
                    f"{frame['file']} does not continue a staged reset",
                    expected=(self._lineage, self._applied),
                )
            if not frame["final"]:
                return
            self._store.install_image(stage.runs)
        except BaseException:
            self._drop_stage_locked()
            raise
        self._stage = None
        self._ship_tail = frame["start"]
        self._resets += 1
        self._advance_locked(frame["lineage"], frame["start"])

    def _advance_locked(self, lineage: int, applied: int) -> None:
        self._lineage = lineage
        self._applied = applied
        self._store.set_upstream((lineage, applied, self._epoch))
