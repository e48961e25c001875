"""Follower-side apply: replay shipped WAL frames into a local store.

The applier is the correctness core of log shipping. The shipper may
re-send frames after a reconnect, restart from an arbitrary cursor, or
fall back to a full snapshot; the applier's contract is that whatever
arrives, the follower's ``scan()`` output stays a prefix-consistent copy
of the leader's:

* **duplicates** (frame ends at or before the applied cursor) are
  acknowledged without re-applying — last-writer-wins makes replay
  idempotent only if ordering is preserved, so skipping is mandatory,
  not an optimisation;
* **gaps** (frame starts past the applied cursor) are rejected with
  :class:`~repro.errors.ReplicaGapError` carrying the expected cursor,
  never papered over;
* **stale epochs** are rejected with
  :class:`~repro.errors.StaleEpochError` — the fencing that stops a
  deposed leader from diverging a follower after a promotion;
* **reset frames** replace the entire local state with a leader
  snapshot and re-base the cursor, the recovery path for generation
  mismatches (the leader truncated its WAL past the follower's cursor).

All methods are thread-safe and blocking (they call into the LSM
store); the serving layer runs :meth:`ReplicaApplier.apply_frame` on
its worker pool, since a shipped write can park like any other.
"""

from __future__ import annotations

import threading

from ..errors import ReplicaGapError, StaleEpochError


class ReplicaApplier:
    """Applies shipped frames to a follower's :class:`LSMStore`."""

    def __init__(self, store) -> None:
        self._store = store
        self._lock = threading.Lock()
        self._epoch = 0
        self._generation = 0
        self._applied = 0
        #: Highest leader-WAL end offset this follower has *seen* (frame
        #: metadata, even if the frame was a duplicate). ``ship_tail -
        #: applied`` is the follower's own lower bound on its staleness.
        self._ship_tail = 0
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
                "generation": self._generation,
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

    def prime(self, epoch: int, generation: int, applied: int) -> None:
        """Set the cursor directly (bootstrap from an out-of-band copy)."""
        with self._lock:
            self._epoch = epoch
            self._generation = generation
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
                self._epoch = epoch
                self._apply_locked(frame)
        return self.status()

    def _apply_locked(self, frame: dict) -> None:
        generation = frame["generation"]
        start, end = frame["start"], frame["end"]
        if frame["reset"]:
            self._reset_locked(frame["ops"], generation, end)
            return
        if generation != self._generation:
            # Offsets from another generation are incomparable; only a
            # fresh generation starting at byte 0 (the leader truncated
            # after this follower acked everything) lines up.
            if generation > self._generation and start == 0:
                self._generation = generation
                self._applied = 0
                self._ship_tail = 0
            elif generation < self._generation:
                self._frames_skipped += 1  # stale duplicate, pre-rebase
                return
            else:
                raise ReplicaGapError(
                    f"frame generation {generation} does not continue "
                    f"cursor ({self._generation}, {self._applied})",
                    expected=(self._generation, self._applied),
                )
        self._ship_tail = max(self._ship_tail, end)
        if end <= self._applied:
            self._frames_skipped += 1  # duplicate after a reconnect
            return
        if start != self._applied:
            raise ReplicaGapError(
                f"frame starts at {start}, expected {self._applied}",
                expected=(self._generation, self._applied),
            )
        if frame["ops"]:
            self._store.write_batch(frame["ops"])
        self._applied = end
        self._frames_applied += 1

    def _reset_locked(self, ops, generation: int, end: int) -> None:
        """Replace the local state with a leader snapshot atomically.

        Delegated to :meth:`LSMStore.apply_reset` rather than a local
        scan-and-diff: the store computes the deletions from its
        *readable* state (a plain ``scan`` would fail fast on a
        quarantined run) and drops every quarantined run afterwards —
        sound because the snapshot supersedes the whole store, so a
        reset is also the follower's corruption-repair path.
        """
        self._store.apply_reset(list(ops))
        self._generation = generation
        self._applied = end
        self._ship_tail = end
        self._resets += 1
