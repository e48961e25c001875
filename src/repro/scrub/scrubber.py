"""The incremental scrubber: cursor-based verification of live runs.

One scrub *pass* verifies every data block of every readable run that
was live when the pass started. The pass is chopped into claim-sized
chunks so it rides the engine's claim/publish maintenance protocol: a
worker claims the scrubber under the store lock (at lower priority than
flushes and merges), verifies up to one chunk's worth of blocks with the
lock released, and publishes the outcome back under the lock. Between
chunks the cursor — current run, next block, running key-order state —
persists here.

Detection discipline: a block that fails its checksum is re-read once
before it becomes a finding (:func:`~repro.engine.iterators.read_twice`,
the rule a merge reads its inputs by too). Structural problems (keys out of order,
entry counts or key bounds disagreeing with the meta block) are findings
immediately — they are properties of the decoded bytes, not the read.

The scrubber never mutates the store; it only *reports*. The store turns
a finding into a quarantine under its own lock, after checking the run
is still live (a merge may have retired it mid-scrub — the dedicated
reader's POSIX file handle keeps working on the deleted file, and the
stale finding is simply dropped).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

from ..errors import CorruptionError
from ..obs import events as obs_events
from ..engine.iterators import read_twice
from ..engine.sstable import SSTableReader


@dataclass
class _RunCursor:
    """Scrub progress through one run (touched only by the claimant)."""

    run_id: int
    path: str
    reader: SSTableReader | None = None
    next_block: int = 0
    prev_key: bytes | None = None
    first_key: bytes | None = None
    last_key: bytes | None = None
    entries: int = 0


@dataclass(frozen=True)
class ScrubTask:
    """One claimed chunk of scrub work."""

    cursor: _RunCursor


@dataclass(frozen=True)
class ScrubResult:
    """What one executed chunk observed."""

    run_id: int
    blocks: int = 0
    bytes_verified: int = 0
    done: bool = False  # finished with this run (verified, gone, or bad)
    gone: bool = False  # the run file vanished (retired by a merge)
    finding: str | None = None  # persistent corruption, ready to publish


@dataclass
class _PassStats:
    started: float = 0.0
    runs: int = 0
    blocks: int = 0
    bytes_verified: int = 0
    findings: int = 0
    finished: float = field(default=0.0)


class Scrubber:
    """Pass/cursor state machine behind the store's scrub task."""

    def __init__(
        self,
        interval: float,
        chunk_bytes: int,
        rate_limiter,
        scrub_limiter=None,
        obs=None,
    ) -> None:
        self._interval = interval
        self._chunk_bytes = max(chunk_bytes, 1)
        self._rate = rate_limiter
        self._scrub_rate = scrub_limiter
        self._obs = obs
        self._clock = obs.clock if obs is not None else time.monotonic
        self._next_due = self._clock() + interval
        self._forced = False
        self._in_pass = False
        self._claimed = False
        self._pending: list[tuple[int, str]] = []
        self._current: _RunCursor | None = None
        self._pass = _PassStats()
        self._last_pass: _PassStats | None = None
        self.passes_completed = 0
        self.runs_verified = 0
        self.blocks_verified = 0
        self.bytes_verified = 0
        self.findings = 0
        if obs is not None:
            registry = obs.registry
            self._m_blocks = registry.counter(
                "engine_scrub_blocks_verified_total",
                help="Data blocks checksum-verified by the scrubber.",
            )
            self._m_bytes = registry.counter(
                "engine_scrub_bytes_verified_total",
                help="Data-block bytes read and verified by the scrubber.",
            )
            self._m_passes = registry.counter(
                "engine_scrub_passes_total",
                help="Completed full scrub passes over the live runs.",
            )
            self._m_findings = registry.counter(
                "engine_scrub_findings_total",
                help="Persistent corruption findings raised by the scrubber.",
            )

    # -- claim / publish (call under the store lock) -------------------

    def _due(self, now: float) -> bool:
        if self._forced:
            return True
        if self._interval <= 0:
            return False
        return now >= self._next_due

    def force_due(self) -> None:
        """Make the next claim start a pass immediately (CLI/tests)."""
        self._forced = True

    def claim(self, targets: list[tuple[int, str]]) -> ScrubTask | None:
        """Claim the next chunk of scrub work; None when idle or taken.

        ``targets`` is the store's current readable-run work list — it
        is captured once per pass, at pass start, so a pass has a
        definite extent even while merges churn the run set underneath.
        """
        if self._claimed:
            return None
        now = self._clock()
        if not self._in_pass:
            if not self._due(now):
                return None
            self._forced = False
            self._in_pass = True
            self._pending = list(targets)
            self._pass = _PassStats(started=now)
        if self._current is None:
            if not self._pending:
                self._finish_pass(now)
                return None
            run_id, path = self._pending.pop(0)
            self._current = _RunCursor(run_id=run_id, path=path)
        self._claimed = True
        return ScrubTask(cursor=self._current)

    def publish(self, result: ScrubResult) -> None:
        """Fold one executed chunk back into the cursor (under the lock)."""
        self._claimed = False
        self._pass.blocks += result.blocks
        self._pass.bytes_verified += result.bytes_verified
        self.blocks_verified += result.blocks
        self.bytes_verified += result.bytes_verified
        if self._obs is not None and result.blocks:
            self._m_blocks.inc(result.blocks)
            self._m_bytes.inc(result.bytes_verified)
        if result.done:
            self._close_current()
            if not result.gone:
                self._pass.runs += 1
                self.runs_verified += 1
            if result.finding is not None:
                self._pass.findings += 1
                self.findings += 1
                if self._obs is not None:
                    self._m_findings.inc()

    def fail(self, task: ScrubTask) -> None:
        """A chunk's executor raised unexpectedly: skip this run."""
        del task
        self._claimed = False
        self._close_current()

    def _close_current(self) -> None:
        if self._current is not None and self._current.reader is not None:
            try:
                self._current.reader.close()
            except Exception:  # noqa: BLE001 — best-effort cleanup
                pass
        self._current = None

    def _finish_pass(self, now: float) -> None:
        self._in_pass = False
        self._pass.finished = now
        self._last_pass = self._pass
        self.passes_completed += 1
        if self._interval > 0:
            self._next_due = now + self._interval
        if self._obs is not None:
            self._m_passes.inc()
            self._obs.tracer.emit(
                obs_events.SCRUB_PASS,
                runs=self._pass.runs,
                blocks=self._pass.blocks,
                bytes=self._pass.bytes_verified,
                findings=self._pass.findings,
                seconds=now - self._pass.started,
            )

    # -- execution (no store lock held) --------------------------------

    def execute(self, task: ScrubTask) -> ScrubResult:
        """Verify up to one chunk of the claimed run's blocks.

        Opens a dedicated, *uncached* reader on first touch — the block
        cache only ever holds verified payloads, so scrubbing through it
        would re-verify memory instead of observing the disk.
        """
        cursor = task.cursor
        if cursor.reader is None:
            try:
                cursor.reader = SSTableReader(cursor.path)
            except (CorruptionError, OSError) as error:
                if not os.path.exists(cursor.path):
                    return ScrubResult(run_id=cursor.run_id, done=True, gone=True)
                return ScrubResult(
                    run_id=cursor.run_id, done=True, finding=str(error)
                )
        reader = cursor.reader
        blocks = 0
        consumed = 0
        while cursor.next_block < reader.block_count:
            if consumed >= self._chunk_bytes:
                return ScrubResult(
                    run_id=cursor.run_id,
                    blocks=blocks,
                    bytes_verified=consumed,
                )
            _offset, length = reader.block_span(cursor.next_block)
            # Debit the shared maintenance budget *before* the read (the
            # pacing contract), plus the dedicated scrub throttle if set.
            self._rate.acquire(length)
            if self._scrub_rate is not None:
                self._scrub_rate.acquire(length)
            try:
                keys = read_twice(
                    cursor.run_id, reader.read_data_block, cursor.next_block
                ).keys
            except CorruptionError as error:
                return ScrubResult(
                    run_id=cursor.run_id,
                    blocks=blocks,
                    bytes_verified=consumed,
                    done=True,
                    finding=str(error),
                )
            for key in keys:
                if cursor.prev_key is not None and key <= cursor.prev_key:
                    return ScrubResult(
                        run_id=cursor.run_id,
                        blocks=blocks,
                        bytes_verified=consumed,
                        done=True,
                        finding=(
                            f"{cursor.path}: keys out of order in block "
                            f"{cursor.next_block}"
                        ),
                    )
                cursor.prev_key = key
            if keys:
                if cursor.first_key is None:
                    cursor.first_key = keys[0]
                cursor.last_key = keys[-1]
            cursor.entries += len(keys)
            cursor.next_block += 1
            blocks += 1
            consumed += length
        finding = self._structural_finding(cursor, reader)
        return ScrubResult(
            run_id=cursor.run_id,
            blocks=blocks,
            bytes_verified=consumed,
            done=True,
            finding=finding,
        )

    @staticmethod
    def _structural_finding(
        cursor: _RunCursor, reader: SSTableReader
    ) -> str | None:
        """End-of-run checks of the walked data against the meta block."""
        if cursor.entries != reader.entry_count:
            return (
                f"{cursor.path}: meta claims {reader.entry_count} entries, "
                f"data blocks hold {cursor.entries}"
            )
        if cursor.entries:
            if cursor.first_key != reader.min_key:
                return (
                    f"{cursor.path}: meta min_key disagrees with the "
                    f"first data key"
                )
            if cursor.last_key != reader.max_key:
                return (
                    f"{cursor.path}: meta max_key disagrees with the "
                    f"last data key"
                )
        return None

    # -- reporting -----------------------------------------------------

    def summary(self) -> dict:
        """JSON-safe progress snapshot (STATS verb, CLI, tests)."""
        last = self._last_pass
        return {
            "passes_completed": self.passes_completed,
            "runs_verified": self.runs_verified,
            "blocks_verified": self.blocks_verified,
            "bytes_verified": self.bytes_verified,
            "findings": self.findings,
            "in_pass": self._in_pass,
            "last_pass": None
            if last is None
            else {
                "runs": last.runs,
                "blocks": last.blocks,
                "bytes": last.bytes_verified,
                "findings": last.findings,
                "seconds": last.finished - last.started,
            },
        }
