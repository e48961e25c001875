"""The scrubber, and the one check of a run file's data blocks.

The read path only *reacts* to checksum failures it happens to hit; the
scrubber walks every live run block by block on the maintenance
thread, so cold data's bit rot is found and quarantined before a query
depends on it. :class:`BlockCheck` is what it runs over each file, and
what :func:`~repro.engine.integrity.verify_files` runs too: every data
block read off disk by :func:`~repro.engine.iterators.read_twice` (a
checksum failure is believed only the second time in a row, the rule a
merge reads its inputs by), keys in strictly ascending order, then the
entry and tombstone counts and the first and last key against the meta
block. ``verify_files`` adds the point-filter probe over the keys the
walk returns.

One scrub *pass* checks every run the version named when the pass
began, one claim-sized chunk at a time, riding the engine's
claim/publish maintenance protocol: a worker claims the scrubber under
the store lock (after flushes and merges), checks up to one chunk of
blocks with the lock released, and publishes the outcome under the lock
again. A claim that starts a run looks its id up in the *current*
version and skips a run a merge has retired since the pass began; the
cursor then holds the :class:`~repro.engine.runs.Run`, so a run retired
mid-walk is finished through the readers it pinned. Each file is walked
through :meth:`~repro.engine.sstable.SSTableReader.reopened`: its
footer, index, filter and meta blocks read from disk again and checked,
through the descriptor the store reads it by, and its data blocks read
from disk.

Every byte a scrub reads — each data block, and each file's footer,
index, filter and meta blocks — is debited against the maintenance rate
limiter that paces flushes and merges (and an optional scrub throttle),
so verification competes with, never adds to, the background I/O
budget. The scrubber
never changes the store; the store turns a finding into a quarantine
under its own lock, if the run is still live.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import CorruptionError
from ..obs import events as obs_events
from .iterators import read_twice
from .runs import Run
from .sstable import SSTableReader


class BlockCheck:
    """One resumable walk of a run file's data blocks, checked against
    its meta block; a finding raises :class:`CorruptionError` naming
    the file. ``run_id`` names the run in the error a failed re-read
    raises (0: files no run names yet)."""

    def __init__(self, reader: SSTableReader, run_id: int = 0) -> None:
        self.reader = reader
        self.run_id = run_id
        self.next_block = 0
        self.entries = 0
        self.tombstones = 0
        self._first: bytes | None = None
        self._last: bytes | None = None

    @property
    def done(self) -> bool:
        return self.next_block == self.reader.block_count

    def step(self) -> list[bytes]:
        """Check the next data block; its keys."""
        block = read_twice(
            self.run_id, self.reader.read_data_block, self.next_block
        )
        keys = block.keys
        previous = self._last
        for key in keys:
            if previous is not None and key <= previous:
                raise CorruptionError(
                    f"{self.reader.path}: keys out of order in block "
                    f"{self.next_block}"
                )
            previous = key
        if keys:
            if self._first is None:
                self._first = keys[0]
            self._last = previous
        self.entries += len(keys)
        self.tombstones += len(block.tombstones)
        self.next_block += 1
        return keys

    def finish(self) -> None:
        """The walked blocks against the meta block, once :attr:`done`."""
        reader = self.reader
        for what, meta, found in (
            ("entries", reader.entry_count, self.entries),
            ("tombstones", reader.tombstone_count, self.tombstones),
        ):
            if meta != found:
                raise CorruptionError(
                    f"{reader.path}: meta claims {meta} {what}, "
                    f"data blocks hold {found}"
                )
        if self.entries and (self._first, self._last) != (
            reader.min_key, reader.max_key
        ):
            raise CorruptionError(
                f"{reader.path}: meta key bounds disagree with the first "
                f"and last data keys"
            )


@dataclass
class _Cursor:
    """Scrub progress through one run (touched only by the claimant)."""

    run_id: int
    run: Run
    file: int = 0
    check: BlockCheck | None = None


@dataclass(frozen=True)
class ScrubResult:
    """What one executed chunk observed."""

    run_id: int
    blocks: int = 0
    bytes_verified: int = 0
    done: bool = False  # finished with this run (checked, or bad)
    finding: str | None = None  # persistent corruption, ready to publish


@dataclass
class _PassStats:
    started: float = 0.0
    runs: int = 0
    blocks: int = 0
    bytes_verified: int = 0
    findings: int = 0
    finished: float = 0.0


class Scrubber:
    """Pass/cursor state machine behind the store's scrub task."""

    def __init__(
        self,
        interval: float,
        chunk_bytes: int,
        rate_limiter,
        scrub_limiter,
        obs,
    ) -> None:
        self._interval = interval
        self._chunk_bytes = max(chunk_bytes, 1)
        self._rate = rate_limiter
        self._scrub_rate = scrub_limiter
        self._obs = obs
        self._next_due = obs.clock() + interval
        self._forced = False
        self._in_pass = False
        self._claimed = False
        self._pending: list[int] = []
        self._current: _Cursor | None = None
        self._pass = _PassStats()
        self._last_pass: _PassStats | None = None
        self.passes_completed = 0
        self.runs_verified = 0
        self.blocks_verified = 0
        self.bytes_verified = 0
        self.findings = 0
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

    def claim(self, version) -> _Cursor | None:
        """Claim the next chunk of scrub work off the store's current
        :class:`~repro.engine.version.Version`; None when idle or taken.

        A pass's work list is the ids of the runs ``version`` can read
        when it begins, so a pass has a definite extent while merges
        churn the run set; a run is started only if the current version
        still names it.
        """
        if self._claimed:
            return None
        now = self._obs.clock()
        if not self._in_pass:
            if not self._due(now):
                return None
            self._forced = False
            self._in_pass = True
            self._pending = sorted(
                run_id
                for run_id, element in version.plan
                if isinstance(element, Run)
            )
            self._pass = _PassStats(started=now)
        runs = dict(version.plan)
        while self._current is None:
            if not self._pending:
                self._finish_pass(now)
                return None
            run_id = self._pending.pop(0)
            if isinstance(runs.get(run_id), Run):
                self._current = _Cursor(run_id, runs[run_id])
        self._claimed = True
        return self._current

    def publish(self, result: ScrubResult) -> None:
        """Fold one executed chunk back into the cursor (under the lock)."""
        self._claimed = False
        self._pass.blocks += result.blocks
        self._pass.bytes_verified += result.bytes_verified
        self.blocks_verified += result.blocks
        self.bytes_verified += result.bytes_verified
        if result.blocks:
            self._m_blocks.inc(result.blocks)
            self._m_bytes.inc(result.bytes_verified)
        if result.done:
            self._current = None
            self._pass.runs += 1
            self.runs_verified += 1
            if result.finding is not None:
                self._pass.findings += 1
                self.findings += 1
                self._m_findings.inc()

    def fail(self) -> None:
        """A chunk's executor raised unexpectedly: skip this run."""
        self._claimed = False
        self._current = None

    def _finish_pass(self, now: float) -> None:
        self._in_pass = False
        self._pass.finished = now
        self._last_pass = self._pass
        self.passes_completed += 1
        if self._interval > 0:
            self._next_due = now + self._interval
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

    def _debit(self, nbytes: int) -> None:
        self._rate.acquire(nbytes)
        self._scrub_rate.acquire(nbytes)

    def execute(self, cursor: _Cursor) -> ScrubResult:
        """Check up to one chunk of the claimed run's blocks. Every byte
        read is debited against the shared maintenance budget (and the
        scrub throttle, if set) before it is read: each data block, and
        the footer, index, filter and meta blocks that follow the data
        in a file, which :meth:`SSTableReader.reopened` reads again."""
        files = cursor.run.files
        blocks = consumed = 0
        try:
            while cursor.file < len(files):
                check = cursor.check
                if check is None:
                    reader = files[cursor.file]
                    self._debit(reader.file_bytes - reader.data_bytes)
                    check = cursor.check = BlockCheck(
                        reader.reopened(), cursor.run_id
                    )
                if check.done:
                    check.finish()
                    cursor.file += 1
                    cursor.check = None
                    continue
                if consumed >= self._chunk_bytes:
                    return ScrubResult(cursor.run_id, blocks, consumed)
                _offset, length = check.reader.block_span(check.next_block)
                self._debit(length)
                check.step()
                blocks += 1
                consumed += length
        except CorruptionError as error:
            return ScrubResult(
                cursor.run_id, blocks, consumed, done=True, finding=str(error)
            )
        return ScrubResult(cursor.run_id, blocks, consumed, done=True)

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
