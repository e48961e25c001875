"""Compaction driver: executes the core policies on real sorted runs.

This module is where the shared abstractions pay off: the *same*
:class:`~repro.core.policies.base.MergePolicy` and
:class:`~repro.core.schedulers.base.MergeScheduler` objects that drive the
simulator decide which runs to merge and which merge makes progress next.

Merges execute in *chunks*: :meth:`CompactionManager.claim_merge` asks
the scheduler for the current bandwidth allocation and hands the merge
with the largest share to the maintenance executor, which advances it
by one chunk of input bytes. A single-threaded scheduler therefore runs
one merge to completion; the fair scheduler round-robins chunks across
merges; the greedy scheduler always advances the merge with the fewest
remaining input bytes — cooperative multitasking that realizes each
paper scheduler's discipline deterministically, with the shared rate
limiter throttling actual file writes underneath.
"""

from __future__ import annotations

import os
import time
from bisect import bisect_left
from typing import NamedTuple

from ..core.components import Component, MergeDescriptor, TreeSnapshot, UidAllocator
from ..errors import ConfigurationError, CorruptionError
from ..obs import events as obs_events
from .blockcache import BlockCache, ghost_bytes_for
from .iterators import pick_head, read_twice
from .manifest import Manifest, RunRecord
from .options import StoreOptions
from .quarantine import QuarantineEntry, QuarantineSet
from .ratelimiter import RateLimiter, SyncPolicy
from .runs import Run
from .sstable import MIN_FILTER_KEYS, DataBlock, SSTableReader, SSTableWriter

#: Upper key bound recorded when a run is quarantined before its meta
#: block could be read — wide enough that any plausible key is covered.
_UNBOUNDED_MAX_KEY = b"\xff" * 256

#: Point-filter sizing for every run the engine writes: 10 bits per key
#: is the paper's testbed setting (Section 3.1), ~1% false positives.
BLOOM_BITS_PER_KEY = 10

#: How much larger than the one filter a k-way merge would build the
#: filters of a linking merge's input files may be, all together: a
#: sequential load of tiny flushes would otherwise keep a filter padded
#: to a writer's least per file, forever.
APPENDED_FILTER_BITS = 2

#: Most files a linked run may name. Every live file holds an open
#: handle (its query reader's), so the cap bounds a store's handles at
#: this many per run; a merge that would name more rewrites its inputs.
MAX_RUN_FILES = 64

#: Flush and merge writers force their file to disk every 16 MB, the
#: paper's second I/O optimization (Section 3.1; RocksDB's
#: ``bytes_per_sync``): it keeps the OS write queue short, so a large
#: merge cannot stall foreground I/O behind one giant final fsync.
BYTES_PER_SYNC = 16 * 2**20

#: How long no merge is started after one failed for a reason other
#: than a checksum — at its start or in a chunk: an idle maintenance
#: worker's poll (``maintenance._POLL_SECONDS``), so a persistent I/O
#: error costs one attempt per poll, not a busy loop, while flushes and
#: merges already started go on being claimed.
RETRY_SECONDS = 0.05


def _open_writer(
    path: str,
    options: StoreOptions,
    rate_limiter: RateLimiter,
    expected_keys: int,
) -> SSTableWriter:
    """The writer of every run the engine produces — flush, merge
    output or repair — configured from the store's options in one
    place."""
    return SSTableWriter(
        path,
        block_bytes=options.block_bytes,
        bloom_bits_per_key=BLOOM_BITS_PER_KEY,
        expected_keys=expected_keys,
        rate_limiter=rate_limiter,
        sync_policy=SyncPolicy(BYTES_PER_SYNC),
        fault_plan=options.fault_plan,
        block_codec=options.block_codec,
    )


class _BlockCursor:
    """One merge input: the run's current decoded block and a position
    in it. ``key`` is the head — the next key this input offers — and
    None once the run is exhausted. Blocks are read off a sequential
    handle of the file that holds them, one file's handle open at a
    time; reads are :func:`read_twice`'s."""

    __slots__ = (
        "run_id", "run", "handle", "next_block", "block", "pos", "key",
    )

    def __init__(self, run_id: int, run: Run) -> None:
        self.run_id = run_id
        self.run = run
        self.handle: SSTableReader | None = None
        self.next_block = 0
        self.block: DataBlock | None = None
        self.pos = 0
        self.key: bytes | None = None

    def load(self) -> None:
        """Step to the run's next block (or to exhaustion)."""
        if self.next_block < self.run.block_count:
            reader, index = self.run.locate(self.next_block)
            if self.handle is None or self.handle.path != reader.path:
                self.close()
                self.handle = reader.sequential_handle()
            self.block = read_twice(
                self.run_id, self.handle.read_data_block, index
            )
            self.next_block += 1
            self.pos = 0
            self.key = self.block.keys[0]
        else:
            self.close()
            self.block = None
            self.key = None

    def close(self) -> None:
        """Close the open file handle, if any."""
        if self.handle is not None:
            self.handle.close()
            self.handle = None


def _link_order(
    runs: list[Run], drop_tombstones: bool
) -> tuple[str, ...] | None:
    """The files of a merge's output, key order, if the merge may link
    its inputs rather than rewrite them, else None; decided from metas.
    The inputs' key ranges are pairwise disjoint, no tombstone is to be
    dropped, together they name at most :data:`MAX_RUN_FILES` files,
    and those files' filters hold at most :data:`APPENDED_FILTER_BITS`
    times the bits of the one filter the k-way merge would build (a
    writer sizes one for 1,024 keys at least).
    """
    files = [reader for run in runs for reader in run.files]
    if len(files) > MAX_RUN_FILES or (
        drop_tombstones and any(run.tombstone_count for run in runs)
    ):
        return None
    rebuilt = max(sum(run.entry_count for run in runs), MIN_FILTER_KEYS)
    bits = sum(reader.point_filter.bit_size for reader in files)
    if bits > APPENDED_FILTER_BITS * rebuilt * BLOOM_BITS_PER_KEY:
        return None
    ordered = sorted(runs, key=lambda run: run.min_key)
    for lower, upper in zip(ordered, ordered[1:]):
        if lower.max_key >= upper.min_key:
            return None
    return tuple(
        os.path.basename(f.path) for run in ordered for f in run.files
    )


class MergeJob:
    """An in-flight merge: incremental reconciliation into a new run.

    A k-way merge over block cursors, newest input first. Each round
    picks the input with the smallest head (the newest on a tie, whose
    entry shadows the others' — :func:`reconciling_iterator`'s rule,
    stated once in :func:`~repro.engine.iterators.pick_head`) and
    drains it up to the smallest head among the rest, block after block
    without looking at the others again. What a round moves is a range
    of one decoded block, never a record: the range goes to the writer
    as encoded bytes, and a block that is consumed whole — and holds no
    tombstone this merge must drop — is offered to the writer for a
    verbatim copy (:meth:`SSTableWriter.add_block` decides from the
    block's format version, codec id and size). Input progress is the
    encoded size of the ranges moved or stepped over, so it ends at the
    inputs' logical bytes; a chunk boundary may cut a range anywhere.

    A merge whose inputs' key ranges are disjoint (:func:`_link_order`
    says when) has nothing to reconcile, and nothing to write either: it
    *links* them. ``links`` lists the files the output run names, in key
    order; its first advance finishes it, and publishing it is one
    manifest edit. No block is read and no byte written, and the files'
    readers, with their cached blocks, pass to the output run.

    A k-way merge reads its inputs off its own sequential file handles,
    opened by :meth:`advance` one file per input at a time, because it
    may run on a maintenance worker outside the store lock while
    foreground reads use the query readers' handles. ``claimed`` is the
    executor's co-advance guard: :meth:`advance` is called only by
    ``MaintenanceExecutor._run``, on a job claimed under the store lock,
    so two threads can never interleave chunks of one merge.
    """

    def __init__(
        self,
        descriptor: MergeDescriptor,
        runs: list[Run],
        output_path: str,
        options: StoreOptions,
        rate_limiter: RateLimiter,
        drop_tombstones: bool,
    ) -> None:
        self.descriptor = descriptor
        self._runs = runs
        self.claimed = False
        self._drop_tombstones = drop_tombstones
        self.links = _link_order(runs, drop_tombstones)
        # Progress is tracked against *logical* input bytes because a
        # cursor sees decoded blocks; for uncompressed (and all
        # version-1) runs this equals data_bytes, CRC trailers aside.
        self.total_input_bytes = sum(run.logical_bytes for run in runs)
        self._writer = None
        if self.links is None:
            self._writer = _open_writer(
                output_path,
                options,
                rate_limiter,
                sum(run.entry_count for run in runs),
            )
        else:
            descriptor.remaining_input_bytes = 0.0
        #: Path of the run being produced.
        self.output_path = output_path
        #: Inputs not yet exhausted, newest first so that position
        #: breaks ties. Opened by the first advance(): the constructor
        #: runs under the store lock and must not read blocks.
        self._cursors: list[_BlockCursor] | None = None
        self._consumed = 0
        #: Input blocks by how they reached the output (or were shadowed
        #: away): kept in place (linked) or written verbatim vs. decoded
        #: and re-packed.
        self.blocks_copied = 0
        self.blocks_rewritten = 0
        self.finished = False
        self.stats = None

    def _leave_block(self, cursor: _BlockCursor, copied: bool = False) -> None:
        """Count the block a cursor is done with and load its next."""
        if copied:
            self.blocks_copied += 1
        else:
            self.blocks_rewritten += 1
        cursor.load()
        if cursor.key is None:
            self._cursors.remove(cursor)

    def _step_over(self, cursor: _BlockCursor) -> None:
        """Move an input past its head, a copy of a key that a newer
        input shadows; the entry counts as consumed."""
        ends, pos = cursor.block.ends, cursor.pos
        self._consumed += ends[pos] - (ends[pos - 1] if pos else 0)
        if pos + 1 == len(ends):
            self._leave_block(cursor)
        else:
            cursor.pos = pos + 1
            cursor.key = cursor.block.keys[pos + 1]

    def _drain(
        self, best: _BlockCursor, limit: bytes | None, target: int
    ) -> None:
        """Move ``best``'s entries below ``limit`` to the output, block
        after block, stopping with the entry that brings consumed input
        to ``target``."""
        writer = self._writer
        drop = self._drop_tombstones
        while True:
            block = best.block
            keys, ends = block.keys, block.ends
            lo = best.pos
            if limit is None or keys[-1] < limit:
                hi = len(keys)
            else:
                hi = bisect_left(keys, limit, lo)
            start = ends[lo - 1] if lo else 0
            budget = target - self._consumed
            if ends[hi - 1] - start > budget:
                hi = bisect_left(ends, start + budget, lo, hi) + 1
            self._consumed += ends[hi - 1] - start
            copied = False
            if lo == 0 and hi == len(keys) and not (drop and block.tombstones):
                copied = writer.add_block(block)
            else:
                if drop:
                    for position in block.tombstones:
                        if lo <= position < hi:
                            writer.add_entries(block, lo, position)
                            lo = position + 1
                writer.add_entries(block, lo, hi)
            if hi < len(keys):
                best.pos = hi
                best.key = keys[hi]
                return
            self._leave_block(best, copied)
            if (
                best.key is None
                or (limit is not None and best.key >= limit)
                or self._consumed >= target
            ):
                return

    def _merge(self, target: int) -> bool:
        """Run the k-way merge until consumed input reaches ``target``;
        True once every input is exhausted."""
        if self._cursors is None:
            cursors = [
                _BlockCursor(c.uid, run)
                for c, run in zip(self.descriptor.inputs, self._runs)
            ][::-1]
            for cursor in cursors:
                cursor.load()
            self._cursors = [c for c in cursors if c.key is not None]
        while self._cursors and self._consumed < target:
            best, limit = pick_head(self._cursors, self._step_over)
            self._drain(best, limit, target)
        return not self._cursors

    def advance(self, chunk_bytes: int) -> bool:
        """Process roughly ``chunk_bytes`` of input; True when complete."""
        if self.finished:
            return True
        if self.links is not None:
            self.blocks_copied = sum(run.block_count for run in self._runs)
            self.finished = True
            return True
        if self._merge(self._consumed + chunk_bytes):
            self.stats = self._writer.finish()
            self.finished = True
        self.descriptor.remaining_input_bytes = max(
            0.0, self.total_input_bytes - self._consumed
        )
        return self.finished

    @property
    def output_bytes(self) -> int:
        """Data bytes of the finished output run."""
        if self.links is not None:
            return sum(run.data_bytes for run in self._runs)
        return self.stats.data_bytes

    def abandon(self) -> None:
        """Abort the merge and delete the partial output."""
        if self._writer is not None:
            self._writer.abandon()
        self.close_readers()
        self.descriptor.release_inputs()

    def close_readers(self) -> None:
        """Close the file handles the job's cursors hold open."""
        for cursor in self._cursors or ():
            cursor.close()


class _RunSetView(NamedTuple):
    """Everything read off the live run set between two edits: built
    once, by the first read after
    :meth:`CompactionManager._run_set_changed`, and shared by every
    caller until the next."""

    snapshot: TreeSnapshot
    levels: dict[int, int]
    write_stalled: bool
    write_headroom: float
    scrub_targets: list[tuple[int, str]]
    read_plan: tuple[tuple[int, Run | QuarantineEntry], ...]


class CompactionManager:
    """Owns the live run set and drives flushes and merges."""

    #: Default input bytes processed per scheduler consultation. Small
    #: enough that the greedy scheduler can redirect quickly, large
    #: enough to amortize Python-level overhead. Overridden per store by
    #: ``options.merge_chunk_bytes``.
    CHUNK_BYTES = 1 << 20

    def __init__(
        self,
        directory: str,
        options: StoreOptions,
        manifest: Manifest,
        obs=None,
    ) -> None:
        self._directory = directory
        self._options = options
        self.chunk_bytes = options.merge_chunk_bytes or self.CHUNK_BYTES
        self._manifest = manifest
        self._obs = obs
        if obs is not None:
            registry = obs.registry
            self._m_flushes = registry.counter(
                "engine_flushes_total",
                help="Sealed memtables flushed to level-0 runs.",
            )
            self._m_flush_bytes = registry.counter(
                "engine_flush_bytes_total",
                help="Bytes written by memtable flushes.",
            )
        self._policy, self._scheduler, self._constraint = (
            options.merge_decisions()
        )
        self._uids = UidAllocator()
        self._rate_limiter = RateLimiter(options.rate_limit_bytes_per_s)
        self._block_cache = BlockCache(
            options.block_cache_bytes,
            ghost_bytes_for(options.memtable_bytes, options.block_cache_bytes),
        )
        #: The open reader of every file a live run names, by file name.
        self._files: dict[str, SSTableReader] = {}
        self._runs: dict[int, Run] = {}
        self._components: dict[int, Component] = {}
        self._jobs: dict[int, MergeJob] = {}
        #: No merge starts before this ``time.monotonic()``: one failed.
        self._retry_at = 0.0
        self._merge_count = 0
        self._quarantine = QuarantineSet(directory)
        #: What is derived from the run set; None until the next read.
        self._view: _RunSetView | None = None
        records = manifest.live_runs()
        self._apply_edit([], [], recovered=records)
        # A merge or repair that retired a run also retired its
        # quarantine; drop registry entries the manifest no longer backs.
        self._quarantine.retain({record.run_id for record in records})
        # Orphaned run files are crash leftovers from unfinished merges.
        live_files = {name for record in records for name in record.files}
        for name in os.listdir(directory):
            if name.endswith(".run") and name not in live_files:
                os.remove(os.path.join(directory, name))

    # -- the run set and what is derived from it -------------------------

    def _apply_edit(
        self,
        removed_run_ids: list[int],
        added: list[tuple[int, int, tuple[str, ...]]],
        sequence: int | None = None,
        recovered: list[RunRecord] | None = None,
    ) -> None:
        """The one place the live run set changes (store lock held).

        ``added`` lists ``(run_id, level, files)``, all stamped
        ``sequence`` (None: a fresh stamp, a flush). The order is what
        makes a crash between any two steps recoverable (docs/engine.md,
        "Run-set edits"): the manifest first, one line for the whole
        edit, so a crash leaves either the inputs or the outputs live
        and never both; then readers for files no live run named yet (a
        failure raises with memory untouched) — a linked output's files
        keep theirs, cached blocks included; then the in-memory swap,
        lifting a retired run's quarantine; then the files that no live
        run names any more, which the manifest no longer names either (a
        crash leaves orphans for recovery to sweep); last the one
        invalidation, and the policy sees the new tree.

        Recovery passes the manifest's own records as ``recovered``:
        already durable, so nothing is logged or scheduled, and a run
        that cannot be opened is kept, quarantined, rather than
        refusing to start — unless a file is in a legacy format, which
        refuses the open before the quarantine is written.
        """
        if recovered is None:
            records = self._manifest.replace_runs(
                removed_run_ids, added, sequence=sequence
            )
        else:
            records = recovered
        fresh: dict[str, SSTableReader] = {}
        opened, unreadable = [], []
        for record in records:
            try:
                run = Run(
                    tuple(self._reader(name, fresh) for name in record.files)
                )
                size, entries = run.data_bytes, run.entry_count
            except (CorruptionError, OSError, ConfigurationError) as error:
                # A legacy file refuses recovery too, before any write.
                if recovered is None or isinstance(error, ConfigurationError):
                    for reader in fresh.values():
                        reader.close()
                    raise
                # Bad footer, index or meta block — but a replica may
                # still hold the data: keep the run as a quarantined,
                # readerless component. Its key bounds are unknown, so
                # the quarantine fences the whole keyspace.
                run, entries = None, 0
                size = sum(
                    os.path.getsize(path)
                    for path in map(self._path, record.files)
                    if os.path.exists(path)
                )
                unreadable.append(
                    QuarantineEntry(
                        run_id=record.run_id,
                        filename=",".join(record.files),
                        level=record.level,
                        min_key=b"",
                        max_key=_UNBOUNDED_MAX_KEY,
                        reason=str(error),
                        source="read",
                    )
                )
            component = Component(
                uid=record.run_id,
                level=record.level,
                size_bytes=float(size),
                entry_count=float(entries),
                handle=record,
            )
            opened.append((component, run))
        for entry in unreadable:
            if entry.run_id not in self._quarantine:
                self._quarantine.add(entry)
        self._files.update(fresh)
        for component, run in opened:
            self._components[component.uid] = component
            if run is not None:
                self._runs[component.uid] = run
        retired = []
        for run_id in removed_run_ids:
            retired += self._components.pop(run_id).handle.files
            self._runs.pop(run_id, None)
            self._quarantine.remove(run_id)
        named = {
            name
            for component in self._components.values()
            for name in component.handle.files
        }
        for name in retired:
            if name not in named:
                reader = self._files.pop(name, None)
                if reader is not None:
                    reader.close()
                if os.path.exists(self._path(name)):
                    os.remove(self._path(name))
        self._run_set_changed()
        if recovered is None:
            self._schedule_merges()

    def _reader(
        self, name: str, fresh: dict[str, SSTableReader]
    ) -> SSTableReader:
        """The open reader of a file, opened into ``fresh`` if no live
        run names it yet."""
        reader = self._files.get(name) or fresh.get(name)
        if reader is None:
            reader = fresh[name] = SSTableReader(
                self._path(name), block_cache=self._block_cache
            )
        return reader

    def _path(self, name: str) -> str:
        return os.path.join(self._directory, name)

    def _run_set_changed(self) -> None:
        """The one invalidation of everything derived: called by
        :meth:`_apply_edit` for the run set and :meth:`quarantine_run`
        for the quarantine set; the next read rebuilds."""
        self._view = None

    def _rebuild_view(self) -> _RunSetView:
        components = self._components.values()
        snapshot = TreeSnapshot(
            sorted(components, key=lambda c: (c.level, c.handle.sequence))
        )
        newest_first = sorted(
            components, key=lambda c: c.handle.sequence, reverse=True
        )
        self._view = view = _RunSetView(
            snapshot=snapshot,
            levels={
                level: snapshot.count_at(level) for level in snapshot.levels()
            },
            write_stalled=self._constraint.is_violated(snapshot),
            write_headroom=self._constraint.headroom(snapshot),
            scrub_targets=sorted(
                (uid, reader.path)
                for uid, run in self._runs.items()
                if uid not in self._quarantine
                for reader in run.files
            ),
            read_plan=tuple(
                (
                    component.uid,
                    self._quarantine.get(component.uid)
                    or self._runs[component.uid],
                )
                for component in newest_first
            ),
        )
        return view

    def snapshot(self) -> TreeSnapshot:
        """Core-typed view of the live runs, oldest-first per level."""
        return (self._view or self._rebuild_view()).snapshot

    def read_plan(self) -> tuple[tuple[int, Run | QuarantineEntry], ...]:
        """Probe plan, newest data first: ``(run_id, element)`` where the
        element is a live :class:`Run` — or the :class:`QuarantineEntry`
        fencing that run off, held *in probe position* so a point lookup
        knows exactly when its answer would have depended on the corrupt
        run (newer sources can still answer soundly).

        Shared by every get and scan until the run set next changes —
        hence a tuple.
        """
        return (self._view or self._rebuild_view()).read_plan

    def scrub_targets(self) -> list[tuple[int, str]]:
        """``(run_id, path)`` of every file of every readable live run,
        stable order — the work list one scrub pass walks."""
        return (self._view or self._rebuild_view()).scrub_targets

    def levels(self) -> dict[int, int]:
        """Component count per level."""
        return (self._view or self._rebuild_view()).levels

    def is_write_stalled(self) -> bool:
        """True when the component constraint forbids new flushes."""
        return (self._view or self._rebuild_view()).write_stalled

    def write_headroom(self) -> float:
        """Remaining component budget as a fraction (0 = stalled).

        The serving tier's admission feeds this signal alone to its
        mode's core write control (stop, limit or slowdown).
        """
        return (self._view or self._rebuild_view()).write_headroom

    @property
    def quarantine(self) -> QuarantineSet:
        """The persisted quarantine registry (query under the store lock)."""
        return self._quarantine

    def _in_flight(self, run_id: int) -> bool:
        return any(
            any(c.uid == run_id for c in job.descriptor.inputs)
            for job in self._jobs.values()
        )

    def quarantine_run(
        self, run_id: int, reason: str, source: str
    ) -> QuarantineEntry | None:
        """Fence a live run off from reads and merges (under the lock).

        Returns the new entry, or None when the run is not live or is
        already quarantined (nothing changed). Pending unclaimed merges
        that would consume the run are abandoned so the policy cannot
        merge *around* it — a merge output stamped with a newer sequence
        would shadow the quarantined run's repaired data.
        """
        component = self._components.get(run_id)
        if component is None or run_id in self._quarantine:
            return None
        run = self._runs.get(run_id)
        if run is not None:
            min_key, max_key = run.min_key, run.max_key
        else:
            min_key, max_key = b"", _UNBOUNDED_MAX_KEY
        entry = QuarantineEntry(
            run_id=run_id,
            filename=",".join(component.handle.files),
            level=component.level,
            min_key=min_key,
            max_key=max_key,
            reason=reason,
            source=source,
        )
        self._quarantine.add(entry)
        self._run_set_changed()
        # A cached row may have come from this run: a lookup it answered
        # must fail fast now, as an uncached one does.
        self._block_cache.drop_all_rows()
        for job in list(self._jobs.values()):
            if not job.claimed and any(
                c.uid == run_id for c in job.descriptor.inputs
            ):
                self.fail_merge(job)
        return entry

    @property
    def component_count(self) -> int:
        """Number of live disk components."""
        return len(self._components)

    @property
    def merges_completed(self) -> int:
        """Merges finished over this manager's lifetime."""
        return self._merge_count

    @property
    def rate_limiter(self) -> RateLimiter:
        """The shared flush/merge write throttle."""
        return self._rate_limiter

    @property
    def block_cache(self) -> BlockCache:
        """The shared read cache over all live runs."""
        return self._block_cache

    # -- writing runs ----------------------------------------------------

    def _begin_run(self, expected_keys: int) -> tuple[int, SSTableWriter]:
        """Allocate a run id and open its writer. The id is not durable
        until an edit adds the run, so an abandoned writer leaves
        nothing but an orphan file that recovery sweeps."""
        run_id = self._manifest.allocate_run_id()
        return run_id, _open_writer(
            os.path.join(self._directory, f"{run_id:08d}.run"),
            self._options,
            self._rate_limiter,
            expected_keys,
        )

    def _written(
        self, run_id: int, level: int, stats
    ) -> list[tuple[int, int, tuple[str, ...]]]:
        """A finished writer's run as an edit's ``added`` — nothing,
        and the file deleted, when the run came out empty."""
        if stats.entry_count == 0:
            if os.path.exists(stats.path):
                os.remove(stats.path)
            return []
        self._note_run_written(stats)
        return [(run_id, level, (os.path.basename(stats.path),))]

    def _note_run_written(self, stats) -> None:
        """Block-format metrics for any newly published run: how many
        data-block bytes it stores physically vs. logically (the
        store-wide space-amp series), and which point filter it built."""
        if self._obs is None:
            return
        registry = self._obs.registry
        registry.counter(
            "engine_block_logical_bytes_total",
            labels={"codec": stats.codec},
            help="Pre-compression data-block bytes in published runs, "
            "by codec.",
        ).inc(stats.logical_bytes)
        registry.counter(
            "engine_block_compressed_bytes_total",
            labels={"codec": stats.codec},
            help="Physical (post-codec) data-block bytes in published "
            "runs, by codec.",
        ).inc(stats.data_bytes)
        registry.counter(
            "engine_filters_built_total",
            labels={"kind": "bloom"},
            help="Point filters built for published runs, by kind.",
        ).inc()

    # -- flush -----------------------------------------------------------

    def begin_flush(self, entry_hint: int) -> tuple[int, SSTableWriter]:
        """Allocate a run id and open its writer (under the store lock):
        the claim half of a flush. The claimant feeds the writer the
        sealed memtable off-lock and hands the finished stats to
        :meth:`publish_flush`, under the lock again."""
        run_id, writer = self._begin_run(entry_hint)
        if self._obs is not None:
            self._obs.tracer.emit(
                obs_events.FLUSH_START, run_id=run_id, entries=entry_hint
            )
        return run_id, writer

    def publish_flush(self, run_id: int, stats) -> None:
        """Install a finished flush's run (call under the store lock)."""
        self._note_run_written(stats)
        if self._obs is not None:
            self._m_flushes.inc()
            self._m_flush_bytes.inc(stats.data_bytes)
            self._obs.tracer.emit(
                obs_events.FLUSH_END,
                run_id=run_id,
                bytes=stats.data_bytes,
                entries=stats.entry_count,
            )
        self._apply_edit([], [(run_id, 0, (os.path.basename(stats.path),))])

    # -- merging ---------------------------------------------------------

    def _schedule_merges(self, strict: bool = False) -> None:
        """Start the merges the policy selects; one that cannot start
        holds merge starts back and, with ``strict``, raises its error."""
        if self.retry_pending():
            return
        failure = None
        active = [job.descriptor for job in self._jobs.values()]
        for descriptor in self._policy.select_merges(
            self.snapshot(), self._uids, active
        ):
            # Quarantined inputs are filtered *here*, not hidden from
            # the snapshot: the policy must keep seeing the run (it
            # still occupies its level and counts against the component
            # constraint), but merging it — or merging its neighbours
            # over it into a newer-stamped output — would either read
            # corrupt blocks or invert shadowing once the run is
            # repaired at its original sequence.
            if any(c.uid in self._quarantine for c in descriptor.inputs):
                descriptor.release_inputs()
                continue
            failure = self._start_job(descriptor) or failure
        if strict and failure is not None:
            raise failure

    def _start_job(self, descriptor: MergeDescriptor) -> OSError | None:
        oldest_live = min(
            c.handle.sequence for c in self._components.values()
        )
        drops = any(
            c.handle.sequence == oldest_live for c in descriptor.inputs
        )
        try:
            output_run_id = self._manifest.allocate_run_id()
            job = MergeJob(
                descriptor,
                [self._runs[component.uid] for component in descriptor.inputs],
                os.path.join(self._directory, f"{output_run_id:08d}.run"),
                self._options,
                self._rate_limiter,
                drop_tombstones=drops,
            )
        except OSError as exc:
            # Nothing is started (the output cannot be opened): the
            # claim or publish that scheduled the merge goes on, and the
            # merge is retried after a back-off.
            descriptor.release_inputs()
            self._retry_at = time.monotonic() + RETRY_SECONDS
            if self._obs is not None:
                self._obs.registry.counter(
                    "engine_maintenance_failures_total"
                ).inc()
            return exc
        job.output_run_id = output_run_id
        self._jobs[descriptor.uid] = job
        if self._obs is not None:
            self._obs.tracer.emit(
                obs_events.MERGE_START,
                merge_uid=descriptor.uid,
                level=descriptor.target_level,
                inputs=len(descriptor.inputs),
                input_bytes=job.total_input_bytes,
            )

    def _finish_job(self, job: MergeJob) -> None:
        descriptor = job.descriptor
        stats = job.stats
        job.close_readers()
        descriptor.release_inputs()
        del self._jobs[descriptor.uid]
        self._merge_count += 1
        if self._obs is not None:
            level = str(descriptor.target_level)
            self._obs.registry.counter(
                "engine_merges_total",
                labels={"level": level},
                help="Merges completed, by target level.",
            ).inc()
            self._obs.registry.counter(
                "engine_merge_bytes_total",
                labels={"level": level},
                help="Merge input bytes read and rewritten, by target "
                "level (a merge that links its inputs reads none).",
            ).inc(0 if job.links else job.total_input_bytes)
            for path, blocks in (
                ("linked" if job.links else "copied", job.blocks_copied),
                ("rewritten", job.blocks_rewritten),
            ):
                self._obs.registry.counter(
                    "engine_merge_blocks_total",
                    labels={"path": path},
                    help="Merge input blocks, by how they reached the "
                    "output: kept in place by a key-disjoint merge that "
                    "links its inputs' files, stored bytes copied "
                    "verbatim by a k-way merge, or decoded and re-packed.",
                ).inc(blocks)
            self._obs.tracer.emit(
                obs_events.MERGE_END,
                merge_uid=descriptor.uid,
                level=descriptor.target_level,
                input_bytes=job.total_input_bytes,
                output_bytes=job.output_bytes,
            )
        level = descriptor.target_level
        # The output's data is only as new as its newest input.
        self._apply_edit(
            [c.uid for c in descriptor.inputs],
            [(job.output_run_id, level, job.links)]
            if job.links
            else self._written(job.output_run_id, level, stats),
            sequence=max(c.handle.sequence for c in descriptor.inputs),
        )

    def has_work(self) -> bool:
        """True when merges are pending."""
        return bool(self._jobs)

    def retry_pending(self) -> bool:
        """True while merges wait out a failed one's back-off."""
        return time.monotonic() < self._retry_at

    @property
    def merge_jobs_in_flight(self) -> int:
        """In-flight merge jobs (claimed or waiting for a worker)."""
        return len(self._jobs)

    def kick(self, strict: bool = False) -> bool:
        """Schedule any newly-eligible merges; True if work now exists.
        With ``strict``, a merge that cannot start raises its error."""
        self._schedule_merges(strict)
        return self.has_work()

    def claim_merge(self) -> MergeJob | None:
        """Claim the scheduler-preferred unclaimed merge (under lock).

        The core scheduler arbitrates which merge each caller advances:
        the allocation over *unclaimed* descriptors is computed and the
        largest share wins, so the fair scheduler spreads concurrent
        workers across merges while the greedy scheduler funnels them
        toward the fewest-remaining-bytes merge first. Returns None when
        everything is already claimed or no merge is eligible.
        """
        if not self._jobs:
            self._schedule_merges()
        unclaimed = [
            job.descriptor
            for job in self._jobs.values()
            if not job.claimed
        ]
        if not unclaimed:
            return None
        allocation = self._scheduler.allocate(
            unclaimed, budget=1.0, tree=self.snapshot()
        )
        if not allocation:
            return None
        chosen_uid = max(allocation, key=allocation.get)
        job = self._jobs[chosen_uid]
        job.claimed = True
        return job

    def release_merge(self, job: MergeJob, finished: bool) -> None:
        """Publish a chunk's outcome (under lock): unclaim the job; a
        finished merge is installed in the manifest, its inputs retired."""
        job.claimed = False
        if finished:
            self._finish_job(job)

    def fail_merge(self, job: MergeJob, retry: bool = False) -> None:
        """Abandon a claimed merge whose advance raised (under lock).

        The partial output is deleted and the descriptor's inputs are
        released, so the policy may reschedule the same merge later —
        with ``retry``, no merge starts for :data:`RETRY_SECONDS`.
        """
        job.claimed = False
        self._jobs.pop(job.descriptor.uid, None)
        job.abandon()
        if retry:
            self._retry_at = time.monotonic() + RETRY_SECONDS

    # -- quarantine repair ---------------------------------------------

    def begin_repair(self, run_id: int) -> tuple[int, SSTableWriter] | None:
        """Open the replacement writer for a quarantined run (under lock).

        Returns ``(new_run_id, writer)``, or None when the run is not
        live, not quarantined, or still feeding an in-flight merge (the
        merge will either finish — lifting the quarantine itself — or
        fail and unblock a later repair attempt).
        """
        component = self._components.get(run_id)
        if (
            component is None
            or run_id not in self._quarantine
            or self._in_flight(run_id)
        ):
            return None
        return self._begin_run(int(component.entry_count) or 1024)

    def publish_repair(
        self, run_id: int, new_run_id: int, stats
    ) -> QuarantineEntry | None:
        """Swap a rebuilt run in for a quarantined one (under the lock).

        The replacement keeps the old run's level and — critically — its
        *sequence stamp*: the rebuilt data re-enters reconciliation at
        exactly the shadowing position the corrupt run held, so values
        flushed or merged while the repair ran keep winning. An empty
        rebuild (the replica held nothing in the run's bounds) simply
        retires the run. Returns the quarantine entry it lifted — None,
        the rebuilt file deleted, if the run is gone or not quarantined.
        """
        component = self._components.get(run_id)
        entry = self._quarantine.get(run_id)
        if component is None or entry is None:
            if os.path.exists(stats.path):
                os.remove(stats.path)
            return None
        self._apply_edit(
            [run_id],
            self._written(new_run_id, component.level, stats),
            sequence=component.handle.sequence,
        )
        self._block_cache.drop_all_rows()
        return entry

    def install(self, runs: list[tuple[int, tuple[str, ...]]]) -> None:
        """A reset's one edit (under the lock, no merge claimed): every
        live run, quarantined or not, out, and ``runs`` — ``(level,
        files)``, oldest first — in, stamped newer in that order. Every
        merge is abandoned, for its inputs go."""
        for job in list(self._jobs.values()):
            self.fail_merge(job)
        if self._components or runs:  # an empty store takes an empty image
            self._apply_edit(
                list(self._components),
                [(self._manifest.allocate_run_id(), *run) for run in runs],
            )
        self._block_cache.drop_all_rows()

    def merge_claimed(self) -> bool:
        """Is a merge chunk being advanced right now (under the lock)?"""
        return any(job.claimed for job in self._jobs.values())

    def close(self) -> None:
        """Abandon in-flight merges, close every reader and empty the
        cache: rows belong to no reader, so closing readers frees only
        blocks."""
        for job in list(self._jobs.values()):
            job.abandon()
        self._jobs.clear()
        for reader in self._files.values():
            reader.close()
        self._block_cache.clear()
