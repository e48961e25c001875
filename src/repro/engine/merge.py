"""How a merge runs: :class:`MergeJob`, one merge from claim to output.

The compaction manager decides which runs merge and when
(:mod:`repro.engine.compaction`); the maintenance executor decides on
which thread a chunk runs. What a chunk does — read the inputs' blocks,
reconcile them, write the output, or link key-disjoint inputs without
reading them — is here, with the one writer configuration every run
the engine produces shares.
"""

from __future__ import annotations

import os
from bisect import bisect_left

from ..core.components import MergeDescriptor
from .iterators import pick_head, read_twice
from .options import StoreOptions
from .ratelimiter import RateLimiter, SyncPolicy
from .runs import Run
from .sstable import MIN_FILTER_KEYS, DataBlock, SSTableReader, SSTableWriter

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

    A k-way merge over block cursors, one per ``(run id, run)`` of
    ``inputs``, newest first: the compaction manager orders them by
    sequence stamp, as reads order the runs they probe. Each round
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
    readers pass to the output run.

    A k-way merge reads its inputs off its own sequential file handles,
    opened by :meth:`advance` one file per input at a time: buffered, so
    one read serves many blocks, and not counted as the queries' block
    lookups. :meth:`advance` is called only by
    ``MaintenanceExecutor._run``, on the one job the compaction manager
    has claimed (``CompactionManager.claim_merge``).
    """

    def __init__(
        self,
        descriptor: MergeDescriptor,
        inputs: list[tuple[int, Run]],
        output_path: str,
        options: StoreOptions,
        rate_limiter: RateLimiter,
        drop_tombstones: bool,
    ) -> None:
        self.descriptor = descriptor
        self._inputs = inputs
        self._runs = runs = [run for _, run in inputs]
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
            # Held before the first loads: if one raises, close_readers
            # closes every handle the loads before it opened.
            self._cursors = [
                _BlockCursor(run_id, run) for run_id, run in self._inputs
            ]
            for cursor in self._cursors:
                cursor.load()
            self._cursors = [c for c in self._cursors if c.key is not None]
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
