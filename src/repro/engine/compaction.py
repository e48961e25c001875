"""Compaction driver: executes the core policies on real sorted runs.

This module is where the shared abstractions pay off: the *same*
:class:`~repro.core.policies.base.MergePolicy` and
:class:`~repro.core.schedulers.base.MergeScheduler` objects that drive the
simulator decide which runs to merge and which merge makes progress next.

Merges execute in *chunks*: :meth:`CompactionManager.claim_merge` asks
the scheduler for the current bandwidth allocation and hands the merge
with the largest share to the maintenance executor, which advances it
by one chunk of input bytes on its one thread. A single-threaded
scheduler therefore runs one merge to completion; the fair scheduler
round-robins chunks across merges; the greedy scheduler always advances
the merge with the fewest remaining input bytes — the paper's
concurrent merges as cooperative multitasking, which realizes each
scheduler's split of the one I/O budget deterministically, with the
shared rate limiter throttling actual file writes underneath.
"""

from __future__ import annotations

import os

from ..core.components import Component, MergeDescriptor, UidAllocator
from ..errors import ConfigurationError, CorruptionError
from ..obs import Observability
from ..obs import events as obs_events
from .blockcache import BlockCache, ghost_bytes_for
from .manifest import Manifest, RunRecord
from .memtable import MemTable
from .merge import MergeJob, _open_writer
from .options import StoreOptions
from .quarantine import QuarantineEntry, QuarantineSet
from .ratelimiter import RateLimiter
from .runs import Run
from .sstable import SSTableReader, SSTableWriter
from .version import Version, build_version, newest_first

#: Upper key bound recorded when a run is quarantined before its meta
#: block could be read — wide enough that any plausible key is covered.
_UNBOUNDED_MAX_KEY = b"\xff" * 256

#: How long no merge is started after one failed for a reason other
#: than a checksum (at its start or in a chunk), and the worker claims
#: no flush after a failed one: an idle worker's poll, so a persistent
#: I/O error costs one attempt per poll, not a busy loop. A failed merge
#: holds back no flush, nor a merge already started.
RETRY_SECONDS = 0.05


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
        self._obs = obs = obs or Observability()
        registry = obs.registry
        self._m_flushes = registry.counter(
            "engine_flushes_total",
            help="Sealed memtables flushed to level-0 runs.",
        )
        self._m_flush_bytes = registry.counter(
            "engine_flush_bytes_total",
            help="Bytes written by memtable flushes.",
        )
        self._m_corruption = {
            source: registry.counter(
                "engine_corruption_detected_total",
                labels={"source": source},
                help="Runs quarantined after persistent corruption, "
                "by detection source.",
            )
            for source in ("read", "scrub", "merge")
        }
        self._policy, self._scheduler, self._constraint = (
            options.merge_decisions()
        )
        self._uids = UidAllocator()
        self._rate_limiter = RateLimiter(options.rate_limit_bytes_per_s, obs)
        self._block_cache = BlockCache(
            options.block_cache_bytes,
            ghost_bytes_for(options.memtable_bytes, options.block_cache_bytes),
        )
        #: The open reader of every file a live run names, by file name.
        self._files: dict[str, SSTableReader] = {}
        self._runs: dict[int, Run] = {}
        self._components: dict[int, Component] = {}
        self._jobs: dict[int, MergeJob] = {}
        #: The merge job whose chunk is in flight, if any: one at a time.
        self._claimed: MergeJob | None = None
        #: No merge starts before this ``obs.clock()``: one failed.
        self._retry_at = 0.0
        self._merge_count = 0
        self._quarantine = QuarantineSet(directory)
        #: The store's current version; ``_install`` alone assigns it.
        self.version: Version
        records = manifest.live_runs()
        self._apply_edit(
            [], [], recovered=records, memtables=(MemTable(), ())
        )
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
        memtables: tuple[MemTable, tuple[MemTable, ...]] | None = None,
    ) -> None:
        """The one place the live run set changes (store lock held).

        ``added`` lists ``(run_id, level, files)``, all stamped
        ``sequence`` (None: a fresh stamp, a flush). The order is what
        makes a crash between any two steps recoverable (docs/engine.md,
        "Run-set edits"): the manifest first, one line for the whole
        edit, so a crash leaves either the inputs or the outputs live
        and never both; then readers for files no live run named yet (a
        failure raises with memory untouched) — a linked output's files
        keep theirs; then the in-memory swap, lifting a retired run's
        quarantine; then the files that no live run names any more,
        which the manifest no longer names either (a crash leaves
        orphans for recovery to sweep; a read that pinned an older
        version keeps the reader, whose descriptor closes when the last
        reference goes); last the one install — with
        ``memtables``, ``(active, sealed)``, in the same version — and
        the policy sees the new tree.

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
                self._files.pop(name, None)
                if os.path.exists(self._path(name)):
                    os.remove(self._path(name))
        self._install(memtables)
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
                self._path(name), self._block_cache.count_block_read
            )
        return reader

    def _path(self, name: str) -> str:
        return os.path.join(self._directory, name)

    def _install(
        self, memtables: tuple[MemTable, tuple[MemTable, ...]] | None = None
    ) -> None:
        """Make the next :class:`Version` current (store lock held): the
        run set and quarantine as they stand, and ``memtables`` —
        ``(active, sealed)`` — or the current version's. The one place
        the store's version changes."""
        active, sealed = memtables or (self.version.active, self.version.sealed)
        self.version = build_version(
            active, sealed, self._components, self._runs,
            self._quarantine, self._constraint,
        )

    def rotate(self) -> MemTable:
        """Seal the active memtable behind the others awaiting flush and
        install a fresh one in front (store lock held); returns the one
        sealed."""
        version = self.version
        version.active.seal()
        self._install((MemTable(), version.sealed + (version.active,)))
        return version.active

    @property
    def quarantine(self) -> QuarantineSet:
        """The persisted quarantine registry (query under the store lock;
        a read uses the installed version's plan instead)."""
        return self._quarantine

    def _in_flight(self, run_id: int) -> bool:
        return any(
            any(c.uid == run_id for c in job.descriptor.inputs)
            for job in self._jobs.values()
        )

    def quarantine_run(
        self, run_id: int, reason: str, source: str
    ) -> QuarantineEntry | None:
        """Fence a live run off from reads and merges (under the lock),
        counted by detection ``source`` and traced.

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
        self._install()
        # A cached row or span may hold rows of this run: a lookup it answered
        # must fail fast now, as an uncached one does.
        self._block_cache.drop_all_rows()
        for job in list(self._jobs.values()):
            if job is not self._claimed and any(
                c.uid == run_id for c in job.descriptor.inputs
            ):
                self.fail_merge(job)
        self._m_corruption[source].inc()
        self._obs.tracer.emit(
            obs_events.CORRUPTION_QUARANTINE,
            run_id=run_id,
            level=entry.level,
            source=source,
            reason=reason,
            min_key=min_key.hex(),
            max_key=max_key.hex(),
        )
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
        self._obs.tracer.emit(
            obs_events.FLUSH_START, run_id=run_id, entries=entry_hint
        )
        return run_id, writer

    def publish_flush(
        self, run_id: int, stats, memtable: MemTable | None = None
    ) -> None:
        """Install a finished flush's run, and drop the sealed
        ``memtable`` it holds, in one version (store lock held)."""
        self._note_run_written(stats)
        self._m_flushes.inc()
        self._m_flush_bytes.inc(stats.data_bytes)
        self._obs.tracer.emit(
            obs_events.FLUSH_END,
            run_id=run_id,
            bytes=stats.data_bytes,
            entries=stats.entry_count,
        )
        version = self.version
        self._apply_edit(
            [],
            [(run_id, 0, (os.path.basename(stats.path),))],
            memtables=(
                version.active,
                tuple(m for m in version.sealed if m is not memtable),
            ),
        )

    # -- merging ---------------------------------------------------------

    def _schedule_merges(self, strict: bool = False) -> None:
        """Start the merges the policy selects; one that cannot start
        holds merge starts back and, with ``strict``, raises its error."""
        if self.retry_pending():
            return
        failure = None
        active = [job.descriptor for job in self._jobs.values()]
        for descriptor in self._policy.select_merges(
            self.version.snapshot, self._uids, active
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
        # A policy's input order says nothing about age.
        inputs = newest_first(descriptor.inputs)
        oldest_live = min(c.handle.sequence for c in self._components.values())
        try:
            output_run_id = self._manifest.allocate_run_id()
            job = MergeJob(
                descriptor,
                [(c.uid, self._runs[c.uid]) for c in inputs],
                os.path.join(self._directory, f"{output_run_id:08d}.run"),
                self._options,
                self._rate_limiter,
                drop_tombstones=inputs[-1].handle.sequence == oldest_live,
            )
        except OSError as exc:
            # Nothing is started (the output cannot be opened): the
            # claim or publish that scheduled the merge goes on, and the
            # merge is retried after a back-off.
            descriptor.release_inputs()
            self._retry_at = self._obs.clock() + RETRY_SECONDS
            self._obs.registry.counter(
                "engine_maintenance_failures_total"
            ).inc()
            return exc
        job.output_run_id = output_run_id
        self._jobs[descriptor.uid] = job
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
        return self._obs.clock() < self._retry_at

    @property
    def merge_jobs_in_flight(self) -> int:
        """Merge jobs started and not yet finished or abandoned."""
        return len(self._jobs)

    def kick(self, strict: bool = False) -> bool:
        """Schedule any newly-eligible merges; True if work now exists.
        With ``strict``, a merge that cannot start raises its error."""
        self._schedule_merges(strict)
        return self.has_work()

    def claim_merge(self) -> MergeJob | None:
        """Claim the merge whose next chunk runs (under lock): the one
        the scheduler gives the largest share of the budget. None while
        a chunk is in flight or when no merge is eligible."""
        if self._claimed is not None:
            return None
        if not self._jobs:
            self._schedule_merges()
            if not self._jobs:
                return None
        allocation = self._scheduler.allocate(
            [job.descriptor for job in self._jobs.values()],
            budget=1.0,
            tree=self.version.snapshot,
        )
        if not allocation:
            return None
        self._claimed = self._jobs[max(allocation, key=allocation.get)]
        return self._claimed

    def release_merge(self, job: MergeJob, finished: bool) -> None:
        """Publish a chunk's outcome (under lock): release the claim; a
        finished merge is installed in the manifest, its inputs retired."""
        self._claimed = None
        if finished:
            self._finish_job(job)

    def fail_merge(self, job: MergeJob, retry: bool = False) -> None:
        """Abandon a claimed merge whose advance raised (under lock).

        The partial output is deleted and the descriptor's inputs are
        released, so the policy may reschedule the same merge later —
        with ``retry``, no merge starts for :data:`RETRY_SECONDS`.
        """
        if job is self._claimed:
            self._claimed = None
        self._jobs.pop(job.descriptor.uid, None)
        job.abandon()
        if retry:
            self._retry_at = self._obs.clock() + RETRY_SECONDS

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
        """A reset's one edit (under the lock, no flush or merge
        claimed): every live run, quarantined or not, out, and ``runs`` —
        ``(level, files)``, oldest first — in, stamped newer in that
        order, and every memtable forgotten, in one version. Every merge
        is abandoned, for its inputs go."""
        for job in list(self._jobs.values()):
            self.fail_merge(job)
        empty = (MemTable(), ())
        if self._components or runs:  # an empty store takes an empty image
            self._apply_edit(
                list(self._components),
                [(self._manifest.allocate_run_id(), *run) for run in runs],
                memtables=empty,
            )
        else:
            self._install(empty)
        self._block_cache.drop_all_rows()

    def merge_claimed(self) -> bool:
        """Is a merge chunk being advanced right now (under the lock)?"""
        return self._claimed is not None

    def close(self) -> None:
        """Abandon in-flight merges, let go of every run's readers and
        empty the cache. The version installed last keeps the run set's
        shape, which ``stats()`` still reports, and names no reader.
        Nothing is closed under a read that pinned an earlier version: a
        reader's descriptor closes once no version names it."""
        for job in list(self._jobs.values()):
            job.abandon()
        for live in (self._jobs, self._runs, self._files):
            live.clear()
        self._install()
        self._block_cache.clear()
