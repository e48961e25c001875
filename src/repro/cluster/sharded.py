"""A multi-engine sharded store with a shared maintenance budget.

:class:`ShardedStore` owns one :class:`~repro.engine.LSMStore` per
shard (each in its own subdirectory) and routes keys through a
:class:`~repro.cluster.ring.HashRing`. The cluster-level twist is the
*shared I/O budget*: maintenance (flushes + merge chunks) across all
shards is paid from one pot, arbitrated by the same scheduler taxonomy
the paper applies to merges inside a single tree
(:mod:`repro.core.schedulers`):

* ``fair``  — every needy shard gets an equal slice of the pump budget
  (Cassandra/HBase-style even split, Section 5.1.4 one level up). A
  hot shard whose ingest outruns its fair slice falls behind and
  stalls; cold shards stay comfortably ahead — the regime where the
  global-vs-local admission scopes separate.
* ``greedy`` — the whole budget goes to the shard with the *smallest*
  maintenance backlog (the paper's greedy scheduler, Section 5.1.5:
  finishing the smallest remaining work first minimizes how many
  shards are backlogged at once).

Shard backlogs are translated into synthetic
:class:`~repro.core.components.MergeDescriptor` objects so the real
:class:`~repro.core.schedulers.FairScheduler` /
:class:`~repro.core.schedulers.GreedyScheduler` implementations do the
arbitration — the cluster reuses the paper's machinery rather than
reimplementing it.

Online migration support (dual-write mirrors) lives here; the paged
copy loop that uses it is :mod:`repro.cluster.rebalance`.
"""

from __future__ import annotations

import heapq
import os
import threading
from itertools import islice
from operator import itemgetter
from typing import Iterator, Sequence

from ..core.components import Component, MergeDescriptor
from ..core.schedulers import MergeScheduler, scheduler_by_name
from ..engine.datastore import LSMStore, StoreStats
from ..engine.options import StoreOptions, TOMBSTONE
from ..errors import ConfigurationError
from ..memory import MemoryArbiter, MemoryBudget
from ..obs import Observability
from .ring import HashRing
from .stats import ClusterStats, aggregate_stats

#: Arbiter names accepted by :class:`ShardedStore`.
ARBITERS = ("fair", "greedy")


def _build_arbiter(name: str) -> MergeScheduler:
    if name not in ARBITERS:
        raise ConfigurationError(
            f"unknown arbiter {name!r}; expected one of {ARBITERS}"
        )
    return scheduler_by_name(name)


def _apportion(allocation: dict[int, float], budget: int) -> dict[int, int]:
    """Largest-remainder rounding of a bandwidth split into pump calls."""
    total = sum(allocation.values())
    if total <= 0.0:
        return {}
    quotas = {
        shard: budget * share / total
        for shard, share in allocation.items()
        if share > 0.0
    }
    pumps = {shard: int(quota) for shard, quota in quotas.items()}
    leftover = budget - sum(pumps.values())
    by_remainder = sorted(
        quotas,
        key=lambda shard: (quotas[shard] - pumps[shard], -shard),
        reverse=True,
    )
    for shard in by_remainder[:leftover]:
        pumps[shard] += 1
    return {shard: count for shard, count in pumps.items() if count > 0}


class ShardedStore:
    """N hash-partitioned LSM engines behind one KV interface.

    Writes route by key; scans scatter across every shard and merge the
    ordered streams. ``write_batch`` splits into per-shard sub-batches —
    atomic within a shard, not across shards.
    """

    def __init__(
        self,
        directory: str,
        num_shards: int = 4,
        options: StoreOptions | None = None,
        ring: HashRing | None = None,
        arbiter: str = "fair",
        pump_budget: int | None = None,
    ) -> None:
        if num_shards < 1:
            raise ConfigurationError("need at least one shard")
        self._options = options or StoreOptions()
        self._ring = ring or HashRing(num_shards)
        if self._ring.num_shards != num_shards:
            raise ConfigurationError(
                f"ring routes to {self._ring.num_shards} shards but the "
                f"store has {num_shards}"
            )
        if pump_budget is not None and pump_budget < 1:
            raise ConfigurationError("pump budget must be positive")
        self._arbiter = _build_arbiter(arbiter)
        self._arbiter_name = arbiter
        self._pump_budget = pump_budget or num_shards
        self._directory = directory
        os.makedirs(directory, exist_ok=True)
        self._stores: list[LSMStore] = []
        try:
            for shard in range(num_shards):
                self._stores.append(
                    LSMStore.open(self.shard_directory(shard), self._options)
                )
        except BaseException:
            for store in self._stores:
                store.close()
            raise
        self._shard_locks = [threading.RLock() for _ in range(num_shards)]
        self._mirrors: dict[int, LSMStore] = {}
        self._memory_arbiter: MemoryArbiter | None = None
        self._closed = False

    # -- lifecycle -------------------------------------------------------

    @classmethod
    def open(
        cls,
        directory: str,
        num_shards: int = 4,
        options: StoreOptions | None = None,
        **kwargs,
    ) -> "ShardedStore":
        """Open (or create) a sharded store rooted at ``directory``."""
        return cls(directory, num_shards, options, **kwargs)

    def __enter__(self) -> "ShardedStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Close every shard engine (and any in-flight migration mirror)."""
        if self._closed:
            return
        self._closed = True
        for mirror in self._mirrors.values():
            mirror.close()
        self._mirrors.clear()
        for store in self._stores:
            store.close()

    def shard_directory(self, shard: int) -> str:
        """The data directory of one shard's engine."""
        return os.path.join(self._directory, f"shard-{shard:02d}")

    # -- routing ---------------------------------------------------------

    @property
    def ring(self) -> HashRing:
        """The consistent-hash ring shared with any serving tier."""
        return self._ring

    @property
    def num_shards(self) -> int:
        """How many shard engines the store owns."""
        return len(self._stores)

    @property
    def options(self) -> StoreOptions:
        """The per-shard engine options."""
        return self._options

    @property
    def arbiter(self) -> str:
        """The shared-budget arbitration policy name."""
        return self._arbiter_name

    def shard_for(self, key: bytes) -> int:
        """Which shard owns ``key``."""
        return self._ring.shard_for(key)

    def engine(self, shard: int) -> LSMStore:
        """Direct access to one shard's engine (serving tier, tests)."""
        return self._stores[shard]

    def engines(self) -> Sequence[LSMStore]:
        """All shard engines, index-aligned with shard ids."""
        return tuple(self._stores)

    # -- writes ----------------------------------------------------------

    def put(self, key: bytes, value: bytes) -> None:
        """Insert or update one key on its owning shard."""
        self._apply(self.shard_for(key), [(key, value)])

    def delete(self, key: bytes) -> None:
        """Delete one key on its owning shard."""
        self._apply(self.shard_for(key), [(key, TOMBSTONE)])

    def write_batch(self, batch: list[tuple[bytes, bytes | None]]) -> None:
        """Apply a batch, split per shard (atomic within each shard)."""
        if not batch:
            raise ConfigurationError("empty batch")
        groups: dict[int, list[tuple[bytes, bytes | None]]] = {}
        for key, value in batch:
            groups.setdefault(self.shard_for(key), []).append((key, value))
        for shard in sorted(groups):
            self._apply(shard, groups[shard])

    def _apply(
        self, shard: int, ops: list[tuple[bytes, bytes | None]]
    ) -> None:
        with self._shard_locks[shard]:
            store = self._stores[shard]
            if len(ops) == 1:
                key, value = ops[0]
                if value is TOMBSTONE:
                    store.delete(key)
                else:
                    store.put(key, value)
            else:
                store.write_batch(ops)
            mirror = self._mirrors.get(shard)
            if mirror is not None:
                # Dual-write: the migration target sees every mutation
                # that lands after it attached (rebalance.py relies on
                # newest-wins to make its paged copy safe).
                for key, value in ops:
                    if value is TOMBSTONE:
                        mirror.delete(key)
                    else:
                        mirror.put(key, value)

    # -- reads -----------------------------------------------------------

    def get(self, key: bytes) -> bytes | None:
        """Point lookup on the owning shard."""
        return self._stores[self.shard_for(key)].get(key)

    def multi_get(self, keys: list[bytes]) -> dict[bytes, bytes | None]:
        """Batched point lookups, grouped per shard."""
        return {key: self.get(key) for key in keys}

    def scan(
        self,
        lo: bytes | None = None,
        hi: bytes | None = None,
        limit: int | None = None,
    ) -> Iterator[tuple[bytes, bytes]]:
        """Ordered scan over ``[lo, hi)``: scatter + merge every shard.

        Hash partitioning gives every shard a slice of any key range, so
        the scan must visit all of them; per-shard results are already
        ordered and keys are disjoint across shards, so a heap merge
        restores the global order.
        """
        sources = [store.scan(lo, hi, limit) for store in self._stores]
        return islice(heapq.merge(*sources, key=itemgetter(0)), limit)

    # -- shared-budget maintenance ---------------------------------------

    def _backlog(self, stats: StoreStats, memtable_target: int) -> float:
        """Bytes-scale proxy for one shard's outstanding maintenance.

        Sealed memtables await flushes; consumed component budget
        (``1 - write_headroom``) stands in for remaining merge input,
        scaled to the same order of magnitude. Uses the shard's *live*
        memtable target — the memory arbiter moves it — so a shard with
        a big write budget is credited with proportionally more debt
        per sealed memtable.
        """
        flush_debt = stats.sealed_memtables * memtable_target
        merge_debt = (
            (1.0 - max(0.0, min(stats.write_headroom, 1.0)))
            * 8.0
            * memtable_target
        )
        return flush_debt + merge_debt

    def pump(self, rounds: int = 1) -> dict[int, int]:
        """Spend the shared maintenance budget across needy shards.

        Each round gathers per-shard backlogs, lets the arbiter
        (:class:`FairScheduler` or :class:`GreedyScheduler`) split the
        pump budget, and spends each shard's slice as
        ``advance_maintenance()`` calls on that shard's engine. Returns
        the total pumps applied per shard (for tests and reporting).

        Shards running background maintenance workers make their own
        progress, so the pump is a no-op for them — arbitrating a shared
        budget the workers ignore would just misreport who did the work.
        """
        if rounds < 1:
            raise ConfigurationError("pump rounds must be positive")
        if self._options.background_maintenance:
            return {}
        applied: dict[int, int] = {}
        for _ in range(rounds):
            backlogs = {
                shard: self._backlog(
                    store.stats(), store.memtable_target_bytes
                )
                for shard, store in enumerate(self._stores)
            }
            needy = {
                shard: backlog
                for shard, backlog in backlogs.items()
                if backlog > 0.0
            }
            if not needy:
                break
            descriptors = [
                MergeDescriptor(
                    uid=shard,
                    inputs=[
                        Component(
                            uid=shard,
                            level=0,
                            size_bytes=backlog,
                            entry_count=1.0,
                        )
                    ],
                    target_level=1,
                    reason="cluster-maintenance",
                )
                for shard, backlog in sorted(needy.items())
            ]
            allocation = self._arbiter.allocate(
                descriptors, float(self._pump_budget)
            )
            for shard, pumps in sorted(
                _apportion(allocation, self._pump_budget).items()
            ):
                with self._shard_locks[shard]:
                    for _ in range(pumps):
                        self._stores[shard].advance_maintenance()
                applied[shard] = applied.get(shard, 0) + pumps
        return applied

    def maintenance(self) -> None:
        """Run every shard's maintenance to quiescence."""
        for shard, store in enumerate(self._stores):
            with self._shard_locks[shard]:
                store.maintenance()

    # -- adaptive memory arbitration -------------------------------------

    def enable_memory_arbiter(
        self,
        total_bytes: int,
        *,
        obs: Observability | None = None,
        **arbiter_kwargs,
    ) -> MemoryArbiter:
        """Put every shard's memory under one adaptive budget.

        Builds a :class:`~repro.memory.MemoryBudget` of ``total_bytes``
        over the shard engines and a :class:`~repro.memory.MemoryArbiter`
        that re-splits it from observed signals. The initial equal-share
        split is applied immediately; afterwards the owner drives the
        control loop — a serving tier ticks ``arbiter.maybe_tick`` on a
        timer, a bench calls :meth:`rebalance_memory` inline. Extra
        keyword arguments pass through to the arbiter (clock, interval,
        step sizes) so tests stay deterministic.
        """
        if self._memory_arbiter is not None:
            raise ConfigurationError(
                "memory arbiter already enabled for this store"
            )
        budget = MemoryBudget(total_bytes, self.num_shards)
        self._memory_arbiter = MemoryArbiter(
            budget, self._stores, obs=obs, **arbiter_kwargs
        )
        return self._memory_arbiter

    @property
    def memory_arbiter(self) -> MemoryArbiter | None:
        """The adaptive memory arbiter, if one was enabled."""
        return self._memory_arbiter

    def rebalance_memory(self):
        """Force one arbiter tick (benches, tests, admin endpoints)."""
        if self._memory_arbiter is None:
            raise ConfigurationError(
                "no memory arbiter enabled for this store"
            )
        return self._memory_arbiter.tick()

    # -- migration hooks (driven by repro.cluster.rebalance) -------------

    def attach_mirror(self, shard: int, mirror: LSMStore) -> None:
        """Start dual-writing ``shard``'s mutations into ``mirror``."""
        with self._shard_locks[shard]:
            if shard in self._mirrors:
                raise ConfigurationError(
                    f"shard {shard} already has a migration in flight"
                )
            self._mirrors[shard] = mirror

    def mirror_of(self, shard: int) -> LSMStore | None:
        """The in-flight migration target for ``shard``, if any."""
        return self._mirrors.get(shard)

    def shard_lock(self, shard: int) -> threading.RLock:
        """The lock serializing writes (and cutover) on one shard."""
        return self._shard_locks[shard]

    def promote_mirror(self, shard: int) -> LSMStore:
        """Cut over: the mirror becomes the shard's primary engine.

        Returns the *old* engine; the caller (rebalance) closes it once
        it has finished verifying.
        """
        with self._shard_locks[shard]:
            mirror = self._mirrors.pop(shard, None)
            if mirror is None:
                raise ConfigurationError(
                    f"shard {shard} has no migration in flight"
                )
            old = self._stores[shard]
            self._stores[shard] = mirror
            return old

    def abandon_mirror(self, shard: int) -> LSMStore | None:
        """Drop an in-flight migration target without cutting over."""
        with self._shard_locks[shard]:
            return self._mirrors.pop(shard, None)

    # -- introspection ---------------------------------------------------

    def stats_list(self) -> list[StoreStats]:
        """Per-shard engine snapshots, index-aligned with shard ids."""
        return [store.stats() for store in self._stores]

    def stats(self) -> ClusterStats:
        """Aggregated cluster snapshot (per-shard + rollups)."""
        return aggregate_stats(self.stats_list())

    @property
    def directory(self) -> str:
        """The cluster's root data directory."""
        return self._directory

    def __repr__(self) -> str:
        return (
            f"ShardedStore(shards={self.num_shards}, "
            f"arbiter={self._arbiter_name!r}, dir={self._directory!r})"
        )
