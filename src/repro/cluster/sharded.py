"""A multi-engine sharded store.

:class:`ShardedStore` owns one :class:`~repro.engine.LSMStore` per
shard (each in its own subdirectory) and routes keys through a
:class:`~repro.cluster.ring.HashRing`. Every shard drives its own
flushes and merges — on its maintenance workers, or inline in the
writes that reach it — so one shard's backlog is its own; the cluster's
admission scope (:mod:`repro.cluster.admission`) decides whether it
backpressures the others.

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

from ..engine.datastore import LSMStore, StoreStats
from ..engine.options import StoreOptions, TOMBSTONE
from ..errors import ConfigurationError
from ..memory import MemoryArbiter, MemoryBudget
from ..obs import Observability
from .ring import HashRing
from .stats import ClusterStats, aggregate_stats


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

    # -- maintenance -----------------------------------------------------

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
            f"dir={self._directory!r})"
        )
