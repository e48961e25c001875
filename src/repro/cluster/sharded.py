"""The shard engines a cluster serves.

:class:`ShardedStore` owns one :class:`~repro.engine.LSMStore` per
shard (each in its own subdirectory) and the
:class:`~repro.cluster.ring.HashRing` that names a key's owner. It is
not a key-value front end: reads and writes go client →
:class:`~repro.cluster.router.ClusterRouter` → per-shard
:class:`~repro.server.KVServer` → engine, so every write passes cluster
admission. Every shard drives its own flushes and merges on its
maintenance worker, so one shard's backlog is its own; the cluster's
admission scope (:mod:`repro.cluster.admission`) decides whether it
backpressures the others.
"""

from __future__ import annotations

import os
from typing import Callable, Sequence

from ..engine.datastore import LSMStore, StoreStats
from ..engine.options import StoreOptions
from ..errors import ConfigurationError
from ..memory import MemoryArbiter, MemoryBudget
from ..obs import Observability
from .ring import HashRing


class ShardedStore:
    """N hash-partitioned LSM engines and the ring that maps keys to them."""

    def __init__(
        self,
        directory: str,
        num_shards: int = 4,
        options: StoreOptions | None = None,
        ring: HashRing | None = None,
    ) -> None:
        if num_shards < 1:
            raise ConfigurationError("need at least one shard")
        self._ring = ring or HashRing(num_shards)
        if self._ring.num_shards != num_shards:
            raise ConfigurationError(
                f"ring routes to {self._ring.num_shards} shards but the "
                f"store has {num_shards}"
            )
        self._directory = directory
        os.makedirs(directory, exist_ok=True)
        options = options or StoreOptions()
        stores: list[LSMStore] = []
        try:
            for shard in range(num_shards):
                stores.append(
                    LSMStore.open(self.shard_directory(shard), options)
                )
        except BaseException:
            for store in stores:
                store.close()
            raise
        self._stores = tuple(stores)
        self._memory_arbiter: MemoryArbiter | None = None
        self._closed = False

    def __enter__(self) -> "ShardedStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Close every shard engine."""
        if self._closed:
            return
        self._closed = True
        for store in self._stores:
            store.close()

    def shard_directory(self, shard: int) -> str:
        """The data directory of one shard's engine."""
        return os.path.join(self._directory, f"shard-{shard:02d}")

    @property
    def ring(self) -> HashRing:
        """The consistent-hash ring shared with the router."""
        return self._ring

    @property
    def num_shards(self) -> int:
        """How many shard engines the store owns."""
        return len(self._stores)

    def engine(self, shard: int) -> LSMStore:
        """One shard's engine (serving tier, tests)."""
        return self._stores[shard]

    def engines(self) -> Sequence[LSMStore]:
        """All shard engines, index-aligned with shard ids."""
        return self._stores

    def stats_list(self) -> list[StoreStats]:
        """Per-shard engine snapshots, index-aligned with shard ids."""
        return [store.stats() for store in self._stores]

    # -- adaptive memory arbitration -------------------------------------

    def enable_memory_arbiter(
        self,
        budget: int | MemoryBudget,
        *,
        obs: Observability | None = None,
        clock: Callable[[], float] | None = None,
        interval: float = 1.0,
    ) -> MemoryArbiter:
        """Put every shard's memory under one adaptive budget.

        ``budget`` is a :class:`~repro.memory.MemoryBudget` over the
        shard engines, or the total bytes to build one of; a
        :class:`~repro.memory.MemoryArbiter` moves it between memtables
        and caches from observed signals. The initial even split is
        applied immediately; afterwards the owner drives the loop — a
        serving tier ticks ``arbiter.maybe_tick`` every ``interval``
        seconds of ``clock``, a bench calls :meth:`rebalance_memory`.
        """
        if self._memory_arbiter is not None:
            raise ConfigurationError(
                "memory arbiter already enabled for this store"
            )
        if not isinstance(budget, MemoryBudget):
            budget = MemoryBudget(budget, self.num_shards)
        self._memory_arbiter = MemoryArbiter(
            budget, self._stores, obs=obs, clock=clock, interval=interval
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
