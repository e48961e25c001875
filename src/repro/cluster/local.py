"""The one-process cluster: sharded engines, shard servers, a router.

:class:`LocalCluster` boots one :class:`~repro.server.KVServer` (or a
replica group) per engine of a :class:`~repro.cluster.ShardedStore`
and a :class:`~repro.cluster.ClusterRouter` over them, wired with a
direct stats hook; with a memory budget it ticks the arbiter.
"""

from __future__ import annotations

import os

from ..engine.datastore import LSMStore
from ..engine.options import StoreOptions
from ..errors import ConfigurationError
from ..memory import MemoryBudget
from ..obs import Observability
from ..replication import (
    DEFAULT_REPLICATION_TIMEOUT,
    ReplicatedKVServer,
    validate_ack_policy,
)
from ..server import binproto
from ..server.client import KVClient
from ..server.service import KVServer, require_workers
from .admission import ClusterAdmission
from .ring import HashRing
from .router import ClusterRouter
from .sharded import ShardedStore


class LocalCluster:
    """One process, full cluster: sharded store + backends + router.

    The deployment shape behind ``python -m repro cluster-serve``, the
    hot-shard example, and the integration tests: every shard engine is
    served by an in-process :class:`KVServer` on an ephemeral port, and
    the router reads shard stats through a *direct* hook into the
    sharded store (fresh snapshots) — the only way a router gets them.
    """

    def __init__(
        self,
        directory: str,
        num_shards: int = 4,
        options: StoreOptions | None = None,
        admission: ClusterAdmission | None = None,
        ring: HashRing | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        shard_client_options: dict | None = None,
        breaker_options: dict | None = None,
        metrics_port: int | None = None,
        replicas: int = 0,
        ack_policy: str = "leader_only",
        read_from_replica: bool = False,
        replication_timeout: float | None = None,
        memory_budget: int | None = None,
        memory_rebalance_interval: float = 1.0,
        repair_interval: float = 0.0,
        wire: str = "binary",
    ) -> None:
        binproto.require_binary(wire)
        if replicas < 0:
            raise ConfigurationError("replicas cannot be negative")
        validate_ack_policy(ack_policy)
        if repair_interval < 0:
            raise ConfigurationError("repair_interval cannot be negative")
        if read_from_replica and replicas == 0:
            raise ConfigurationError(
                "read_from_replica needs at least one replica per shard"
            )
        if memory_rebalance_interval <= 0:
            raise ConfigurationError(
                "memory rebalance interval must be positive"
            )
        if admission is not None:
            admission.require_shards(num_shards)
            require_workers(options or StoreOptions(), admission.base_mode)
        if memory_budget is not None:  # refused before any shard opens
            memory_budget = MemoryBudget(memory_budget, num_shards)
        self.store = ShardedStore(directory, num_shards, options, ring=ring)
        # The router and the memory arbiter share one bundle, so
        # memory_rebalance events ride the cluster EVENTS verb and the
        # arbiter's gauges land in the router-tier scrape.
        self._obs = Observability()
        self.memory_arbiter = None
        if memory_budget is not None:
            try:
                self.memory_arbiter = self.store.enable_memory_arbiter(
                    memory_budget, obs=self._obs,
                    interval=memory_rebalance_interval,
                )
            except BaseException:
                self.store.close()
                raise
        self._directory = directory
        self._options = options
        self._host = host
        # What start() hands the router beside the backends it boots.
        self._router_options = dict(
            admission=admission, host=host, port=port,
            shard_client_options=shard_client_options,
            breaker_options=breaker_options, metrics_port=metrics_port,
            read_from_replica=read_from_replica,
        )
        self._replicas = replicas
        # What start() hands every server of a replica group.
        self._replica_options = dict(
            host=host, port=0, ack_policy=ack_policy,
            replication_timeout=replication_timeout
            or DEFAULT_REPLICATION_TIMEOUT,
        )
        self._repair_interval = repair_interval
        self.backends: list[KVServer] = []
        self.replica_stores: list[list] = []
        self.replica_servers: list[list] = []
        self.router: ClusterRouter | None = None

    @property
    def replicas(self) -> int:
        """Followers per shard (0 = unreplicated single-copy shards)."""
        return self._replicas

    async def _start_replica_group(self, shard: int, engine) -> KVServer:
        """Boot one shard's replica group; returns the leader backend."""
        followers: list[KVServer] = []
        stores = []
        for index in range(self._replicas):
            store = LSMStore.open(
                os.path.join(
                    self._directory, f"replica-{shard:02d}-{index}"
                ),
                self._options,
            )
            stores.append(store)
            follower = ReplicatedKVServer(
                store, role="follower", **self._replica_options
            )
            await follower.start()
            followers.append(follower)
        leader = ReplicatedKVServer(
            engine,
            role="leader",
            repair_interval=self._repair_interval,
            **self._replica_options,
        )
        await leader.start()
        await leader.become_leader(
            0,
            [
                KVClient(*follower.address, pool_size=1, max_retries=1)
                for follower in followers
            ],
        )
        self.replica_stores.append(stores)
        self.replica_servers.append(followers)
        return leader

    async def start(self) -> tuple[str, int]:
        """Boot backends (and replica groups) and the router."""
        try:
            for shard, engine in enumerate(self.store.engines()):
                if self._replicas > 0:
                    backend = await self._start_replica_group(shard, engine)
                else:
                    backend = KVServer(engine, host=self._host, port=0)
                    await backend.start()
                self.backends.append(backend)
            self.router = ClusterRouter(
                backends=[backend.address for backend in self.backends],
                stats_fn=self.store.stats_list,
                ring=self.store.ring,
                replica_backends=[
                    [server.address for server in group]
                    for group in self.replica_servers
                ] or None,
                obs=self._obs,
                **self._router_options,
            )
            arbiter = self.memory_arbiter
            if arbiter is not None:  # its own clock decides if a tick runs
                self.router.attach_ticker(arbiter.maybe_tick, arbiter.interval)
            return await self.router.start()
        except BaseException:
            await self.aclose()
            raise

    @property
    def address(self) -> tuple[str, int]:
        """The router's bound (host, port); valid after :meth:`start`."""
        if self.router is None:
            raise ConfigurationError("cluster is not started")
        return self.router.address

    async def serve_forever(self) -> None:
        """Serve through the router until cancelled."""
        if self.router is None:
            await self.start()
        assert self.router is not None
        await self.router.serve_forever()

    # -- chaos hooks ------------------------------------------------------

    async def kill_shard(self, shard: int) -> None:
        """Stop one shard's backend server (the engine stays intact).

        Models a crashed/partitioned serving process: in-flight and
        future connections to the shard fail at the transport level
        until :meth:`restore_shard` rebinds the same address. Already-
        acked data is safe — the engine underneath is untouched.
        """
        if not 0 <= shard < len(self.backends):
            raise ConfigurationError(f"no such shard {shard}")
        await self.backends[shard].aclose()

    async def restore_shard(self, shard: int) -> None:
        """Bring a killed shard's backend server back on its old port.

        Only valid without replicas: in a replicated cluster the router
        promotes a follower when the leader dies, so rebinding the old
        leader's address would resurrect a deposed head behind the
        router's back (split-brain). Failed members of a replica group
        rejoin by being re-added as fresh followers, not restored.
        """
        if self._replicas > 0:
            raise ConfigurationError(
                "restore_shard is not supported with replicas; "
                "failover promotes a follower instead"
            )
        if not 0 <= shard < len(self.backends):
            raise ConfigurationError(f"no such shard {shard}")
        old = self.backends[shard]
        host, port = old.address
        backend = KVServer(self.store.engine(shard), host=host, port=port)
        await backend.start()
        self.backends[shard] = backend

    async def aclose(self) -> None:
        """Tear the whole stack down: router, backends, engines."""
        if self.router is not None:
            await self.router.aclose()
            self.router = None
        for backend in self.backends:
            await backend.aclose()
        self.backends = []
        for group in self.replica_servers:
            for server in group:
                await server.aclose()
        self.replica_servers = []
        for stores in self.replica_stores:
            for store in stores:
                store.close()
        self.replica_stores = []
        self.store.close()

    async def __aenter__(self) -> "LocalCluster":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()
