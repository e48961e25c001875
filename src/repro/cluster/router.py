"""The cluster front-end: one framed endpoint over N shard servers.

:class:`ClusterRouter` speaks the same wire protocol as a single
:class:`~repro.server.KVServer` (clients cannot tell the difference) and
fans requests out to per-shard backends through pooled, retrying
:class:`~repro.server.KVClient` connections:

* ``PUT`` / ``DEL`` route by the consistent-hash ring; every write first
  passes the cluster admission layer
  (:class:`~repro.cluster.admission.ClusterAdmission`), which decides
  whether one stalled shard backpressures the whole cluster (``global``)
  or only its own key range (``local``).
* ``BATCH`` splits into per-shard sub-batches applied concurrently —
  atomic within a shard, not across shards.
* ``SCAN`` scatter-gathers every shard (hash partitioning gives each a
  slice of any range) and heap-merges the ordered, disjoint streams.
* ``STATS`` aggregates per-shard engine snapshots into the cluster
  rollup plus the router's own counters.

Per-shard transport failures and backend ``STALLED`` responses are
retried by the shard clients with exponential backoff, so transient
backend stalls are absorbed inside the router rather than surfaced.
The router never drives maintenance: a shard it can shed writes from
runs its own workers (:func:`~repro.server.service.require_workers`).

:class:`LocalCluster` is the in-process deployment used by the CLI,
tests, and examples: one :class:`~repro.cluster.sharded.ShardedStore`,
one backend :class:`KVServer` per shard engine, and a router wired with
a direct (deterministic) stats hook.
"""

from __future__ import annotations

import asyncio
import heapq
from itertools import islice
from operator import itemgetter
from typing import Callable, Sequence

from ..engine.datastore import StoreStats
from ..engine.options import StoreOptions
from ..errors import (
    ConfigurationError,
    RequestFailedError,
    RetriesExhaustedError,
    ServerError,
    ShardDownError,
)
from ..memory import MemoryBudget
from ..obs import (
    Event,
    Observability,
    merge_events,
    merge_snapshots,
    relabel_snapshot,
)
from ..obs import events as obs_events
from ..replication.policy import validate_ack_policy
from ..server import binproto, protocol
from ..server.admission import ADMIT, REJECT, AdmissionDecision
from ..server.client import KVClient
from ..server.service import (
    FramedServer,
    KVServer,
    ServingCounters,
    require_workers,
)
from .admission import ClusterAdmission
from .breaker import OPEN, CircuitBreaker
from .ring import HashRing
from .sharded import ShardedStore
from .stats import aggregate_stats

#: Default per-shard client tuning: patient enough to absorb transient
#: backend stalls, fast enough that retries stay cheaper than the stall.
DEFAULT_SHARD_CLIENT_OPTIONS = dict(
    pool_size=2,
    timeout=5.0,
    max_retries=8,
    backoff_base=0.02,
    backoff_max=0.2,
)


class ClusterRouter(FramedServer):
    """Route the framed KV protocol across per-shard KV backends."""

    def __init__(
        self,
        backends: Sequence[tuple[str, int]],
        stats_fn: Callable[[], Sequence[StoreStats]],
        ring: HashRing | None = None,
        admission: ClusterAdmission | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        shard_client_options: dict | None = None,
        breaker_options: dict | None = None,
        metrics_port: int | None = None,
        replica_backends: Sequence[Sequence[tuple[str, int]]] | None = None,
        read_from_replica: bool = False,
        obs: Observability | None = None,
        memory_arbiter=None,
    ) -> None:
        if not backends:
            raise ConfigurationError("a cluster needs at least one backend")
        if replica_backends is not None and len(replica_backends) != len(
            backends
        ):
            raise ConfigurationError(
                "replica_backends must list one follower set per shard"
            )
        super().__init__(host, port, metrics_port=metrics_port)
        # A caller may share its bundle (LocalCluster hands the memory
        # arbiter the same one) so arbiter events surface through the
        # router's EVENTS verb alongside its own.
        self.obs = obs if obs is not None else Observability()
        registry = self.obs.registry
        self.metrics = ServingCounters(
            registry, "router", "Router",
            "requests_total reads_total scans_total writes_admitted "
            "writes_delayed writes_rejected delay_seconds_total "
            "protocol_errors connections_total shard_down_rejections "
            "degraded_scans",
            shard_outcomes=("admitted", "rejected", "delayed"),
        )
        self._promotions = registry.counter(
            "router_promotions_total",
            help="Follower-to-leader promotions performed on failover.",
        )
        self._breaker_trips = [
            registry.counter(
                "router_breaker_trips_total",
                labels={"shard": str(shard)},
                help="Circuit-breaker trips (closed/half-open to open).",
            )
            for shard in range(len(backends))
        ]
        if memory_arbiter is not None:
            self.attach_ticker(
                memory_arbiter.maybe_tick, memory_arbiter.interval
            )
        self._backends = list(backends)
        self._ring = ring or HashRing(len(backends))
        if self._ring.num_shards != len(backends):
            raise ConfigurationError(
                f"ring routes to {self._ring.num_shards} shards but "
                f"{len(backends)} backends were given"
            )
        self._admission = admission or ClusterAdmission(
            "local", "none", len(backends)
        )
        self._admission.require_shards(len(backends))
        self._stats_fn = stats_fn
        options = dict(
            DEFAULT_SHARD_CLIENT_OPTIONS, **(shard_client_options or {})
        )
        self._clients = []
        for index, (backend_host, backend_port) in enumerate(
            self._backends
        ):
            per_shard = dict(options)
            # Deterministic but distinct jitter streams per shard: the
            # whole point of jitter is that the pools don't retry in
            # lock-step against a recovering backend.
            per_shard.setdefault("jitter_seed", index)
            self._clients.append(
                KVClient(backend_host, backend_port, **per_shard)
            )
        self.breakers = [
            CircuitBreaker(
                **(breaker_options or {}),
                on_transition=self._breaker_listener(index),
            )
            for index in range(len(self._backends))
        ]
        self._shard_client_base = options
        self._read_from_replica = read_from_replica
        self._replica_backends: list[list[tuple[str, int]]] = [
            list(group) for group in (replica_backends or [])
        ] or [[] for _ in self._backends]
        self._replica_clients: list[list[KVClient]] = []
        for shard, group in enumerate(self._replica_backends):
            self._replica_clients.append(
                [
                    KVClient(
                        replica_host,
                        replica_port,
                        **dict(options, jitter_seed=1000 + shard),
                    )
                    for replica_host, replica_port in group
                ]
            )
        if read_from_replica and not any(self._replica_backends):
            raise ConfigurationError(
                "read_from_replica needs at least one follower"
            )
        self._epochs = [0 for _ in self._backends]
        self._promotion_tasks: dict[int, asyncio.Task] = {}

    @property
    def num_shards(self) -> int:
        """How many shard backends the router fans out to."""
        return len(self._backends)

    @property
    def ring(self) -> HashRing:
        """The key-routing ring (shared with the sharded store)."""
        return self._ring

    @property
    def admission(self) -> ClusterAdmission:
        """The cluster admission layer."""
        return self._admission

    @property
    def promotions(self) -> int:
        """Follower-to-leader promotions performed on failover."""
        return int(self._promotions.value)

    def _breaker_listener(self, shard: int):
        """A per-shard callback tracing breaker state changes.

        An open breaker on a shard with followers is the failover
        trigger: detection (PR 3) turns into survival by promoting the
        most-caught-up follower instead of waiting out the cooldown.
        """

        def on_transition(old: str, new: str) -> None:
            self.obs.tracer.emit(
                obs_events.BREAKER, shard=shard, old=old, new=new
            )
            if new == OPEN:
                self._breaker_trips[shard].inc()
                self._schedule_promotion(shard)

        return on_transition

    # -- failover ---------------------------------------------------------

    def _schedule_promotion(self, shard: int) -> None:
        """Kick off a promotion task for ``shard`` (at most one at a time).

        Breaker transitions can fire outside a running event loop (unit
        tests driving breakers directly); without a loop there is no one
        to promote, so the trigger is silently skipped.
        """
        if not self._replica_clients[shard]:
            return
        existing = self._promotion_tasks.get(shard)
        if existing is not None and not existing.done():
            return
        try:
            loop = asyncio.get_running_loop()
        except RuntimeError:
            return
        self._promotion_tasks[shard] = loop.create_task(
            self._promote_shard(shard), name=f"promote-shard-{shard}"
        )

    async def _promote_shard(self, shard: int) -> None:
        """Promote the most-caught-up follower to shard leader.

        Every follower is probed for its replication cursor; the one
        with the highest ``(epoch, applied)`` — followers of one leader
        count LSNs of the same log, so that is the most acked writes —
        wins, which is exactly what makes the zero-lost-acked guarantee
        hold under ``quorum``: any acked write reached a majority, and
        the majority's maximum cursor contains it. The survivors are
        handed to the new leader to re-attach, the router's shard
        client is swapped, and the breaker is reset so traffic flows
        immediately.
        """
        followers = self._replica_clients[shard]
        statuses = await asyncio.gather(
            *(client.replica_status() for client in followers),
            return_exceptions=True,
        )
        candidates = [
            (status["epoch"], status["applied"], index)
            for index, status in enumerate(statuses)
            if not isinstance(status, BaseException)
        ]
        if not candidates:
            # No follower answered either; leave the breaker cooling
            # down — a later open transition retries the promotion.
            return
        _epoch, _applied, winner = max(candidates)
        epoch = self._epochs[shard] + 1
        peers = [
            address
            for index, address in enumerate(self._replica_backends[shard])
            if index != winner
        ]
        try:
            await followers[winner].promote(epoch, peers)
        except ServerError:
            return  # promotion failed; breaker stays open, retried later
        new_leader = self._replica_backends[shard][winner]
        promoted_client = followers.pop(winner)
        self._replica_backends[shard] = peers
        old_client = self._clients[shard]
        self._backends[shard] = new_leader
        self._clients[shard] = KVClient(
            *new_leader,
            **dict(self._shard_client_base, jitter_seed=shard),
        )
        await promoted_client.aclose()
        await old_client.aclose()
        self._epochs[shard] = epoch
        self._promotions.inc()
        self.breakers[shard].reset()
        self.obs.tracer.emit(
            obs_events.REPLICA_PROMOTE,
            shard=shard,
            epoch=epoch,
            survivors=len(peers),
        )

    def shard_retries(self) -> int:
        """Total backend retries absorbed inside the router."""
        return sum(
            client.telemetry.retries_total for client in self._clients
        )

    async def aclose(self) -> None:
        """Stop serving and close every shard and replica client."""
        for task in self._promotion_tasks.values():
            task.cancel()
        if self._promotion_tasks:
            await asyncio.gather(
                *self._promotion_tasks.values(), return_exceptions=True
            )
            self._promotion_tasks = {}
        await super().aclose()
        for client in self._clients:
            await client.aclose()
        for group in self._replica_clients:
            for client in group:
                await client.aclose()

    # -- cluster state ----------------------------------------------------

    def _snapshots(self) -> list[StoreStats]:
        """Per-shard engine snapshots, read in process: each is one
        bounded hold of a shard's store lock, so it is taken right here
        on the loop thread, as a shard server's own admission does."""
        return list(self._stats_fn())

    # -- shard health -----------------------------------------------------

    def shard_health(self) -> dict[str, str]:
        """Per-shard breaker state (``closed``/``open``/``half_open``)."""
        return {
            str(shard): breaker.state
            for shard, breaker in enumerate(self.breakers)
        }

    @property
    def epochs(self) -> list[int]:
        """Current leadership epoch per shard (0 = never failed over)."""
        return list(self._epochs)

    async def _shard_request(self, shard: int, message: dict) -> dict:
        """One backend request, guarded and scored by the shard breaker.

        Raises :class:`~repro.errors.ShardDownError` without touching
        the network when the breaker is open. Transport-dead outcomes
        (the shard client exhausted its retries against an unreachable
        backend) count as breaker failures; an answering backend —
        including one answering ``STALLED`` — counts as alive.
        """
        breaker = self.breakers[shard]
        if not breaker.allow():
            raise ShardDownError(
                shard,
                "circuit breaker open",
                retry_after=breaker.retry_after() or 0.05,
            )
        try:
            response = await self._clients[shard].request(message)
        except RequestFailedError:
            # The backend answered, just unhappily: it is alive.
            breaker.record_success()
            raise
        except RetriesExhaustedError as error:
            if isinstance(error.last_error, RequestFailedError):
                # Every attempt got a STALLED response — slow, not dead.
                breaker.record_success()
                raise
            breaker.record_failure()
            raise ShardDownError(
                shard,
                f"unreachable: {error.last_error or error}",
                retry_after=breaker.retry_after() or 0.05,
            ) from error
        except (ConnectionError, OSError, asyncio.TimeoutError) as error:
            breaker.record_failure()
            raise ShardDownError(
                shard,
                f"unreachable: {error}",
                retry_after=breaker.retry_after() or 0.05,
            ) from error
        breaker.record_success()
        return response

    # -- the admission + forwarding pipeline ------------------------------

    async def _admitted_forward(
        self,
        nbytes_by_shard: dict[int, int],
        forward,
    ) -> dict:
        """Run one write through cluster admission, then forward it.

        ``forward`` is an async callable performing the actual backend
        request(s) once the write is admitted. Backend ``STALLED``
        responses that outlive the shard client's retry budget surface
        to the caller as a ``STALLED`` rejection.

        The request's latency ``breakdown`` at this tier carries the
        *cluster* admission wait as its ``admission`` leg; the engine
        and I/O legs are recorded where they happen, in each shard's own
        histograms, and ``total``/``queue`` are filled in by this tier's
        dispatch, so they reflect the router — the outermost tier a
        client talks to.
        """
        admission_wait = 0.0
        nbytes = sum(nbytes_by_shard.values())

        def with_legs(response: dict) -> dict:
            response["breakdown"] = {
                "admission": admission_wait, "engine": 0.0, "io": 0.0,
            }
            return response

        if self._admission.base_mode == "none":
            # It admits whatever the shards report, so they are not
            # asked: a snapshot takes every shard's store lock.
            decision = AdmissionDecision(ADMIT)
        else:
            decision = self._admission.decide_many(
                nbytes_by_shard, self._snapshots()
            )
        if decision.action == REJECT:
            self.metrics.count_shards("rejected", nbytes_by_shard)
            self.obs.tracer.emit(
                obs_events.ADMISSION,
                action="reject",
                reason=decision.reason,
                nbytes=nbytes,
                shards=sorted(nbytes_by_shard),
            )
            return with_legs(protocol.error_response(
                protocol.CODE_STALLED,
                decision.reason,
                retry_after=decision.retry_after,
            ))
        if decision.delay_seconds > 0.0:
            self.metrics.count_shards(
                "delayed", nbytes_by_shard, decision.delay_seconds
            )
            self.obs.tracer.emit(
                obs_events.ADMISSION,
                action="delay",
                seconds=decision.delay_seconds,
                nbytes=nbytes,
                shards=sorted(nbytes_by_shard),
            )
            admission_wait += decision.delay_seconds
            await asyncio.sleep(decision.delay_seconds)
        try:
            response = await forward()
        except ShardDownError as error:
            # Fail fast with an honest cooldown hint instead of hanging
            # the write through N doomed transport retries.
            self.metrics.shard_down_rejections.inc()
            self.metrics.count_shards("rejected", nbytes_by_shard)
            return with_legs(protocol.error_response(
                protocol.CODE_SHARD_DOWN,
                str(error),
                retry_after=error.retry_after,
            ))
        except RequestFailedError as error:
            self.metrics.count_shards("rejected", nbytes_by_shard)
            return with_legs(protocol.error_response(
                error.code, str(error), retry_after=error.retry_after
            ))
        except ServerError as error:
            self.metrics.count_shards("rejected", nbytes_by_shard)
            return with_legs(protocol.error_response(
                protocol.CODE_STALLED,
                f"shard retries exhausted: {error}",
                retry_after=self._admission.retry_after,
            ))
        self.metrics.count_shards("admitted", nbytes_by_shard)
        return with_legs(response)

    # -- verbs ------------------------------------------------------------

    async def _op_put(self, message: dict) -> dict:
        key = protocol.request_key(message)
        value = protocol.request_value(message)
        shard = self._ring.shard_for(key)

        async def forward() -> dict:
            return await self._shard_request(shard, message)

        return await self._admitted_forward(
            {shard: len(key) + len(value)}, forward
        )

    async def _op_del(self, message: dict) -> dict:
        key = protocol.request_key(message)
        shard = self._ring.shard_for(key)

        async def forward() -> dict:
            return await self._shard_request(shard, message)

        return await self._admitted_forward({shard: len(key)}, forward)

    async def _op_batch(self, message: dict) -> dict:
        ops = protocol.batch_ops(message)
        groups: dict[int, list[tuple[bytes, bytes | None]]] = {}
        nbytes_by_shard: dict[int, int] = {}
        for key, value in ops:
            shard = self._ring.shard_for(key)
            groups.setdefault(shard, []).append((key, value))
            nbytes_by_shard[shard] = nbytes_by_shard.get(shard, 0) + (
                len(key) + (0 if value is None else len(value))
            )

        async def forward() -> dict:
            # A shard already cooling down fails the whole batch before
            # any sub-batch is sent, so a breaker-open shard cannot
            # cause avoidable partial application.
            for shard in sorted(groups):
                breaker = self.breakers[shard]
                if breaker.state == OPEN:
                    raise ShardDownError(
                        shard,
                        "circuit breaker open",
                        retry_after=breaker.retry_after() or 0.05,
                    )
            await asyncio.gather(
                *(
                    self._shard_request(
                        shard, protocol.batch_request(groups[shard])
                    )
                    for shard in sorted(groups)
                )
            )
            return protocol.ok_response(count=len(ops))

        return await self._admitted_forward(nbytes_by_shard, forward)

    async def _op_get(self, message: dict) -> dict:
        key = protocol.request_key(message)
        self.metrics.reads_total.inc()
        try:
            return await self._shard_request(
                self._ring.shard_for(key), message
            )
        except ShardDownError as error:
            self.metrics.shard_down_rejections.inc()
            return protocol.error_response(
                protocol.CODE_SHARD_DOWN,
                str(error),
                retry_after=error.retry_after,
            )
        except RequestFailedError as error:
            return protocol.error_response(
                error.code, str(error), retry_after=error.retry_after
            )
        except ServerError as error:
            return protocol.error_response(
                protocol.CODE_INTERNAL, f"shard read failed: {error}"
            )

    async def _scan_shard(
        self, shard: int, request: dict
    ) -> tuple[list[tuple[bytes, bytes]], bool, int]:
        """One shard's slice of a scan: ``(items, replica_read, staleness)``.

        With ``read_from_replica`` the scan is served by the shard's
        first answering follower — cheaper for the leader, stale by at
        most the follower's unapplied shipping backlog, which is
        reported so the caller can judge the trade. Followers that
        don't answer (or when the feature is off) fall back to the
        leader through the breaker-guarded path.
        """
        if self._read_from_replica:
            for client in self._replica_clients[shard]:
                try:
                    response = await client.request(request)
                except ServerError:
                    continue  # next follower, else the leader
                return (
                    response["items"],
                    bool(response.get("replica_read", False)),
                    int(response.get("staleness_bytes", 0)),
                )
        response = await self._shard_request(shard, request)
        return response["items"], False, 0

    async def _op_scan(self, message: dict) -> dict:
        lo, hi, limit = protocol.scan_bounds(message)
        self.metrics.reads_total.inc()
        self.metrics.scans_total.inc()
        request = protocol.scan_request(lo, hi, limit)
        results = await asyncio.gather(
            *(self._scan_shard(i, request) for i in range(self.num_shards)),
            return_exceptions=True,
        )
        per_shard: list[list[tuple[bytes, bytes]]] = []
        missing: list[int] = []
        replica_read = False
        staleness_bytes = 0
        for shard, result in enumerate(results):
            if isinstance(result, BaseException):
                if not isinstance(result, ServerError):
                    raise result  # programming error, not a dead shard
                if (
                    isinstance(result, RequestFailedError)
                    and result.code == protocol.CODE_BAD_REQUEST
                ):
                    # The request is at fault, not the shard (a scan
                    # too large to frame, say): refuse it, not a slice.
                    return protocol.error_response(result.code, str(result))
                missing.append(shard)
            else:
                shard_items, from_replica, staleness = result
                per_shard.append(shard_items)
                replica_read = replica_read or from_replica
                staleness_bytes = max(staleness_bytes, staleness)
        if missing:
            # Partial answer over the surviving shards, honestly
            # labelled, instead of failing every range read because one
            # hash slice is dark.
            self.metrics.degraded_scans.inc()
        items = list(islice(heapq.merge(*per_shard, key=itemgetter(0)), limit))
        return protocol.ok_response(
            items=items,
            degraded=bool(missing),
            missing_shards=missing,
            replica_read=replica_read,
            staleness_bytes=staleness_bytes,
        )

    # -- observability -----------------------------------------------------

    async def metrics_snapshot(self) -> dict:
        """Cluster-wide metrics: router tier plus every live shard.

        Each shard's registry snapshot is relabelled (``tier="shard"``,
        ``shard="N"``) and merged bucket-by-bucket with the router's own
        (``tier="router"``), so percentiles read from the merged
        histograms are correct — never per-shard percentiles summed.
        A dead shard is simply absent from the scrape.
        """
        responses = await asyncio.gather(
            *(
                self._shard_request(shard, protocol.metrics_request())
                for shard in range(len(self._clients))
            ),
            return_exceptions=True,
        )
        for shard, breaker in enumerate(self.breakers):
            self.obs.registry.gauge(
                "router_breaker_open",
                labels={"shard": str(shard)},
                help="1 when the shard's breaker is open, else 0.",
            ).set(1.0 if breaker.state == OPEN else 0.0)
        snapshots = [
            relabel_snapshot(self.obs.registry.snapshot(), {"tier": "router"})
        ]
        for shard, response in enumerate(responses):
            if isinstance(response, BaseException):
                if not isinstance(response, ServerError):
                    raise response
                continue  # dark shard: report the survivors
            snapshots.append(
                relabel_snapshot(
                    response.get("metrics", {}),
                    {"tier": "shard", "shard": str(shard)},
                )
            )
        return merge_snapshots(snapshots)

    async def events_since(self, since: int, limit: int | None) -> list:
        """Cluster-wide event view: shard rings merged with the router's.

        ``since`` applies per source ring (sequence numbers are local to
        each tracer); every shard event gains a ``shard`` field, and the
        merged stream is time-ordered, keeping the most recent ``limit``
        events. Dead shards contribute nothing rather than failing the
        read.
        """
        responses = await asyncio.gather(
            *(
                self._shard_request(
                    shard, protocol.events_request(since, limit)
                )
                for shard in range(len(self._clients))
            ),
            return_exceptions=True,
        )
        streams = [self.obs.tracer.events(since, limit)]
        for shard, response in enumerate(responses):
            if isinstance(response, BaseException):
                if not isinstance(response, ServerError):
                    raise response
                continue
            stream = []
            for wire in response.get("events", []):
                event = Event.from_wire(wire)
                stream.append(
                    Event(
                        seq=event.seq,
                        timestamp=event.timestamp,
                        kind=event.kind,
                        fields=dict(event.fields, shard=shard),
                    )
                )
            streams.append(stream)
        return merge_events(streams, limit)

    async def _op_stats(self, message: dict) -> dict:
        cluster = aggregate_stats(self._snapshots())
        router_view = self.metrics.snapshot()
        router_view["shard_health"] = self.shard_health()
        router_view["breaker_trips"] = sum(
            int(trips.value) for trips in self._breaker_trips
        )
        router_view["promotions"] = self.promotions
        router_view["shard_epochs"] = {
            str(shard): epoch for shard, epoch in enumerate(self._epochs)
        }
        router_view["replicas_per_shard"] = {
            str(shard): len(group)
            for shard, group in enumerate(self._replica_backends)
        }
        router_view["read_from_replica"] = self._read_from_replica
        return protocol.ok_response(
            cluster=cluster.snapshot(),
            router=router_view,
            admission_mode=self._admission.mode,
        )


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
        self._admission = admission
        self._host = host
        self._port = port
        self._shard_client_options = shard_client_options
        self._breaker_options = breaker_options
        self._metrics_port = metrics_port
        self._replicas = replicas
        self._ack_policy = ack_policy
        self._read_from_replica = read_from_replica
        self._replication_timeout = replication_timeout
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
        import os

        from ..engine.datastore import LSMStore
        from ..replication import (
            DEFAULT_REPLICATION_TIMEOUT,
            ReplicatedKVServer,
        )

        timeout = self._replication_timeout or DEFAULT_REPLICATION_TIMEOUT
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
                store,
                host=self._host,
                port=0,
                role="follower",
                ack_policy=self._ack_policy,
                replication_timeout=timeout,
            )
            await follower.start()
            followers.append(follower)
        leader = ReplicatedKVServer(
            engine,
            host=self._host,
            port=0,
            role="leader",
            ack_policy=self._ack_policy,
            replication_timeout=timeout,
            repair_interval=self._repair_interval,
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
                ring=self.store.ring,
                admission=self._admission,
                stats_fn=self.store.stats_list,
                host=self._host,
                port=self._port,
                shard_client_options=self._shard_client_options,
                breaker_options=self._breaker_options,
                metrics_port=self._metrics_port,
                replica_backends=[
                    [server.address for server in group]
                    for group in self.replica_servers
                ]
                if self._replicas > 0
                else None,
                read_from_replica=self._read_from_replica,
                obs=self._obs,
                memory_arbiter=self.memory_arbiter,
            )
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
