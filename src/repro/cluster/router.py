"""The cluster front-end: one framed endpoint over N shard servers.

:class:`ClusterRouter` speaks the same wire protocol as a single
:class:`~repro.server.KVServer` (clients cannot tell the difference) and
fans requests out to the shards through its
:class:`~repro.cluster.backends.ShardBackends`:

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
"""

from __future__ import annotations

import asyncio
import heapq
from functools import partial
from itertools import islice
from operator import itemgetter
from typing import Callable, Sequence

from ..engine.datastore import StoreStats
from ..errors import (
    ConfigurationError,
    RequestFailedError,
    ServerError,
    ShardDownError,
)
from ..obs import (
    Event,
    Observability,
    merge_events,
    merge_snapshots,
    relabel_snapshot,
)
from ..obs import events as obs_events
from ..server import protocol
from ..server.admission import ADMIT, REJECT, AdmissionDecision
from ..server.service import FramedServer, ServingCounters
from .admission import ClusterAdmission
from .backends import ShardBackends
from .ring import HashRing
from .stats import aggregate_stats


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
    ) -> None:
        if not backends:
            raise ConfigurationError("a cluster needs at least one backend")
        if replica_backends is not None and len(replica_backends) != len(
            backends
        ):
            raise ConfigurationError(
                "replica_backends must list one follower set per shard"
            )
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
        if read_from_replica and not any(replica_backends or []):
            raise ConfigurationError(
                "read_from_replica needs at least one follower"
            )
        super().__init__(host, port, metrics_port=metrics_port)
        self.obs = obs if obs is not None else Observability()
        self.metrics = ServingCounters(
            self.obs.registry, "router", "Router",
            "requests_total reads_total scans_total writes_admitted "
            "writes_delayed writes_rejected delay_seconds_total "
            "protocol_errors connections_total shard_down_rejections "
            "degraded_scans",
            shard_outcomes=("admitted", "rejected", "delayed"),
        )
        self.backends = ShardBackends(
            backends,
            self.obs,
            shard_client_options=shard_client_options,
            breaker_options=breaker_options,
            replica_backends=replica_backends,
            read_from_replica=read_from_replica,
        )
        self._stats_fn = stats_fn

    @property
    def num_shards(self) -> int:
        """How many shard backends the router fans out to."""
        return self._ring.num_shards

    @property
    def ring(self) -> HashRing:
        """The key-routing ring (shared with the sharded store)."""
        return self._ring

    @property
    def admission(self) -> ClusterAdmission:
        """The cluster admission layer."""
        return self._admission

    @property
    def breakers(self):
        """Each shard's :class:`~repro.cluster.breaker.CircuitBreaker`."""
        return self.backends.breakers

    @property
    def promotions(self) -> int:
        """Follower-to-leader promotions performed on failover."""
        return self.backends.promotions

    @property
    def epochs(self) -> list[int]:
        """Current leadership epoch per shard (0 = never failed over)."""
        return list(self.backends.epochs)

    def shard_health(self) -> dict[str, str]:
        """Per-shard breaker state (``closed``/``open``/``half_open``)."""
        return self.backends.shard_health()

    def shard_retries(self) -> int:
        """Total backend retries absorbed inside the router."""
        return self.backends.retries()

    async def aclose(self) -> None:
        """Stop serving and close every shard and replica client."""
        await super().aclose()
        await self.backends.aclose()

    # -- the admission + forwarding pipeline ------------------------------

    def _failure(self, error: ServerError, write: bool) -> dict:
        """The response to a shard request that raised ``error``.

        A dark shard answers ``SHARD_DOWN`` with its breaker's cooldown
        — failing fast instead of hanging the request through doomed
        transport retries — and a shard's own error code passes through.
        Anything else is retries exhausted: ``STALLED`` for a write,
        ``INTERNAL`` for a read.
        """
        if isinstance(error, ShardDownError):
            self.metrics.shard_down_rejections.inc()
            code = protocol.CODE_SHARD_DOWN
        elif isinstance(error, RequestFailedError):
            code = error.code
        elif write:
            return protocol.error_response(
                protocol.CODE_STALLED, f"shard retries exhausted: {error}",
                retry_after=self._admission.retry_after,
            )
        else:
            return protocol.error_response(
                protocol.CODE_INTERNAL, f"shard read failed: {error}"
            )
        return protocol.error_response(
            code, str(error), retry_after=error.retry_after
        )

    async def _admitted_forward(
        self,
        nbytes_by_shard: dict[int, int],
        forward,
    ) -> dict:
        """Run one write through cluster admission, then ``forward()``.

        The request's latency ``breakdown`` at this tier carries the
        *cluster* admission wait as its ``admission`` leg; the engine
        and I/O legs are recorded where they happen, in each shard's own
        histograms, and ``total``/``queue`` are filled in by this tier's
        dispatch, so they reflect the router — the outermost tier a
        client talks to.
        """
        if self._admission.base_mode == "none":
            # It admits whatever the shards report, so they are not
            # asked: a snapshot takes every shard's store lock.
            decision = AdmissionDecision(ADMIT)
        else:
            decision = self._admission.decide_many(
                nbytes_by_shard, self._stats_fn()
            )
        nbytes = sum(nbytes_by_shard.values())
        if decision.action == REJECT:
            self.metrics.count_shards("rejected", nbytes_by_shard)
            self.obs.tracer.emit(
                obs_events.ADMISSION,
                action="reject",
                reason=decision.reason,
                nbytes=nbytes,
                shards=sorted(nbytes_by_shard),
            )
            response = protocol.error_response(
                protocol.CODE_STALLED,
                decision.reason,
                retry_after=decision.retry_after,
            )
        else:
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
                await asyncio.sleep(decision.delay_seconds)
            try:
                response = await forward()
            except ServerError as error:
                self.metrics.count_shards("rejected", nbytes_by_shard)
                response = self._failure(error, write=True)
            else:
                self.metrics.count_shards("admitted", nbytes_by_shard)
        response["breakdown"] = {
            "admission": decision.delay_seconds, "engine": 0.0, "io": 0.0,
        }
        return response

    # -- verbs ------------------------------------------------------------

    async def _op_put(self, message: dict) -> dict:
        """PUT and DEL: one key, routed by the ring, through admission."""
        key = protocol.request_key(message)
        nbytes = len(key)
        if protocol.request_verb(message) == "PUT":
            nbytes += len(protocol.request_value(message))
        shard = self._ring.shard_for(key)
        return await self._admitted_forward(
            {shard: nbytes}, partial(self.backends.request, shard, message)
        )

    _op_del = _op_put

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
            self.backends.refuse_open(sorted(groups))
            await asyncio.gather(
                *(
                    self.backends.request(
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
            return await self.backends.request(
                self._ring.shard_for(key), message
            )
        except ServerError as error:
            return self._failure(error, write=False)

    async def _op_scan(self, message: dict) -> dict:
        lo, hi, limit = protocol.scan_bounds(message)
        self.metrics.reads_total.inc()
        self.metrics.scans_total.inc()
        request = protocol.scan_request(lo, hi, limit)
        results = await asyncio.gather(
            *(
                self.backends.scan(shard, request)
                for shard in range(self.num_shards)
            ),
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
        answered = await self.backends.gather(protocol.metrics_request())
        self.backends.shard_health()  # the router_breaker_open gauges
        snapshots = [
            relabel_snapshot(self.obs.registry.snapshot(), {"tier": "router"})
        ]
        for shard, response in answered:
            snapshots.append(relabel_snapshot(
                response.get("metrics", {}),
                {"tier": "shard", "shard": str(shard)},
            ))
        return merge_snapshots(snapshots)

    async def events_since(self, since: int, limit: int | None) -> list:
        """Cluster-wide event view: shard rings merged with the router's.

        ``since`` applies per source ring (sequence numbers are local to
        each tracer); every shard event gains a ``shard`` field, and the
        merged stream is time-ordered, keeping the most recent ``limit``
        events. Dead shards contribute nothing rather than failing the
        read.
        """
        answered = await self.backends.gather(
            protocol.events_request(since, limit)
        )
        streams = [self.obs.tracer.events(since, limit)]
        for shard, response in answered:
            streams.append([
                Event.from_wire(dict(
                    wire, fields=dict(wire.get("fields", {}), shard=shard)
                ))
                for wire in response.get("events", [])
            ])
        return merge_events(streams, limit)

    async def _op_stats(self, message: dict) -> dict:
        # Each per-shard snapshot is one bounded hold of a shard's store
        # lock, so it is taken right here on the loop thread, as a shard
        # server's own admission does.
        cluster = aggregate_stats(self._stats_fn())
        router_view = self.metrics.snapshot()
        router_view.update(self.backends.stats())
        return protocol.ok_response(
            cluster=cluster.snapshot(),
            router=router_view,
            admission_mode=self._admission.mode,
        )
