"""How the router reaches each shard: clients, breakers and failover.

:class:`ShardBackends` holds a pooled, retrying
:class:`~repro.server.KVClient` per shard leader and per follower, a
:class:`~repro.cluster.breaker.CircuitBreaker` and a leadership epoch
per shard. It reports through the :class:`~repro.obs.Observability`
bundle it is handed and holds nothing of the router above it.
"""

from __future__ import annotations

import asyncio
from functools import partial
from typing import Sequence

from ..errors import (
    RequestFailedError,
    RetriesExhaustedError,
    ServerError,
    ShardDownError,
)
from ..obs import Observability
from ..obs import events as obs_events
from ..server.client import KVClient
from .breaker import OPEN, CircuitBreaker

#: Default per-shard client tuning: patient enough to absorb transient
#: backend stalls, fast enough that retries stay cheaper than the stall.
DEFAULT_SHARD_CLIENT_OPTIONS = dict(
    pool_size=2,
    timeout=5.0,
    max_retries=8,
    backoff_base=0.02,
    backoff_max=0.2,
)


class ShardBackends:
    """Per-shard leader and follower clients, breakers and epochs."""

    def __init__(
        self,
        backends: Sequence[tuple[str, int]],
        obs: Observability,
        shard_client_options: dict | None = None,
        breaker_options: dict | None = None,
        replica_backends: Sequence[Sequence[tuple[str, int]]] | None = None,
        read_from_replica: bool = False,
    ) -> None:
        self._obs = obs
        registry = obs.registry
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
        self._options = dict(
            DEFAULT_SHARD_CLIENT_OPTIONS, **(shard_client_options or {})
        )
        self.addresses = list(backends)
        self._leaders = [
            self._leader_client(shard) for shard in range(len(backends))
        ]
        self.breakers = [
            CircuitBreaker(
                **(breaker_options or {}),
                on_transition=partial(self._on_transition, shard),
            )
            for shard in range(len(backends))
        ]
        self.read_from_replica = read_from_replica
        self.replica_addresses: list[list[tuple[str, int]]] = [
            list(group) for group in (replica_backends or [])
        ] or [[] for _ in backends]
        self._followers = [
            [
                KVClient(
                    *address, **dict(self._options, jitter_seed=1000 + shard)
                )
                for address in group
            ]
            for shard, group in enumerate(self.replica_addresses)
        ]
        self.epochs = [0 for _ in backends]
        self._promotion_tasks: dict[int, asyncio.Task] = {}

    def _leader_client(self, shard: int) -> KVClient:
        # Deterministic but distinct jitter streams per shard: the whole
        # point of jitter is that the pools don't retry in lock-step
        # against a recovering backend.
        return KVClient(
            *self.addresses[shard], **dict(self._options, jitter_seed=shard)
        )

    @property
    def promotions(self) -> int:
        """Follower-to-leader promotions performed on failover."""
        return int(self._promotions.value)

    def retries(self) -> int:
        """Total backend retries absorbed by the leader clients."""
        return sum(client.telemetry.retries_total for client in self._leaders)

    def _down(self, shard: int, reason: str) -> ShardDownError:
        retry_after = self.breakers[shard].retry_after() or 0.05
        return ShardDownError(shard, reason, retry_after=retry_after)

    def refuse_open(self, shards: Sequence[int]) -> None:
        """Raise :class:`~repro.errors.ShardDownError` for the first of
        ``shards`` whose breaker is open, before any request is sent."""
        for shard in shards:
            if self.breakers[shard].state == OPEN:
                raise self._down(shard, "circuit breaker open")

    async def request(self, shard: int, message: dict) -> dict:
        """One leader request, guarded and scored by the shard breaker.

        Raises :class:`~repro.errors.ShardDownError` without touching
        the network when the breaker is open. Transport-dead outcomes
        (the shard client exhausted its retries against an unreachable
        backend) count as breaker failures; an answering backend —
        including one answering ``STALLED`` — counts as alive.
        """
        breaker = self.breakers[shard]
        if not breaker.allow():
            raise self._down(shard, "circuit breaker open")
        try:
            response = await self._leaders[shard].request(message)
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
            raise self._down(
                shard, f"unreachable: {error.last_error or error}"
            ) from error
        except (ConnectionError, OSError, asyncio.TimeoutError) as error:
            breaker.record_failure()
            raise self._down(shard, f"unreachable: {error}") from error
        breaker.record_success()
        return response

    async def gather(self, message: dict) -> list[tuple[int, dict]]:
        """``(shard, response)`` for every shard that answered ``message``.

        A dark shard is left out rather than failing the read; anything
        but a :class:`~repro.errors.ServerError` is a programming error
        and propagates.
        """
        responses = await asyncio.gather(
            *(
                self.request(shard, message)
                for shard in range(len(self.addresses))
            ),
            return_exceptions=True,
        )
        answered = []
        for shard, response in enumerate(responses):
            if isinstance(response, BaseException):
                if not isinstance(response, ServerError):
                    raise response
                continue
            answered.append((shard, response))
        return answered

    async def scan(
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
        if self.read_from_replica:
            for client in self._followers[shard]:
                try:
                    response = await client.request(request)
                except ServerError:
                    continue  # next follower, else the leader
                return (
                    response["items"],
                    bool(response.get("replica_read", False)),
                    int(response.get("staleness_bytes", 0)),
                )
        response = await self.request(shard, request)
        return response["items"], False, 0

    def shard_health(self) -> dict[str, str]:
        """Per-shard breaker state (``closed``/``open``/``half_open``),
        also published as the ``router_breaker_open`` gauges."""
        health = {}
        for shard, breaker in enumerate(self.breakers):
            health[str(shard)] = state = breaker.state
            self._obs.registry.gauge(
                "router_breaker_open",
                labels={"shard": str(shard)},
                help="1 when the shard's breaker is open, else 0.",
            ).set(1.0 if state == OPEN else 0.0)
        return health

    def stats(self) -> dict:
        """The backends' fields of the router's ``STATS`` view."""
        return {
            "shard_health": self.shard_health(),
            "breaker_trips": sum(
                int(trips.value) for trips in self._breaker_trips
            ),
            "promotions": self.promotions,
            "shard_epochs": {
                str(shard): epoch for shard, epoch in enumerate(self.epochs)
            },
            "replicas_per_shard": {
                str(shard): len(group)
                for shard, group in enumerate(self.replica_addresses)
            },
            "read_from_replica": self.read_from_replica,
        }

    # -- failover ---------------------------------------------------------

    def _on_transition(self, shard: int, old: str, new: str) -> None:
        """Trace a breaker's state change; an open breaker on a shard
        with followers is the failover trigger: detection turns into
        survival by promoting the most-caught-up follower instead of
        waiting out the cooldown."""
        self._obs.tracer.emit(
            obs_events.BREAKER, shard=shard, old=old, new=new
        )
        if new == OPEN:
            self._breaker_trips[shard].inc()
            self._schedule_promotion(shard)

    def _schedule_promotion(self, shard: int) -> None:
        """Kick off a promotion task for ``shard`` (at most one at a time).

        Breaker transitions can fire outside a running event loop (unit
        tests driving breakers directly); without a loop there is no one
        to promote, so the trigger is silently skipped.
        """
        if not self._followers[shard]:
            return
        existing = self._promotion_tasks.get(shard)
        if existing is not None and not existing.done():
            return
        try:
            loop = asyncio.get_running_loop()
        except RuntimeError:
            return
        self._promotion_tasks[shard] = loop.create_task(
            self.promote(shard), name=f"promote-shard-{shard}"
        )

    async def promote(self, shard: int) -> None:
        """Promote the most-caught-up follower to shard leader.

        Every follower is probed for its replication cursor; the one
        with the highest ``(epoch, applied)`` — followers of one leader
        count LSNs of the same log, so that is the most acked writes —
        wins, which is exactly what makes the zero-lost-acked guarantee
        hold under ``quorum``: any acked write reached a majority, and
        the majority's maximum cursor contains it. The survivors are
        handed to the new leader to re-attach, the shard's leader
        client is swapped, and the breaker is reset so traffic flows
        immediately.
        """
        followers = self._followers[shard]
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
        epoch = self.epochs[shard] + 1
        peers = [
            address
            for index, address in enumerate(self.replica_addresses[shard])
            if index != winner
        ]
        try:
            await followers[winner].promote(epoch, peers)
        except ServerError:
            return  # promotion failed; breaker stays open, retried later
        self.addresses[shard] = self.replica_addresses[shard][winner]
        self.replica_addresses[shard] = peers
        promoted, old = followers.pop(winner), self._leaders[shard]
        self._leaders[shard] = self._leader_client(shard)
        await promoted.aclose()
        await old.aclose()
        self.epochs[shard] = epoch
        self._promotions.inc()
        self.breakers[shard].reset()
        self._obs.tracer.emit(
            obs_events.REPLICA_PROMOTE,
            shard=shard,
            epoch=epoch,
            survivors=len(peers),
        )

    async def aclose(self) -> None:
        """Cancel any promotion and close every leader and follower client."""
        tasks = list(self._promotion_tasks.values())
        self._promotion_tasks = {}
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        for client in self._leaders + sum(self._followers, []):
            await client.aclose()
