"""The router's shard backends, driven without sockets.

:class:`~repro.cluster.backends.ShardBackends` owns failover: an open
breaker on a shard with followers probes every follower's cursor and
promotes the one with the highest ``(epoch, applied)``. Here the
followers are fakes, so each rule is checked on its own: who wins, the
epoch bump, the survivors handed over, the breaker reset and the
``router_promotions_total`` count. The last tests read the reference
graph: the router holds its backends, and nothing the backends hold
(their breakers' callbacks included) holds the router.
"""

import asyncio

import pytest

from repro.cluster import ClusterRouter
from repro.cluster.backends import ShardBackends
from repro.errors import RequestFailedError, ServerError
from repro.obs import Observability
from repro.obs import events as obs_events

from .engine.test_parts import _held

LEADERS = [("127.0.0.1", 1), ("127.0.0.1", 2)]
FOLLOWERS = [("127.0.0.1", 11), ("127.0.0.1", 12), ("127.0.0.1", 13)]
#: Trips after two failures in a window of two.
BREAKER = dict(min_samples=2, failure_threshold=0.5, cooldown=60.0)


class FakeFollower:
    """Answers a cursor probe (or raises) and records a promotion."""

    def __init__(self, status=None, probe_error=None, promote_error=None):
        self.status = status
        self.probe_error = probe_error
        self.promote_error = promote_error
        self.promoted = None
        self.closed = False

    async def replica_status(self) -> dict:
        if self.probe_error is not None:
            raise self.probe_error
        return self.status

    async def promote(self, epoch, peers) -> dict:
        if self.promote_error is not None:
            raise self.promote_error
        self.promoted = (epoch, peers)
        return {"ok": True}

    async def aclose(self) -> None:
        self.closed = True


def backends_with(fakes) -> ShardBackends:
    """Two shards; shard 0's three followers are ``fakes``, shard 1 has
    none. Shard 0's breaker is already open."""
    backends = ShardBackends(
        LEADERS,
        Observability(),
        breaker_options=BREAKER,
        replica_backends=[FOLLOWERS, []],
    )
    backends._followers[0] = list(fakes)  # the real clients never connected
    for _ in range(2):  # no running loop: no promotion is scheduled
        backends.breakers[0].record_failure()
    assert backends.breakers[0].state == "open"
    return backends


def promotions(backends: ShardBackends) -> int:
    return sum(
        series["value"]
        for series in backends._obs.registry.snapshot()["counters"]
        if series["name"] == "router_promotions_total"
    )


def promote_events(backends: ShardBackends) -> list[dict]:
    return [
        event.fields
        for event in backends._obs.tracer.events(-1, None)
        if event.kind == obs_events.REPLICA_PROMOTE
    ]


def close(backends: ShardBackends) -> None:
    asyncio.run(backends.aclose())


@pytest.mark.parametrize(
    "cursors, winner",
    [
        ([(0, 10), (0, 30), (0, 20)], 1),  # most applied at one epoch
        ([(0, 10), (0, 30), (1, 5)], 2),  # a later epoch outranks LSNs
    ],
    ids=["applied", "epoch"],
)
def test_the_most_caught_up_follower_is_promoted(cursors, winner):
    fakes = [
        FakeFollower({"epoch": epoch, "applied": applied})
        for epoch, applied in cursors
    ]
    backends = backends_with(fakes)
    asyncio.run(backends.promote(0))
    survivors = [a for i, a in enumerate(FOLLOWERS) if i != winner]
    assert fakes[winner].promoted == (1, survivors)
    assert fakes[winner].closed  # its follower client is let go
    assert backends.epochs == [1, 0]
    assert backends.addresses == [FOLLOWERS[winner], LEADERS[1]]
    assert backends.replica_addresses == [survivors, []]
    assert backends._followers[0] == [
        fake for i, fake in enumerate(fakes) if i != winner
    ]
    assert backends.breakers[0].state == "closed"
    assert backends.promotions == 1 == promotions(backends)
    assert promote_events(backends) == [
        {"shard": 0, "epoch": 1, "survivors": 2}
    ]
    close(backends)


def test_a_follower_that_does_not_answer_is_passed_over():
    fakes = [
        FakeFollower({"epoch": 0, "applied": 5}),
        FakeFollower(probe_error=ConnectionError("refused")),
        FakeFollower({"epoch": 0, "applied": 7}),
    ]
    backends = backends_with(fakes)
    asyncio.run(backends.promote(0))
    # The silent follower is still a survivor: the new leader re-attaches it.
    assert fakes[2].promoted == (1, FOLLOWERS[:2])
    assert fakes[1].promoted is None
    assert backends.addresses[0] == FOLLOWERS[2]
    assert backends.breakers[0].state == "closed"
    assert promotions(backends) == 1
    close(backends)


@pytest.mark.parametrize(
    "fakes",
    [
        [
            FakeFollower({"epoch": 0, "applied": 9}),
            FakeFollower(
                {"epoch": 0, "applied": 10},
                promote_error=RequestFailedError("INTERNAL", "no"),
            ),
            FakeFollower({"epoch": 0, "applied": 8}),
        ],
        [FakeFollower(probe_error=ServerError("down")) for _ in FOLLOWERS],
    ],
    ids=["promote-fails", "nobody-answers"],
)
def test_a_failed_promotion_changes_nothing(fakes):
    backends = backends_with(fakes)
    asyncio.run(backends.promote(0))
    assert backends.epochs == [0, 0]
    assert backends.addresses == LEADERS
    assert backends.replica_addresses == [FOLLOWERS, []]
    assert backends._followers[0] == fakes
    assert backends.breakers[0].state == "open"  # retried at the next trip
    assert promotions(backends) == 0
    assert promote_events(backends) == []
    close(backends)


def test_a_trip_inside_the_loop_promotes():
    fakes = [FakeFollower({"epoch": 0, "applied": n}) for n in (3, 1, 2)]
    backends = ShardBackends(
        LEADERS,
        Observability(),
        breaker_options=BREAKER,
        replica_backends=[FOLLOWERS, []],
    )
    backends._followers[0] = list(fakes)

    async def scenario():
        for _ in range(2):
            backends.breakers[0].record_failure()
        await backends._promotion_tasks[0]
        await backends.aclose()

    asyncio.run(scenario())
    assert fakes[0].promoted == (1, FOLLOWERS[1:])
    assert backends.stats()["breaker_trips"] == 1
    assert backends.stats()["shard_epochs"] == {"0": 1, "1": 0}
    assert backends.breakers[0].state == "closed"


def test_a_shard_without_followers_only_trips():
    backends = ShardBackends(LEADERS, Observability(), breaker_options=BREAKER)

    async def scenario():
        for _ in range(2):
            backends.breakers[1].record_failure()
        assert backends._promotion_tasks == {}
        await backends.aclose()

    asyncio.run(scenario())
    assert backends.shard_health() == {"0": "closed", "1": "open"}
    assert backends.stats()["breaker_trips"] == 1


# -- the reference graph ----------------------------------------------------


def held_by(backends: ShardBackends) -> list:
    """Everything the backends hold, their breakers' state included."""
    held = list(_held(vars(backends)))
    for breaker in backends.breakers:
        held += list(_held(vars(breaker)))
    return held


@pytest.mark.parametrize("replicas", [False, True], ids=["plain", "replicas"])
def test_the_backends_never_hold_the_router(replicas):
    router = ClusterRouter(
        LEADERS,
        stats_fn=lambda: [],
        replica_backends=[FOLLOWERS, []] if replicas else None,
    )
    backends = router.backends
    held = held_by(backends)
    assert not any(item is router for item in held)
    # The walk reaches through the callbacks: each breaker's listener
    # is a closure over the backends themselves, not over the router.
    for breaker in backends.breakers:
        callback = list(_held(breaker._on_transition))
        assert any(item is backends for item in callback)
        assert not any(item is router for item in callback)
    assert backends._obs is router.obs  # one bundle, handed down
    asyncio.run(router.aclose())
