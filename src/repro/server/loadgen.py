"""Network load generation: the two loops of the two-phase methodology.

* :func:`closed_loop` — N concurrent clients issuing back-to-back
  writes: the testing phase (service capacity), and an overload
  generator for admission-mode experiments.
* :func:`open_loop` — writes dispatched on a fixed arrival schedule,
  each timed from its *scheduled* arrival, so queueing during a stall
  lands in the tail as the paper's Figure 1 spikes do.

Both drive a live :class:`~repro.server.KVServer` or cluster router over
TCP; :func:`repro.harness.two_phase` runs them as the two phases
(:class:`~repro.harness.WireTarget`). Latencies include client retries
and backoff: what an application would observe.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field

import numpy as np

from ..errors import (
    ConfigurationError,
    ProtocolError,
    RequestFailedError,
    RetriesExhaustedError,
    ServerError,
)
from ..metrics.percentiles import percentile_profile
from ..workloads.distributions import ZipfianKeys
from .client import KVClient

#: Key-popularity distributions the generators understand.
DISTRIBUTIONS = ("uniform", "zipf")

#: Zipf samples drawn per numpy call; amortises vectorised sampling.
_ZIPF_BATCH = 512


def classify_error(error: BaseException) -> str:
    """Bucket one failed operation's exception for :class:`LoadResult`.

    Protocol rejections keep their wire code (lower-cased:
    ``shard_down``, ``stalled``, ``not_leader``, ``data_corrupt``, ...);
    transport failures split into ``timeout`` / ``connection_reset`` /
    ``connection_refused`` / ``connection_error`` / ``protocol``. A
    retry-exhausted wrapper is classified by its *last* cause — that is
    the failure mode the client actually gave up on. Keeping
    ``data_corrupt`` as its own bucket matters operationally: it is an
    *integrity* refusal (the answer would require a quarantined run),
    not a transport blip, and it is not retryable.
    """
    if isinstance(error, RetriesExhaustedError):
        if error.last_error is None:
            return "retries_exhausted"
        return classify_error(error.last_error)
    if isinstance(error, RequestFailedError):
        return error.code.lower()
    if isinstance(error, (asyncio.TimeoutError, TimeoutError)):
        return "timeout"
    if isinstance(error, ConnectionResetError):
        return "connection_reset"
    if isinstance(error, ConnectionRefusedError):
        return "connection_refused"
    if isinstance(error, ProtocolError):
        return "protocol"
    if isinstance(error, (ConnectionError, OSError)):
        return "connection_error"
    return "other"


@dataclass
class LoadResult:
    """Outcome of one load-generation run."""

    label: str
    op_count: int
    error_count: int
    duration_seconds: float
    latencies: list[float] = field(default_factory=list, repr=False)
    retries: int = 0
    stalled_responses: int = 0
    #: Failed ops bucketed by :func:`classify_error`; values sum to
    #: ``error_count``.
    errors_by_type: dict[str, int] = field(default_factory=dict)
    #: Open loop: ops not yet answered when the last one arrived.
    final_queue_length: int = 0

    def stall_count(self) -> int:
        """Writes the store stalled (STALLED answers, over the wire)."""
        return self.stalled_responses

    @property
    def data_corrupt_count(self) -> int:
        """Ops refused with ``DATA_CORRUPT`` — integrity failures, kept
        separate from transport errors so a corruption event cannot hide
        inside a generic error count."""
        return self.errors_by_type.get("data_corrupt", 0)

    @property
    def total_writes(self) -> int:
        """Completed operations, under the simulator result's name."""
        return self.op_count

    @property
    def throughput(self) -> float:
        """Completed operations per second."""
        if self.duration_seconds <= 0:
            return 0.0
        return self.op_count / self.duration_seconds

    def write_latency_profile(
        self, levels: tuple[float, ...] = (50.0, 90.0, 99.0)
    ) -> dict[float, float]:
        """Percentile client latencies in seconds.

        Raises :class:`ValueError` when no operation completed — a run
        where everything errored has no latency distribution, and a
        silent 0.0 would read as an impossibly fast server.
        """
        if not self.latencies:
            raise ValueError(
                f"{self.label}: no latency samples — all "
                f"{self.error_count} operations failed or the run was "
                "empty; there is no percentile to report"
            )
        return percentile_profile(self.latencies, levels)

    @property
    def max_latency(self) -> float:
        """Worst observed client latency."""
        return max(self.latencies) if self.latencies else 0.0

    def summary(self) -> str:
        """One-line human-readable result."""
        if not self.latencies:
            return f"{self.label}: no completed operations"
        profile = self.write_latency_profile()
        buckets = ", ".join(
            f"{kind}: {count}" for kind, count in sorted(
                self.errors_by_type.items(), key=lambda item: (-item[1], item[0])
            )
        )
        return (
            f"{self.label}: {self.op_count} ops in "
            f"{self.duration_seconds:.2f}s ({self.throughput:.0f} op/s), "
            f"latency p50 {profile[50.0] * 1e3:.1f}ms "
            f"p99 {profile[99.0] * 1e3:.1f}ms "
            f"max {self.max_latency * 1e3:.1f}ms, "
            f"{self.retries} retries, {self.error_count} errors"
            + (f" ({buckets})" if buckets else "")
        )


def _operation_stream(
    seed: int,
    keyspace: int,
    value_bytes: int,
    distribution: str = "uniform",
    theta: float = 0.99,
):
    """Deterministic (key, value) generator shared by both loop shapes.

    ``uniform`` draws keys uniformly from the keyspace; ``zipf`` draws
    them from the YCSB scrambled-Zipfian popularity model
    (:class:`~repro.workloads.distributions.ZipfianKeys`), which is what
    makes a *hot shard* emerge when the stream is routed through a
    cluster's hash ring.
    """
    if distribution not in DISTRIBUTIONS:
        raise ConfigurationError(
            f"unknown distribution {distribution!r}; "
            f"choose from {DISTRIBUTIONS}"
        )
    rng = random.Random(seed)
    if distribution == "zipf":
        zipf = ZipfianKeys(keyspace, theta=theta)
        np_rng = np.random.default_rng(seed)
        while True:
            for index in zipf.sample(np_rng, _ZIPF_BATCH).tolist():
                key = f"key-{index:010d}".encode("ascii")
                yield key, rng.randbytes(value_bytes)
    else:
        while True:
            key = f"key-{rng.randrange(keyspace):010d}".encode("ascii")
            yield key, rng.randbytes(value_bytes)


class _Tally:
    """One run's client, its answered writes and its failed ones by kind."""

    def __init__(self, host: str, port: int, options: dict | None,
                 pool_size: int, seed: int) -> None:
        options = dict(options or {})
        options.setdefault("pool_size", pool_size)
        options.setdefault("jitter_seed", seed)
        self.client = KVClient(host, port, **options)
        self.latencies: list[float] = []
        self.errors_by_type: dict[str, int] = {}

    async def put(self, key: bytes, value: bytes, since: float) -> float | None:
        """One write timed from ``since``: when it was answered, or None."""
        try:
            await self.client.put(key, value)
        except ServerError as error:
            kind = classify_error(error)
            self.errors_by_type[kind] = self.errors_by_type.get(kind, 0) + 1
            return None
        done = time.monotonic()
        self.latencies.append(done - since)
        return done

    def result(self, label: str, duration: float, queued: int = 0) -> LoadResult:
        telemetry = self.client.telemetry
        return LoadResult(
            label, len(self.latencies), sum(self.errors_by_type.values()),
            duration, self.latencies, telemetry.retries_total,
            telemetry.stalled_responses, self.errors_by_type, queued,
        )


async def closed_loop(
    host: str,
    port: int,
    clients: int = 4,
    ops_per_client: int = 200,
    value_bytes: int = 100,
    keyspace: int = 4096,
    seed: int = 0,
    label: str = "closed-loop",
    client_options: dict | None = None,
    distribution: str = "uniform",
    theta: float = 0.99,
) -> LoadResult:
    """Closed system: each client issues its next write on completion."""
    if clients < 1 or ops_per_client < 1:
        raise ConfigurationError("need at least one client and one op")
    tally = _Tally(host, port, client_options, clients, seed)
    async with tally.client:

        async def worker(worker_id: int) -> None:
            stream = _operation_stream(
                seed + worker_id, keyspace, value_bytes,
                distribution=distribution, theta=theta,
            )
            for _ in range(ops_per_client):
                await tally.put(*next(stream), time.monotonic())

        started = time.monotonic()
        await asyncio.gather(*(worker(index) for index in range(clients)))
        return tally.result(label, time.monotonic() - started)


async def open_loop(
    host: str,
    port: int,
    rate_ops_per_s: float,
    total_ops: int,
    value_bytes: int = 100,
    keyspace: int = 4096,
    seed: int = 0,
    label: str = "open-loop",
    client_options: dict | None = None,
    distribution: str = "uniform",
    theta: float = 0.99,
) -> LoadResult:
    """Open system: ops arrive on a fixed schedule regardless of progress.

    Latency counts from each op's *scheduled* arrival, so an op delayed
    behind a stall accrues its queueing time — the open-system latency
    the paper's running phase reports.
    """
    if rate_ops_per_s <= 0 or total_ops < 1:
        raise ConfigurationError("need a positive rate and op count")
    tally = _Tally(host, port, client_options, 8, seed)
    queued = 0
    async with tally.client:
        stream = _operation_stream(
            seed, keyspace, value_bytes, distribution=distribution, theta=theta
        )
        operations = [next(stream) for _ in range(total_ops)]
        epoch = time.monotonic()
        last_arrival = epoch + (total_ops - 1) / rate_ops_per_s

        async def fire(index: int, key: bytes, value: bytes) -> None:
            nonlocal queued
            scheduled = epoch + index / rate_ops_per_s
            pause = scheduled - time.monotonic()
            if pause > 0:
                await asyncio.sleep(pause)
            # Latency is anchored to the *scheduled* arrival, never to
            # when the send actually happened: an op held up behind a
            # slow predecessor (pool exhausted, server stalled) accrues
            # that queueing time. Measuring from the send instant would
            # be coordinated omission — the stall would erase its own
            # evidence from the tail.
            done = await tally.put(key, value, scheduled)
            queued += done is not None and done > last_arrival

        await asyncio.gather(
            *(fire(index, *operation)
              for index, operation in enumerate(operations))
        )
        return tally.result(label, time.monotonic() - epoch, queued)
