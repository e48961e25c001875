"""The benchmark's load generator: closed and open loops over connection-bound workers.

A *connection* is anything with coroutine methods ``put(key, value)``,
``get(key)`` and ``scan(lo, hi, limit)`` — a ``KVClient`` with a pool of
one, or :class:`EngineConnection` around an ``LSMStore`` in this
process. Each worker owns one connection and one operation stream and
has at most one request in flight.

Closed loop: the next operation is sent when the previous one completes,
so a slow system receives less load; the workers stop once they have
together sent a fixed number of operations. Open loop: operation ``i`` of a
worker is due at ``epoch + i / rate``; it is never sent earlier, and its
latency is counted from the due time — a stall therefore charges every
operation that came due behind it, and how late the generator itself
sent is reported beside the latencies.

``repro.server.loadgen`` is not used: it only issues puts, spawns one
task per operation, and does not report how late it sent.
"""

from __future__ import annotations

import asyncio
import math
import time
from typing import Iterator

from workloads import SCAN_LIMIT, Model, Op, key_for, value_for


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, taken from above (tail-conservative).

    The benchmark keeps its own (as it keeps its own Zipf and values) so
    that a change to ``repro.metrics`` cannot move the numbers it is
    judged by.
    """
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, math.ceil(q / 100.0 * len(ordered)) - 1))
    return ordered[rank]


class Recorder:
    """What the generator saw: latencies by kind, lateness, failures."""

    def __init__(self) -> None:
        #: kind -> [(timed_from, seconds)]; ``timed_from`` is the send
        #: time in a closed loop and the due time in an open loop.
        self.samples: dict[str, list[tuple[float, float]]] = {}
        #: Open loop only: seconds between due time and actual send.
        self.late: list[float] = []
        self.attempted = 0
        self.errors = 0
        self.wrong = 0
        self.first_failure = ""

    @property
    def failed(self) -> int:
        return self.errors + self.wrong

    def latencies(self, kind: str, since: float = 0.0) -> list[float]:
        return [
            seconds
            for timed_from, seconds in self.samples.get(kind, ())
            if timed_from >= since
        ]

    def count(self, since: float = 0.0) -> int:
        return sum(len(self.latencies(kind, since)) for kind in self.samples)


class EngineConnection:
    """An ``LSMStore`` behind the connection interface (no wire, no thread hop)."""

    def __init__(self, store) -> None:
        self._store = store

    async def put(self, key: bytes, value: bytes) -> None:
        self._store.put(key, value)

    async def get(self, key: bytes):
        return self._store.get(key)

    async def scan(self, lo, hi, limit):
        return list(self._store.scan(lo, hi, limit))


async def execute(
    connection, op: Op, model: Model, recorder: Recorder, clock, timed_from=None
) -> None:
    """Send one operation, time it, and check its answer against the model."""
    key = key_for(op.index)
    value = value_for(op.index, op.version) if op.kind == "put" else None
    recorder.attempted += 1
    sent = clock()
    if timed_from is None:
        timed_from = sent
    else:
        recorder.late.append(sent - timed_from)
    try:
        if op.kind == "put":
            await connection.put(key, value)
            right = True
        elif op.kind == "get":
            right = model.check_get(op, await connection.get(key))
        else:
            right = model.check_scan(op, await connection.scan(key, None, SCAN_LIMIT))
    except Exception as error:  # noqa: BLE001 — a failed op is a counted result
        recorder.errors += 1
        recorder.first_failure = recorder.first_failure or repr(error)
        return
    recorder.samples.setdefault(op.kind, []).append((timed_from, clock() - timed_from))
    if op.kind == "put":
        model.acknowledge(op)
    elif not right:
        recorder.wrong += 1
        recorder.first_failure = recorder.first_failure or f"wrong answer to {op}"


async def closed_loop(
    connection,
    stream: Iterator[Op],
    model: Model,
    recorder: Recorder,
    total: int,
    give_up_at: float = math.inf,
    clock=time.perf_counter,
) -> None:
    """One worker: next operation on completion, until the workers sharing
    ``recorder`` have together sent ``total`` operations (or, as a
    safety valve on a crawling box, until ``give_up_at``)."""
    while recorder.attempted < total and clock() < give_up_at:
        await execute(connection, next(stream), model, recorder, clock)


async def open_loop(
    connection,
    stream: Iterator[Op],
    model: Model,
    recorder: Recorder,
    epoch: float,
    rate: float,
    count: int,
    give_up_at: float = math.inf,
    clock=time.perf_counter,
    sleep=asyncio.sleep,
) -> None:
    """One worker: ``count`` operations, the i-th due at ``epoch + i / rate``
    (none sent after ``give_up_at``, the same safety valve)."""
    for i in range(count):
        if clock() >= give_up_at:
            break
        due = epoch + i / rate
        wait = due - clock()
        while wait > 0:
            await sleep(wait)
            wait = due - clock()
        await execute(connection, next(stream), model, recorder, clock, timed_from=due)
