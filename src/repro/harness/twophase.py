"""The two-phase evaluation methodology (Sections 1 and 3.2), on any stack.

Phase one (*testing*) drives a closed system — write as much as possible
— and measures the maximum write throughput. Phase two (*running*)
drives an open system at a high fraction (default 95%) of that maximum
and measures percentile *write* latencies from each write's scheduled
arrival, queuing included: if it stalls or ends with a queue, the
maximum was not sustainable.

A target is an :class:`ExperimentSpec` — the simulated tree, each phase
from its loaded start; its testing phase excludes the warm-up and uses
the fair scheduler (it starves nothing) and the spec's
``testing_policy_factory`` — or anything with the two loops,
``closed()`` giving ``(maximum, result)`` and ``open(rate)`` a result:
:class:`EngineTarget` and :class:`WireTarget`. Every result answers
``write_latency_profile``, ``stall_count``, ``final_queue_length`` and
``total_writes``.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass

from ..core.components import UidAllocator
from ..core.factory import build_constraint, build_scheduler
from ..errors import ConfigurationError
from ..server.loadgen import LoadResult, _operation_stream, closed_loop, open_loop
from ..sim import SimulatedLSMTree
from ..workloads import ArrivalProcess, ClosedArrivals, ConstantArrivals
from .spec import ExperimentSpec


@dataclass(frozen=True)
class TwoPhaseOutcome:
    """Everything the two-phase methodology reports, on any target."""

    testing: object
    running: object
    max_write_throughput: float
    arrival_rate: float

    @property
    def p99_write_latency(self) -> float:
        """The headline number: 99th percentile write latency (seconds)."""
        return self.running.write_latency_profile((99.0,))[99.0]

    @property
    def sustainable(self) -> bool:
        """Operational check: did the running phase stay stall-free and
        end with less than a second's arrivals queued? (The paper's
        criterion for a usable maximum.) A phase of seconds, not hours,
        must also end with under 1% of its writes queued."""
        running = self.running
        return running.stall_count() == 0 and running.final_queue_length < min(
            self.arrival_rate, 0.01 * running.total_writes
        )

    def summary(self) -> dict[str, float]:
        """Headline metrics as a flat dict (for report tables)."""
        latencies = self.running.write_latency_profile((50.0, 99.0, 99.9))
        return {
            "max_throughput": self.max_write_throughput,
            "arrival_rate": self.arrival_rate,
            "stalls": float(self.running.stall_count()),
            "p50": latencies[50.0],
            "p99": latencies[99.0],
            "p999": latencies[99.9],
        }


def build_tree(
    spec: ExperimentSpec,
    arrivals: ArrivalProcess,
    scheduler: str | None = None,
    testing: bool = False,
) -> SimulatedLSMTree:
    """Construct the simulated tree for one phase of a spec."""
    if testing and spec.testing_policy_factory is not None:
        policy = spec.testing_policy_factory()
    else:
        policy = spec.policy_factory()
    scheduler_name = scheduler or (
        spec.testing_scheduler if testing else spec.scheduler
    )
    keyspace = spec.keyspace()
    components = spec.bootstrap(policy, keyspace, spec.config, UidAllocator())
    return SimulatedLSMTree(
        config=spec.config,
        policy=policy,
        scheduler=build_scheduler(scheduler_name, policy),
        constraint=build_constraint(
            spec.constraint, policy, spec.constraint_factor
        ),
        keyspace=keyspace,
        arrivals=arrivals,
        write_control=spec.control_factory(),
        initial_components=components,
        window=spec.window,
    )


@dataclass(frozen=True, kw_only=True)
class _Writes:
    """``ops`` puts per phase of ``value_bytes`` over ``keyspace`` keys."""

    ops: int = 2000
    value_bytes: int = 100
    keyspace: int = 4096
    distribution: str = "uniform"

    def _stream(self) -> dict:
        return dict(value_bytes=self.value_bytes, keyspace=self.keyspace,
                    distribution=self.distribution)


@dataclass(frozen=True)
class EngineTarget(_Writes):
    """An open :class:`~repro.engine.LSMStore`, one thread calling
    ``timed_put`` (a write that waited at the gate is a stall); opened with
    ``background_maintenance=True``, its worker merges beside the writer."""

    store: object

    def closed(self) -> tuple[float, LoadResult]:
        result = self._drive(None, 0, "testing")
        return result.throughput, result

    def open(self, rate: float) -> LoadResult:
        return self._drive(rate, 1, "running")

    def _drive(self, rate: float | None, seed: int, label: str) -> LoadResult:
        stream = _operation_stream(seed, **self._stream())
        writes = [next(stream) for _ in range(self.ops)]
        latencies, stalls, queued = [], 0, 0
        epoch = time.monotonic()
        last = epoch + (self.ops - 1) / rate if rate else float("inf")
        for index, (key, value) in enumerate(writes):
            arrival = epoch + index / rate if rate else time.monotonic()
            pause = arrival - time.monotonic()
            if pause > 0:
                time.sleep(pause)
            stalls += self.store.timed_put(key, value).stall_seconds > 0
            done = time.monotonic()
            latencies.append(done - arrival)
            queued += done > last
        return LoadResult(label, self.ops, 0, time.monotonic() - epoch,
                          latencies, stalled_responses=stalls,
                          final_queue_length=queued)


@dataclass(frozen=True)
class WireTarget(_Writes):
    """A server or router at ``host:port``: four closed-loop clients share
    ``ops`` writes, then ``ops`` writes arrive open loop."""

    host: str
    port: int

    def closed(self) -> tuple[float, LoadResult]:
        result = asyncio.run(closed_loop(self.host, self.port, 4, self.ops // 4,
                                         label="testing", **self._stream()))
        return result.throughput, result

    def open(self, rate: float) -> LoadResult:
        return asyncio.run(open_loop(self.host, self.port, rate, self.ops, seed=1,
                                     label="running", **self._stream()))


def testing_phase(target, scheduler: str | None = None) -> tuple[float, object]:
    """Measure the maximum write throughput under the closed model:
    ``(throughput, result)``. On the simulator the throughput excludes
    the spec's warm-up, as the paper excludes its first 20 minutes; only
    the simulator takes a ``scheduler`` override."""
    if not isinstance(target, ExperimentSpec):
        return target.closed()
    tree = build_tree(target, ClosedArrivals(), scheduler=scheduler, testing=True)
    result = tree.run(target.testing_duration)
    return result.measured_throughput(target.warmup), result


def running_phase(
    target,
    arrival_rate: float | None = None,
    max_throughput: float | None = None,
    arrivals: ArrivalProcess | None = None,
    scheduler: str | None = None,
):
    """Evaluate write latencies under the open model: constant arrivals
    at ``arrival_rate``, or at the target's utilization of
    ``max_throughput``. The simulator also takes a ``scheduler`` override
    and any other arrival process (bursty experiments)."""
    if arrivals is None:
        if arrival_rate is None:
            if max_throughput is None:
                raise ConfigurationError(
                    "running_phase needs an arrival rate, a measured maximum "
                    "throughput, or an explicit arrival process"
                )
            arrival_rate = _utilization(target) * max_throughput
        if not isinstance(target, ExperimentSpec):
            return target.open(arrival_rate)
        arrivals = ConstantArrivals(arrival_rate)
    tree = build_tree(target, arrivals, scheduler=scheduler, testing=False)
    return tree.run(target.running_duration)


def _utilization(target) -> float:
    """A spec's own utilization, else the paper's 95%."""
    return target.utilization if isinstance(target, ExperimentSpec) else 0.95


def two_phase(target, utilization: float | None = None) -> TwoPhaseOutcome:
    """Run the full methodology: testing phase, then running phase at
    ``utilization`` (default: the target's) of the measured maximum."""
    max_throughput, testing = testing_phase(target)
    if max_throughput <= 0:
        raise ConfigurationError("the testing phase completed no write")
    rate = (utilization or _utilization(target)) * max_throughput
    return TwoPhaseOutcome(
        testing, running_phase(target, rate), max_throughput, rate
    )
