"""The two-phase evaluation methodology (Sections 1 and 3.2).

Phase one (*testing*): drive the LSM-tree with the closed system model —
write as much data as possible — and measure its maximum write throughput,
excluding a warm-up prefix. Phase two (*running*): drive the same tree
with the open system model at a constant arrival rate set to a high
fraction (default 95%) of the measured maximum, and measure percentile
*write* latencies, which include queuing time. If the running phase shows
large latencies, the measured maximum was not sustainable.

The testing phase defaults to the fair scheduler (the paper's
recommendation: it starves nothing, so the number it reports is honest)
and to the spec's ``testing_policy_factory`` when the policy needs a
determinism fix (size-tiered min-merge, partitioned exact-``T0``).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.components import UidAllocator
from ..core.factory import build_constraint, build_scheduler
from ..errors import ConfigurationError
from ..sim import SimResult, SimulatedLSMTree
from ..workloads import ArrivalProcess, ClosedArrivals, ConstantArrivals
from .spec import ExperimentSpec


@dataclass(frozen=True)
class TwoPhaseOutcome:
    """Everything the two-phase methodology reports for one setup."""

    spec: ExperimentSpec
    testing: SimResult
    running: SimResult
    max_write_throughput: float
    arrival_rate: float

    @property
    def p99_write_latency(self) -> float:
        """The headline number: 99th percentile write latency (seconds)."""
        return self.running.write_latency_profile((99.0,))[99.0]

    @property
    def sustainable(self) -> bool:
        """Operational check: did the running phase stay stall-free and
        drain its queue? (The paper's criterion for a usable maximum.)"""
        return (
            self.running.stall_count() == 0
            and self.running.final_queue_length < self.arrival_rate
        )

    def summary(self) -> dict[str, float]:
        """Headline metrics as a flat dict (for report tables)."""
        latencies = self.running.write_latency_profile((50.0, 99.0, 99.9))
        return {
            "max_throughput": self.max_write_throughput,
            "arrival_rate": self.arrival_rate,
            "stalls": float(self.running.stall_count()),
            "stall_seconds": self.running.stall_time,
            "max_components": self.running.components.maximum(),
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


def testing_phase(
    spec: ExperimentSpec, scheduler: str | None = None
) -> tuple[float, SimResult]:
    """Measure the maximum write throughput under the closed model.

    Returns ``(throughput, result)``; the throughput excludes the spec's
    warm-up prefix, mirroring the paper's exclusion of the initial
    20 minutes.
    """
    tree = build_tree(spec, ClosedArrivals(), scheduler=scheduler, testing=True)
    result = tree.run(spec.testing_duration)
    return result.measured_throughput(spec.warmup), result


def running_phase(
    spec: ExperimentSpec,
    arrival_rate: float | None = None,
    max_throughput: float | None = None,
    arrivals: ArrivalProcess | None = None,
    scheduler: str | None = None,
) -> SimResult:
    """Evaluate write latencies under the open model.

    The arrival process defaults to constant arrivals at
    ``spec.utilization * max_throughput`` (or an explicit
    ``arrival_rate``); pass ``arrivals`` for bursty experiments.
    """
    if arrivals is None:
        if arrival_rate is None:
            if max_throughput is None:
                raise ConfigurationError(
                    "running_phase needs an arrival rate, a measured maximum "
                    "throughput, or an explicit arrival process"
                )
            arrival_rate = spec.utilization * max_throughput
        arrivals = ConstantArrivals(arrival_rate)
    tree = build_tree(spec, arrivals, scheduler=scheduler, testing=False)
    return tree.run(spec.running_duration)


def two_phase(spec: ExperimentSpec) -> TwoPhaseOutcome:
    """Run the full methodology: testing phase, then running phase at
    ``spec.utilization`` of the measured maximum."""
    max_throughput, testing_result = testing_phase(spec)
    arrival_rate = spec.utilization * max_throughput
    running_result = running_phase(spec, arrival_rate=arrival_rate)
    return TwoPhaseOutcome(
        spec=spec,
        testing=testing_result,
        running=running_result,
        max_write_throughput=max_throughput,
        arrival_rate=arrival_rate,
    )
