"""Result objects produced by simulation runs.

A :class:`SimResult` bundles every trace the paper's figures draw on:
instantaneous write throughput (windowed), per-write latencies (from the
fluid FIFO curves), processing-latency samples, the disk-component count
over time, merge logs, stall intervals, and the I/O activity trace the
query model consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigurationError
from ..metrics import (
    CumulativeCurve,
    StepSeries,
    WindowedCounter,
    fifo_latencies,
    percentile_profile,
    weighted_percentile_profile,
)


@dataclass(frozen=True)
class MergeRecord:
    """One completed merge: when, what, and how much I/O it cost."""

    completed_at: float
    started_at: float
    input_count: int
    level0_inputs: int
    input_bytes: float
    output_bytes: float
    target_level: int
    reason: str


@dataclass(frozen=True)
class ForceEvent:
    """A disk force: ``bytes`` flushed from the OS queue at ``time``."""

    time: float
    bytes: float


@dataclass
class SimResult:
    """Everything a two-phase experiment needs from one simulation run."""

    duration: float
    window: float
    arrivals: CumulativeCurve
    departures: CumulativeCurve
    throughput: WindowedCounter
    components: StepSeries
    io_activity: WindowedCounter
    merge_log: list[MergeRecord] = field(default_factory=list)
    force_events: list[ForceEvent] = field(default_factory=list)
    stall_intervals: list[tuple[float, float]] = field(default_factory=list)
    processing_values: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.float64)
    )
    processing_weights: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.float64)
    )
    closed_system: bool = False
    final_queue_length: float = 0.0

    @property
    def total_writes(self) -> float:
        """Writes processed over the whole run."""
        return self.departures.final_total

    @property
    def stall_time(self) -> float:
        """Total simulated seconds during which writes were stalled."""
        return sum(end - start for start, end in self.stall_intervals)

    def measured_throughput(self, exclude_initial: float = 0.0) -> float:
        """Average write throughput, excluding a warm-up prefix.

        The paper excludes the initial 20 minutes of its 2-hour testing
        phase because the freshly loaded tree has too few components;
        ``exclude_initial`` reproduces that.
        """
        if not 0.0 <= exclude_initial < self.duration:
            raise ConfigurationError("warm-up exclusion outside the run")
        done_at_cut = float(self.departures.value_at(np.asarray([exclude_initial]))[0])
        span = self.duration - exclude_initial
        return (self.total_writes - done_at_cut) / span

    def throughput_series(self) -> np.ndarray:
        """Per-window instantaneous write throughput (entries/s)."""
        return self.throughput.rate_values(until=self.duration)

    def write_latencies(
        self, max_samples: int = 200_000, skip_fraction: float = 0.0
    ) -> np.ndarray:
        """Per-write latencies (queuing + processing) for open-system runs.

        Raises for closed-system runs: the paper's whole point is that the
        closed model cannot characterize write latencies (Section 3.2).
        """
        if self.closed_system:
            raise ConfigurationError(
                "write latencies are undefined under the closed system model; "
                "run the open-system running phase instead (Section 3.2)"
            )
        return fifo_latencies(
            self.arrivals,
            self.departures,
            max_samples=max_samples,
            skip_fraction=skip_fraction,
        )

    def write_latency_profile(
        self, levels: tuple[float, ...] = (50.0, 90.0, 99.0, 99.9)
    ) -> dict[float, float]:
        """Percentile write latencies (Figure 6c, 9c, 10c style)."""
        return percentile_profile(self.write_latencies(), levels)

    def processing_latency_profile(
        self, levels: tuple[float, ...] = (50.0, 90.0, 99.0, 99.9)
    ) -> dict[float, float]:
        """Percentile *processing* latencies from weighted fluid samples.

        The processing latency is the time the LSM-tree itself spends on a
        write once submitted — ``1 / rate`` during smooth operation, the
        stall length for the write caught at a stall's head (Section 4.2's
        distinction between processing and write latency).
        """
        if self.processing_values.size == 0:
            raise ConfigurationError("no processing samples recorded")
        return weighted_percentile_profile(
            self.processing_values, self.processing_weights, levels
        )

    def stall_count(self) -> int:
        """Number of distinct stall intervals."""
        return len(self.stall_intervals)

    def longest_stall(self) -> float:
        """Duration of the longest stall (0 when none occurred)."""
        if not self.stall_intervals:
            return 0.0
        return max(end - start for start, end in self.stall_intervals)
