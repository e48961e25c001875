"""Fluid arrival/departure curves and FIFO latency extraction.

The running phase of the two-phase methodology measures *write latency* in
an open system: queuing time plus processing time. This reproduction models
the write path as a fluid (see ``repro.sim``): writes arrive at a
piecewise-constant rate and are drained by the LSM-tree at a
piecewise-constant processing rate. Under FIFO service, the latency of the
``n``-th write is exactly

    latency(n) = D^{-1}(n) - A^{-1}(n)

where ``A`` and ``D`` are the cumulative arrival and departure curves. Both
curves are piecewise linear and non-decreasing, so their inverses are
computed by linear interpolation between breakpoints. This yields *exact*
per-write latencies for the fluid model — no sampling noise — which is what
lets benchmark assertions about percentile latencies be deterministic.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError, SimulationError


class CumulativeCurve:
    """A non-decreasing piecewise-linear cumulative count over time.

    Breakpoints are appended in time order with ``extend(t, total)``,
    meaning "the cumulative count reached ``total`` at time ``t``, growing
    linearly since the previous breakpoint".
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._times: list[float] = [start_time]
        self._totals: list[float] = [0.0]

    @property
    def final_total(self) -> float:
        """Cumulative count at the last breakpoint."""
        return self._totals[-1]

    def extend(self, time: float, total: float) -> None:
        """Append a breakpoint; time and total must be non-decreasing."""
        if time < self._times[-1]:
            raise SimulationError(
                f"curve breakpoint time went backwards: {time} < {self._times[-1]}"
            )
        if total < self._totals[-1] - 1e-9:
            raise SimulationError(
                f"cumulative total decreased: {total} < {self._totals[-1]}"
            )
        total = max(total, self._totals[-1])
        if time == self._times[-1]:
            # Vertical jumps are not physical for a fluid; coalesce.
            self._totals[-1] = total
            return
        self._times.append(time)
        self._totals.append(total)

    def advance(self, time: float, amount: float) -> None:
        """Append a breakpoint ``amount`` above the current total."""
        self.extend(time, self._totals[-1] + amount)

    def inverse(self, counts: np.ndarray) -> np.ndarray:
        """First-attainment time of each cumulative count.

        Returns ``inf{t : curve(t) >= c}`` for each count ``c`` — the
        correct FIFO semantics for both arrival curves (a flat run means
        nothing arrived; later counts arrive after the gap) and departure
        curves (a flat run is a stall; later counts depart strictly after
        it). Computed by interpolating only within the curve's *rising*
        segments: flat runs contribute no interior points, so they can
        neither hide a stall (interpolating across it) nor smear a
        trailing idle period back over earlier departures.
        """
        counts = np.asarray(counts, dtype=np.float64)
        if counts.size and (counts.min() < 0 or counts.max() > self.final_total + 1e-6):
            raise ConfigurationError("count out of the curve's range")
        totals = np.asarray(self._totals)
        times = np.asarray(self._times)
        rising = np.nonzero(totals[1:] > totals[:-1])[0]
        if rising.size == 0:
            return np.full(counts.shape, times[0])
        seg_start_total = totals[rising]
        seg_end_total = totals[rising + 1]
        seg_start_time = times[rising]
        seg_end_time = times[rising + 1]
        # Segment end-totals are strictly increasing; find, per count, the
        # first segment whose end reaches it.
        idx = np.searchsorted(seg_end_total, counts, side="left")
        idx = np.minimum(idx, rising.size - 1)
        span = seg_end_total[idx] - seg_start_total[idx]
        fraction = np.clip(
            (counts - seg_start_total[idx]) / span, 0.0, 1.0
        )
        return seg_start_time[idx] + fraction * (
            seg_end_time[idx] - seg_start_time[idx]
        )

    def value_at(self, times: np.ndarray) -> np.ndarray:
        """Cumulative count at each queried time (linear interpolation)."""
        return np.interp(
            np.asarray(times, dtype=np.float64),
            np.asarray(self._times),
            np.asarray(self._totals),
        )


def fifo_latencies(
    arrivals: CumulativeCurve,
    departures: CumulativeCurve,
    max_samples: int = 200_000,
    skip_fraction: float = 0.0,
) -> np.ndarray:
    """Per-write latencies for a FIFO fluid queue.

    Samples up to ``max_samples`` write indices uniformly across all
    *departed* writes and returns ``D^{-1}(n) - A^{-1}(n)`` for each. With
    ``skip_fraction > 0`` the earliest writes are excluded, mirroring the
    paper's exclusion of the initial warm-up period.
    """
    if not 0.0 <= skip_fraction < 1.0:
        raise ConfigurationError("skip_fraction must be within [0, 1)")
    completed = min(arrivals.final_total, departures.final_total)
    if completed <= 0:
        raise SimulationError("no writes completed; cannot compute latencies")
    lo = completed * skip_fraction
    count = int(min(max_samples, max(1, completed - lo)))
    indices = np.linspace(lo, completed, num=count, endpoint=False)
    latencies = departures.inverse(indices) - arrivals.inverse(indices)
    # Numerical jitter can produce tiny negatives when the queue is empty.
    return np.maximum(latencies, 0.0)
