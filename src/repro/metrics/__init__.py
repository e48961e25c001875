"""Measurement utilities: percentiles, windowed series, fluid queue curves.

This package is a leaf dependency shared by the simulator, the harness and
the benchmarks. Nothing in here knows about LSM-trees; it only knows about
time series, latency samples and FIFO fluid queues.
"""

from .curves import CumulativeCurve, fifo_latencies
from .percentiles import (
    STANDARD_PERCENTILES,
    percentile_profile,
    weighted_percentile_profile,
)
from .series import SeriesPoint, StepSeries, WindowedCounter, stall_windows

__all__ = [
    "CumulativeCurve",
    "STANDARD_PERCENTILES",
    "SeriesPoint",
    "StepSeries",
    "WindowedCounter",
    "fifo_latencies",
    "percentile_profile",
    "stall_windows",
    "weighted_percentile_profile",
]
