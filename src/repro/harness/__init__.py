"""The two-phase evaluation harness (the paper's methodology contribution)."""

from .charts import ascii_chart
from .report import emit, format_latency_profile, format_table, sparkline
from .spec import DEFAULT_SCALE, ExperimentSpec
from .sweeps import (
    compare_schedulers,
    scheduler_running_results,
    partition_size_sweep,
    size_ratio_sweep,
    utilization_sweep,
)
from .twophase import (
    TwoPhaseOutcome,
    build_tree,
    running_phase,
    testing_phase,
    two_phase,
)

__all__ = [
    "DEFAULT_SCALE",
    "ascii_chart",
    "ExperimentSpec",
    "TwoPhaseOutcome",
    "build_tree",
    "compare_schedulers",
    "emit",
    "format_latency_profile",
    "format_table",
    "partition_size_sweep",
    "running_phase",
    "scheduler_running_results",
    "size_ratio_sweep",
    "sparkline",
    "testing_phase",
    "two_phase",
    "utilization_sweep",
]
