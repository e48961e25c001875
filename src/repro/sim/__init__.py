"""The discrete-event LSM simulator: the reproduction's testbed substrate."""

from .bootstrap import (
    loaded_layout_tree,
    loaded_partitioned_tree,
    loaded_size_tiered_stack,
)
from .config import MiB, SimConfig, bench_config, paper_config
from .lsm import SimulatedLSMTree
from .queries import (
    QueryDevice,
    QueryOutcome,
    QueryWorkload,
    pages_per_query,
    simulate_queries,
)
from .result import ForceEvent, MergeRecord, SimResult
from .secondary import (
    DatasetResult,
    DatasetTarget,
    EagerLookupControl,
    SecondarySetup,
    simulate_dataset,
)

__all__ = [
    "DatasetResult",
    "DatasetTarget",
    "EagerLookupControl",
    "ForceEvent",
    "MergeRecord",
    "MiB",
    "QueryDevice",
    "QueryOutcome",
    "QueryWorkload",
    "SecondarySetup",
    "SimConfig",
    "SimResult",
    "SimulatedLSMTree",
    "bench_config",
    "pages_per_query",
    "simulate_dataset",
    "simulate_queries",
    "loaded_layout_tree",
    "loaded_partitioned_tree",
    "loaded_size_tiered_stack",
    "paper_config",
]
