"""Secondary-index maintenance simulation (Section 7).

An LSM dataset is a primary index plus ``K`` secondary indexes, each an
LSM-tree of its own; all trees share the memory budget and the I/O
bandwidth budget, and each is merged independently by its own scheduler
instance. Two maintenance strategies:

* **Lazy** — ingestion appends the new entry to the primary and to each
  secondary index; no lookups, no cleanup. The dataset behaves like a set
  of parallel LSM-trees; a write has completed when the slowest tree has
  absorbed it.
* **Eager** — ingestion first point-looks-up the old record in the
  primary index to generate anti-matter for the secondaries, then writes
  one primary entry and *two* entries per secondary (new + anti-matter).
  The point lookups become the ingestion bottleneck, and since lookup
  throughput varies with the primary tree's component count (and with
  background merge I/O), the processing rate fluctuates — which is why
  Figure 26 shows larger write latencies, and why Figure 27 shows the
  utilization must be dropped well below 95% to tame them.

The trees ingest the same stream at the same rate, so the bandwidth
budget is split statically in proportion to the bytes each tree writes
per ingested record; both secondaries are identical, so one
representative secondary tree is simulated and the dataset's departure
curve is the slower of (primary, secondary) at each write index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..core import model
from ..core.components import MergeDescriptor, TreeSnapshot, UidAllocator
from ..core.factory import build_constraint, build_policy, build_scheduler
from ..core.schedulers import ComponentConstraint, WriteControl
from ..errors import ConfigurationError
from ..metrics import percentile_profile
from ..workloads import (
    ArrivalProcess,
    ClosedArrivals,
    ConstantArrivals,
    KeyspaceModel,
    UniformKeys,
)
from .bootstrap import loaded_layout_tree
from .config import SimConfig, bench_config
from .lsm import SimulatedLSMTree
from .queries import QueryDevice, pages_per_query, QueryWorkload
from .result import SimResult

#: The lookup-capacity modulation of :class:`EagerLookupControl`: up to
#: a quarter of the capacity, on a ten-minute cycle.
_SWING_AMPLITUDE = 0.25
_SWING_PERIOD = 600.0


@dataclass(frozen=True)
class SecondarySetup:
    """Configuration of the Section 7 dataset.

    The paper builds two secondary indexes; primary records are 1 KB and
    secondary entries (secondary key + primary key) are small. All three
    trees use tiering with size ratio 3. Eager maintenance uses 8 writer
    threads for its point lookups; lazy needs only one.
    """

    strategy: str = "lazy"
    secondary_count: int = 2
    secondary_entry_bytes: float = 128.0
    size_ratio: int = 3
    lookup_threads: int = 8
    scale: float = 128.0

    def __post_init__(self) -> None:
        if self.strategy not in ("lazy", "eager"):
            raise ConfigurationError(f"unknown strategy {self.strategy!r}")
        if self.secondary_count < 1:
            raise ConfigurationError("need at least one secondary index")
        if self.secondary_entry_bytes <= 0:
            raise ConfigurationError("secondary entries must have positive size")

    @property
    def entries_per_write_secondary(self) -> float:
        """Secondary-index entries produced per ingested record."""
        return 2.0 if self.strategy == "eager" else 1.0

    def bandwidth_shares(self, config: SimConfig) -> tuple[float, float]:
        """(primary, per-secondary) share of the I/O budget."""
        primary_bytes = config.entry_bytes
        secondary_bytes = (
            self.secondary_entry_bytes * self.entries_per_write_secondary
        )
        total = primary_bytes + self.secondary_count * secondary_bytes
        return primary_bytes / total, secondary_bytes / total


class EagerLookupControl(WriteControl):
    """Write control modelling eager maintenance's point-lookup ceiling.

    The admissible ingestion rate is the point-lookup throughput of the
    primary tree: ``threads`` concurrent lookups against a device whose
    read capacity is depressed by ongoing merge I/O, each lookup paying a
    Bloom false-positive page per extra component. More components or
    heavier merge activity → slower lookups → slower ingestion: the
    variance source the paper identifies.
    """

    name = "eager-lookup"

    def __init__(
        self,
        config: SimConfig,
        device: QueryDevice,
        threads: int = 8,
    ) -> None:
        if threads < 1:
            raise ConfigurationError("need at least one lookup thread")
        self._config = config
        self._device = device
        self._threads = threads
        self._workload = QueryWorkload.point_lookup(threads)

    def admission_rate(
        self,
        tree: TreeSnapshot,
        constraint: ComponentConstraint,
        merges: Sequence[MergeDescriptor] = (),
        allocation: Mapping[int, float] | None = None,
        now: float = 0.0,
    ) -> float:
        if constraint.is_violated(tree):
            return 0.0
        pages = pages_per_query(
            self._workload, float(tree.count()), self._device, self._config.entry_bytes
        )
        merge_rate = sum(allocation.values()) if allocation else 0.0
        write_fraction = min(merge_rate / self._config.bandwidth_bytes_per_s, 1.0)
        capacity = self._device.read_pages_per_s * (
            1.0 - self._device.contention * write_fraction
        )
        # The "inherent variance of the point lookup throughput" (Section
        # 7.2): measured lookup rates on a shared SSD swing with ongoing
        # disk activity on timescales of minutes. The fluid model would
        # otherwise average this away, so it is reproduced as a
        # deterministic slow modulation of the lookup capacity — variance
        # with a reproducible phase rather than a random seed.
        swing = 0.5 * (1.0 + math.sin(2.0 * math.pi * now / _SWING_PERIOD))
        service = self._device.op_latency_s + pages / self._device.read_pages_per_s
        rate = min(capacity / pages, self._threads / service)
        return rate * (1.0 - _SWING_AMPLITUDE * swing)


@dataclass
class DatasetResult:
    """Results of one dataset-level run (primary + representative
    secondary), with combined FIFO latencies."""

    primary: SimResult
    secondary: SimResult
    closed_system: bool
    #: Secondary-tree entries one ingested record makes.
    secondary_entries_per_write: float = 1.0

    @property
    def total_writes(self) -> float:
        """Records every tree took."""
        per_write = self.secondary_entries_per_write
        return min(self.primary.total_writes,
                   self.secondary.total_writes / per_write)

    @property
    def final_queue_length(self) -> float:
        """Records some tree had yet to take when the run ended."""
        per_write = self.secondary_entries_per_write
        return max(self.primary.final_queue_length,
                   self.secondary.final_queue_length / per_write)

    def measured_throughput(self, exclude_initial: float = 0.0) -> float:
        """Dataset ingest throughput, records/s = the slower tree's."""
        per_write = self.secondary_entries_per_write
        return min(
            self.primary.measured_throughput(exclude_initial),
            self.secondary.measured_throughput(exclude_initial) / per_write,
        )

    def throughput_series(self) -> np.ndarray:
        """Per-window ingest throughput, records/s (slower tree per
        window)."""
        p = self.primary.throughput_series()
        s = self.secondary.throughput_series() / self.secondary_entries_per_write
        size = min(p.size, s.size)
        return np.minimum(p[:size], s[:size])

    def write_latencies(self, max_samples: int = 100_000) -> np.ndarray:
        """Per-write latency: a write completes when every tree took it
        — the secondary, all ``secondary_entries_per_write`` entries."""
        if self.closed_system:
            raise ConfigurationError(
                "write latencies are undefined for the closed system model"
            )
        per_write = self.secondary_entries_per_write
        completed = min(
            self.primary.departures.final_total,
            self.secondary.departures.final_total / per_write,
            self.primary.arrivals.final_total,
        )
        if completed <= 0:
            raise ConfigurationError("no writes completed")
        indices = np.linspace(0, completed, num=max_samples, endpoint=False)
        arrive = self.primary.arrivals.inverse(indices)
        depart_p = self.primary.departures.inverse(indices)
        depart_s = self.secondary.departures.inverse(indices * per_write)
        return np.maximum(np.maximum(depart_p, depart_s) - arrive, 0.0)

    def write_latency_profile(
        self, levels: tuple[float, ...] = (50.0, 90.0, 99.0, 99.9)
    ) -> dict[float, float]:
        """Percentile write latencies across the dataset."""
        return percentile_profile(self.write_latencies(), levels)

    def stall_count(self) -> int:
        """Stalls across both simulated trees."""
        return self.primary.stall_count() + self.secondary.stall_count()


def _tree_for(
    setup: SecondarySetup,
    config: SimConfig,
    entry_bytes: float,
    bandwidth: float,
    arrival_multiplier: float,
    arrivals: ArrivalProcess,
    scheduler_name: str,
    control: WriteControl | None,
) -> SimulatedLSMTree:
    tree_config = config.with_(
        entry_bytes=entry_bytes,
        bandwidth_bytes_per_s=bandwidth,
    )
    levels = model.levels_for_tiering(
        tree_config.total_keys, tree_config.memory_component_entries, setup.size_ratio
    )
    policy = build_policy(
        "tiering", setup.size_ratio, levels, tree_config.memory_component_bytes
    )
    keyspace = KeyspaceModel(UniformKeys(tree_config.total_keys))
    components = loaded_layout_tree(policy, keyspace, tree_config, UidAllocator())
    if isinstance(arrivals, ConstantArrivals):
        arrivals = ConstantArrivals(arrivals.rate * arrival_multiplier)
    return SimulatedLSMTree(
        config=tree_config,
        policy=policy,
        scheduler=build_scheduler(scheduler_name, policy),
        constraint=build_constraint("global", policy),
        keyspace=keyspace,
        arrivals=arrivals,
        write_control=control,
        initial_components=components,
    )


def simulate_dataset(
    setup: SecondarySetup,
    arrivals: ArrivalProcess,
    scheduler: str = "fair",
    duration: float = 7200.0,
    config: SimConfig | None = None,
) -> DatasetResult:
    """Run the primary and a representative secondary tree.

    The primary tree carries the eager strategy's lookup-bound write
    control; secondary trees are pure write targets (entries per write
    scaled into their bandwidth share and arrival rate).
    """
    if config is None:
        config = bench_config(setup.scale)
    primary_share, secondary_share = setup.bandwidth_shares(config)
    budget = config.bandwidth_bytes_per_s
    control: WriteControl | None = None
    if setup.strategy == "eager":
        device = QueryDevice.for_config(config)
        control = EagerLookupControl(config, device, setup.lookup_threads)
        # The lookup throttle varies continuously with time; refresh the
        # admission rate between events so the modulation is observed.
        config = config.with_(reallocation_interval=15.0)
    primary = _tree_for(
        setup,
        config,
        entry_bytes=config.entry_bytes,
        bandwidth=budget * primary_share,
        arrival_multiplier=1.0,
        arrivals=arrivals,
        scheduler_name=scheduler,
        control=control,
    )
    secondary = _tree_for(
        setup,
        config,
        entry_bytes=setup.secondary_entry_bytes,
        bandwidth=budget * secondary_share,
        arrival_multiplier=setup.entries_per_write_secondary,
        arrivals=arrivals,
        scheduler_name=scheduler,
        control=None,
    )
    closed = math.isinf(arrivals.rate_at(0.0))
    return DatasetResult(
        primary=primary.run(duration),
        secondary=secondary.run(duration),
        closed_system=closed,
        secondary_entries_per_write=setup.entries_per_write_secondary,
    )


@dataclass(frozen=True)
class DatasetTarget:
    """The dataset as a :func:`repro.harness.two_phase` target.

    ``closed()`` is the testing phase: the closed model and the fair
    scheduler, its throughput measured after ``warmup``. ``open(rate)``
    is the running phase: constant arrivals at ``rate`` under
    ``scheduler``.
    """

    setup: SecondarySetup
    scheduler: str = "fair"
    testing_duration: float = 7200.0
    running_duration: float = 7200.0
    warmup: float = 1200.0

    def closed(self) -> tuple[float, DatasetResult]:
        testing = simulate_dataset(self.setup, ClosedArrivals(), "fair",
                                   self.testing_duration)
        return testing.measured_throughput(self.warmup), testing

    def open(self, rate: float) -> DatasetResult:
        return simulate_dataset(self.setup, ConstantArrivals(rate),
                                self.scheduler, self.running_duration)
