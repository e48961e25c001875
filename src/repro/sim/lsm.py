"""The fluid discrete-event LSM-tree simulator.

This is the substrate on which all of the paper's experiments are
reproduced. Real LSM write stalls arise from the mismatch between fast
in-memory writes and bandwidth-limited background I/O; on the paper's
testbed that mismatch plays out in wall-clock time, which a Python
process cannot measure faithfully (interpreter overhead would swamp the
I/O timing). So the simulator moves time itself into the model:

* Writes are a *fluid*: between events they flow at a piecewise-constant
  rate into the active memory component, constrained by the arrival
  process (open system), the memory write rate (CPU ceiling), and the
  write control's admission rate (stall logic).
* Flushes and merges consume a shared I/O bandwidth budget. Flushes get
  priority (Section 3.1's setup); the merge scheduler divides the
  remainder among in-flight merges.
* Merge outputs are computed analytically from the keyspace model —
  expected unique keys after reclamation — so component sizes, merge
  times, and therefore stalls are deterministic.
* Event boundaries are exactly the instants at which any rate changes:
  a memory component fills, a flush or merge completes, the arrival rate
  switches (bursts), or the write queue drains. Between events every
  state variable evolves linearly, so integration is exact.

The simulator exercises the *same* policy/scheduler/constraint/control
objects as the real storage engine, which is the point: scheduling
decisions, not I/O mechanics, are what the paper studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..core.components import Component, MergeDescriptor, TreeSnapshot, UidAllocator
from ..core.policies.base import MergePolicy
from ..core.schedulers.base import MergeScheduler
from ..core.schedulers.constraints import ComponentConstraint
from ..core.schedulers.write_control import StopControl, WriteControl
from ..errors import SimulationError
from ..metrics import CumulativeCurve, StepSeries, WindowedCounter
from ..workloads.arrivals import ArrivalProcess
from ..workloads.keyspace import KeyspaceModel
from .config import SimConfig
from .result import ForceEvent, MergeRecord, SimResult

_EPSILON = 1e-9
_FILL_EPSILON = 1e-6  # entries; absorbs float residue at the fill boundary
_QUEUE_EPSILON = 1e-6  # entries; a queue this small counts as drained
_BYTES_EPSILON = 1.0  # merges within one byte of done are done


@dataclass
class _FlushRun:
    """An in-flight flush: the memory component being written to disk."""

    raw_entries: float
    unique_entries: float
    total_bytes: float
    remaining_bytes: float
    profile: np.ndarray
    started_at: float


@dataclass
class _MergeRun:
    """Executor-side state of an in-flight merge."""

    descriptor: MergeDescriptor
    out_profile: np.ndarray
    out_total: float
    out_remaining: float
    in_total: float
    key_lo: float
    key_hi: float
    started_at: float


class SimulatedLSMTree:
    """Fluid simulation of one LSM-tree under a policy/scheduler pair.

    Parameters
    ----------
    config:
        The testbed (:class:`~repro.sim.config.SimConfig`).
    policy, scheduler, constraint:
        The merge policy, bandwidth allocator and component constraint.
    write_control:
        Interaction-with-writes mode; defaults to the paper-recommended
        :class:`~repro.core.schedulers.write_control.StopControl`.
    keyspace:
        Analytic key distribution model driving merge reclamation.
    arrivals:
        The arrival process (closed for the testing phase, constant or
        bursty for the running phase).
    initial_components:
        Pre-loaded disk components (see :mod:`repro.sim.bootstrap`),
        mirroring the paper's 100-million-record initial load.
    window:
        Width of throughput-averaging windows (paper: 30 s).
    """

    def __init__(
        self,
        config: SimConfig,
        policy: MergePolicy,
        scheduler: MergeScheduler,
        constraint: ComponentConstraint,
        keyspace: KeyspaceModel,
        arrivals: ArrivalProcess,
        write_control: WriteControl | None = None,
        initial_components: Iterable[Component] | None = None,
        window: float = 30.0,
    ) -> None:
        self._config = config
        self._policy = policy
        self._scheduler = scheduler
        self._constraint = constraint
        self._control = write_control if write_control is not None else StopControl()
        self._keyspace = keyspace
        self._arrivals = arrivals
        self._window = window
        self._uids = UidAllocator()

        # --- mutable simulation state ---
        self._now = 0.0
        self._memtable_fill = 0.0
        self._immutables: list[float] = []  # raw entry counts awaiting flush
        self._flush: _FlushRun | None = None
        self._levels: dict[int, list[Component]] = {}
        self._merges: list[MergeDescriptor] = []
        self._merge_runs: dict[int, _MergeRun] = {}
        self._allocation: dict[int, float] = {}
        self._queue = 0.0
        self._stalled_memory = False
        self._stall_started: float | None = None

        # --- traces ---
        self._arrival_curve = CumulativeCurve()
        self._departure_curve = CumulativeCurve()
        self._throughput = WindowedCounter(window)
        self._component_series = StepSeries()
        self._io_activity = WindowedCounter(window)
        self._merge_log: list[MergeRecord] = []
        self._force_events: list[ForceEvent] = []
        self._stall_intervals: list[tuple[float, float]] = []
        self._proc_values: list[float] = []
        self._proc_weights: list[float] = []

        for component in initial_components or ():
            # Re-register under this tree's allocator so bootstrap-built
            # components can never collide with runtime-created uids.
            component.uid = self._uids.next()
            self._levels.setdefault(component.level, []).append(component)
        self._component_series.record(0.0, self._component_count())

    # ------------------------------------------------------------------
    # small state helpers
    # ------------------------------------------------------------------

    def _component_count(self) -> int:
        return sum(len(components) for components in self._levels.values())

    def _snapshot(self) -> TreeSnapshot:
        ordered: list[Component] = []
        for level in sorted(self._levels):
            ordered.extend(self._levels[level])
        return TreeSnapshot(ordered)

    @property
    def clock(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def levels_view(self) -> dict[int, list[Component]]:
        """A copy of the per-level component lists (for tests/inspection)."""
        return {level: list(items) for level, items in self._levels.items()}

    # ------------------------------------------------------------------
    # rate computation
    # ------------------------------------------------------------------

    def _flush_bandwidth(self) -> float:
        if self._flush is None:
            return 0.0
        return self._config.bandwidth_bytes_per_s

    def _merge_budget(self) -> float:
        budget = self._config.bandwidth_bytes_per_s
        if self._config.flush_costs_io and self._flush is not None:
            budget -= self._flush_bandwidth()
        return max(budget, 0.0)

    def _reallocate(self) -> None:
        budget = self._merge_budget()
        if self._merges and budget > 0:
            snapshot = self._snapshot()
            self._allocation = dict(
                self._scheduler.allocate(self._merges, budget, snapshot)
            )
        else:
            self._allocation = {}

    def _admission_rate(self) -> float:
        snapshot = self._snapshot()
        admitted = self._control.admission_rate(
            snapshot, self._constraint, self._merges, self._allocation, self._now
        )
        return min(admitted, self._config.memory_write_rate)

    def _inflow(self, capacity: float, arrival_rate: float) -> float:
        """Current write-processing rate given capacity and arrivals."""
        if self._stalled_memory or capacity <= 0:
            return 0.0
        if math.isinf(arrival_rate):
            return capacity  # closed system: always more to write
        if self._queue > _QUEUE_EPSILON:
            return capacity  # draining the backlog
        return min(arrival_rate, capacity)

    # ------------------------------------------------------------------
    # event handling
    # ------------------------------------------------------------------

    def _rotate_memtable(self) -> bool:
        """Seal the active memory component; True if rotation happened.

        An empty active memtable rotates as a no-op success: there is
        nothing to seal, and flushing zero entries would create
        zero-entry disk components.
        """
        if self._memtable_fill <= _FILL_EPSILON:
            return True
        if len(self._immutables) >= self._config.num_memory_components - 1:
            return False
        self._immutables.append(self._memtable_fill)
        self._memtable_fill = 0.0
        self._maybe_start_flush()
        return True

    def _maybe_start_flush(self) -> None:
        if self._flush is not None or not self._immutables:
            return
        raw = self._immutables.pop(0)
        profile = self._keyspace.flush_profile(raw)
        unique = self._keyspace.unique_count(profile)
        total_bytes = max(unique * self._config.entry_bytes, _BYTES_EPSILON)
        self._flush = _FlushRun(
            raw_entries=raw,
            unique_entries=unique,
            total_bytes=total_bytes,
            remaining_bytes=total_bytes,
            profile=profile,
            started_at=self._now,
        )

    def _finish_flush(self) -> None:
        flush = self._flush
        if flush is None:
            raise SimulationError("flush completion without an active flush")
        self._flush = None
        component = Component(
            uid=self._uids.next(),
            level=0,
            size_bytes=flush.total_bytes,
            entry_count=flush.unique_entries,
            profile=flush.profile,
        )
        self._levels.setdefault(0, []).append(component)
        self._component_series.record(self._now, self._component_count())
        if self._config.force_at_end_only:
            self._force_events.append(ForceEvent(self._now, flush.total_bytes))
        # Keep flushing, then un-stall writers waiting for memory space.
        # The order matters: starting the next flush first frees an
        # immutable slot, so the waiting (full) active memtable can seal.
        self._maybe_start_flush()
        if self._stalled_memory and self._rotate_memtable():
            self._stalled_memory = False
        self._schedule_new_merges()

    def _merged_profile(self, inputs: Sequence[Component]) -> np.ndarray:
        """Expected unique-key profile of a merge's output.

        Components may cover different key slices (partitioned files), so
        the union is computed per elementary key interval: within an
        interval, covering components combine by the independence formula;
        across disjoint intervals, unique counts simply add.
        """
        bounds = sorted({c.key_lo for c in inputs} | {c.key_hi for c in inputs})
        if len(bounds) == 2:  # all inputs cover the same slice
            width = bounds[1] - bounds[0]
            if width >= 1.0 - _EPSILON:
                return self._keyspace.merge_profiles([c.profile for c in inputs])
            return self._keyspace.merge_slice(
                [c.profile.copy() for c in inputs], width
            )
        out_profile = self._keyspace.empty_profile()
        for lo, hi in zip(bounds, bounds[1:]):
            width = hi - lo
            if width <= _EPSILON:
                continue
            restricted = [
                c.profile * (width / c.key_width)
                for c in inputs
                if c.key_lo <= lo + _EPSILON and c.key_hi >= hi - _EPSILON
            ]
            if restricted:
                out_profile += self._keyspace.merge_slice(restricted, width)
        return out_profile

    def _start_merge(self, descriptor: MergeDescriptor) -> None:
        inputs = descriptor.inputs
        key_lo = min(c.key_lo for c in inputs)
        key_hi = max(c.key_hi for c in inputs)
        out_profile = self._merged_profile(inputs)
        unique = self._keyspace.unique_count(out_profile)
        out_total = max(unique * self._config.entry_bytes, _BYTES_EPSILON)
        run = _MergeRun(
            descriptor=descriptor,
            out_profile=out_profile,
            out_total=out_total,
            out_remaining=out_total,
            in_total=max(descriptor.input_bytes, _BYTES_EPSILON),
            key_lo=key_lo,
            key_hi=key_hi,
            started_at=self._now,
        )
        self._merges.append(descriptor)
        self._merge_runs[descriptor.uid] = run

    def _split_partitioned_output(
        self, run: _MergeRun
    ) -> list[Component]:
        """Split a partitioned merge's output into bounded-size files."""
        max_file = getattr(self._policy, "max_file_bytes", None)
        if max_file is None or run.descriptor.target_level < 1:
            return []
        count = max(1, int(math.ceil(run.out_total / max_file)))
        width = (run.key_hi - run.key_lo) / count
        unique = self._keyspace.unique_count(run.out_profile)
        files = []
        for index in range(count):
            files.append(
                Component(
                    uid=self._uids.next(),
                    level=run.descriptor.target_level,
                    size_bytes=run.out_total / count,
                    entry_count=unique / count,
                    key_lo=run.key_lo + index * width,
                    key_hi=run.key_lo + (index + 1) * width,
                    profile=run.out_profile / count,
                )
            )
        files[-1].key_hi = run.key_hi  # avoid floating drift at the seam
        return files

    def _finish_merge(self, uid: int) -> None:
        run = self._merge_runs.pop(uid)
        descriptor = run.descriptor
        self._merges.remove(descriptor)
        target = descriptor.target_level
        target_list = self._levels.setdefault(target, [])
        # Age position: output replaces its oldest input within the target
        # level (size-tiered windows, last-level self-merges); merges
        # arriving from a younger level append as the target's newest.
        input_ids = {c.uid for c in descriptor.inputs}
        position = len(target_list)
        for index, resident in enumerate(target_list):
            if resident.uid in input_ids:
                position = index
                break
        for level_list in self._levels.values():
            level_list[:] = [c for c in level_list if c.uid not in input_ids]
        descriptor.release_inputs()

        partitioned = self._split_partitioned_output(run)
        if partitioned:
            merged = target_list + partitioned
            merged.sort(key=lambda c: c.key_lo)
            self._levels[target] = merged
        else:
            unique = self._keyspace.unique_count(run.out_profile)
            if unique * self._config.entry_bytes > _BYTES_EPSILON:
                output = Component(
                    uid=self._uids.next(),
                    level=target,
                    size_bytes=unique * self._config.entry_bytes,
                    entry_count=unique,
                    key_lo=run.key_lo,
                    key_hi=run.key_hi,
                    profile=run.out_profile,
                )
                target_list.insert(min(position, len(target_list)), output)
        self._component_series.record(self._now, self._component_count())
        self._merge_log.append(
            MergeRecord(
                completed_at=self._now,
                started_at=run.started_at,
                input_count=len(descriptor.inputs),
                level0_inputs=sum(
                    1 for c in descriptor.inputs if c.level == 0
                ),
                input_bytes=run.in_total,
                output_bytes=run.out_total,
                target_level=target,
                reason=descriptor.reason,
            )
        )
        if self._config.force_at_end_only:
            self._force_events.append(ForceEvent(self._now, run.out_total))
        self._schedule_new_merges()

    def _schedule_new_merges(self) -> None:
        snapshot = self._snapshot()
        for descriptor in self._policy.select_merges(
            snapshot, self._uids, self._merges
        ):
            self._start_merge(descriptor)

    # ------------------------------------------------------------------
    # stall bookkeeping
    # ------------------------------------------------------------------

    def _note_stall_state(self, stalled: bool) -> None:
        if stalled and self._stall_started is None:
            self._stall_started = self._now
        elif not stalled and self._stall_started is not None:
            duration = self._now - self._stall_started
            if duration > _EPSILON:
                self._stall_intervals.append((self._stall_started, self._now))
                # The write caught at the stall's head waited it out.
                self._proc_values.append(duration)
                self._proc_weights.append(1.0)
            self._stall_started = None

    # ------------------------------------------------------------------
    # the main loop
    # ------------------------------------------------------------------

    def run(self, duration: float) -> SimResult:
        """Simulate ``duration`` virtual seconds and return the traces."""
        if duration <= 0:
            raise SimulationError("run duration must be positive")
        config = self._config
        memtable_capacity = config.memory_component_entries
        closed = math.isinf(self._arrivals.rate_at(0.0))
        events = 0
        self._schedule_new_merges()
        self._reallocate()

        while self._now < duration - _EPSILON:
            events += 1
            if events > config.max_events:
                raise SimulationError(
                    f"simulation exceeded {config.max_events} events; "
                    "likely a runaway configuration"
                )

            arrival_rate = self._arrivals.rate_at(self._now)
            capacity = self._admission_rate()
            demand = (
                math.isinf(arrival_rate)
                or arrival_rate > 0
                or self._queue > _QUEUE_EPSILON
            )
            inflow = self._inflow(capacity, arrival_rate)
            self._note_stall_state(demand and inflow <= _EPSILON)

            # --- candidate next events ---
            horizon = duration
            candidates = [horizon, self._arrivals.next_change(self._now)]
            if inflow > 0:
                candidates.append(
                    self._now + (memtable_capacity - self._memtable_fill) / inflow
                )
            if (
                self._queue > _QUEUE_EPSILON
                and not math.isinf(arrival_rate)
                and inflow > arrival_rate
            ):
                candidates.append(
                    self._now + self._queue / (inflow - arrival_rate)
                )
            flush_bw = self._flush_bandwidth()
            if self._flush is not None and flush_bw > 0:
                candidates.append(
                    self._now + self._flush.remaining_bytes / flush_bw
                )
            for uid, bandwidth in self._allocation.items():
                if bandwidth > 0:
                    run = self._merge_runs[uid]
                    candidates.append(self._now + run.out_remaining / bandwidth)
            if config.reallocation_interval is not None:
                candidates.append(self._now + config.reallocation_interval)

            next_time = min(candidates)
            if next_time < self._now - _EPSILON:
                raise SimulationError("event time went backwards")
            next_time = max(next_time, self._now)
            dt = next_time - self._now

            # --- integrate the fluid over [now, next_time) ---
            if dt > 0:
                written = inflow * dt
                # Extend even when nothing was written: the departure
                # curve must record stalls as flat segments, or latency
                # inversion would interpolate progress across them.
                self._departure_curve.extend(
                    next_time, self._departure_curve.final_total + written
                )
                if written > 0:
                    self._throughput.add(self._now, next_time, written)
                    self._memtable_fill = min(
                        memtable_capacity, self._memtable_fill + written
                    )
                    if capacity > 0:
                        self._proc_values.append(1.0 / capacity)
                        self._proc_weights.append(written)
                if not closed:
                    arrived = (
                        0.0 if math.isinf(arrival_rate) else arrival_rate * dt
                    )
                    self._arrival_curve.extend(
                        next_time, self._arrival_curve.final_total + arrived
                    )
                    self._queue = max(0.0, self._queue + arrived - written)
                    if self._queue < _QUEUE_EPSILON:
                        self._queue = 0.0
                if self._flush is not None:
                    self._flush.remaining_bytes -= flush_bw * dt
                io_rate = flush_bw
                for uid, bandwidth in self._allocation.items():
                    if bandwidth <= 0:
                        continue
                    run = self._merge_runs[uid]
                    run.out_remaining -= bandwidth * dt
                    consumed = bandwidth * dt * run.in_total / run.out_total
                    run.descriptor.remaining_input_bytes = max(
                        0.0, run.descriptor.remaining_input_bytes - consumed
                    )
                    io_rate += bandwidth
                if io_rate > 0:
                    self._io_activity.add(self._now, next_time, io_rate * dt)

            self._now = next_time

            # --- fire whatever became due ---
            if self._memtable_fill >= memtable_capacity - _FILL_EPSILON:
                # A successful rotation must clear any memory stall: the
                # stall flag tracks "active memtable sealed but no slot",
                # and leaving it set after a slot freed up would later
                # rotate an empty memtable into a zero-entry component.
                self._stalled_memory = not self._rotate_memtable()
            if (
                self._flush is not None
                and self._flush.remaining_bytes <= _BYTES_EPSILON
            ):
                self._finish_flush()
            for uid in [
                uid
                for uid, run in self._merge_runs.items()
                if run.out_remaining <= _BYTES_EPSILON
                and self._allocation.get(uid, 0.0) > 0
            ]:
                self._finish_merge(uid)
            self._reallocate()

        # Close the books: end any open stall, flatten the curves.
        self._note_stall_state(False)
        if closed:
            # The closed model's arrivals are its departures by definition.
            self._arrival_curve.extend(
                self._now, self._departure_curve.final_total
            )
        return SimResult(
            duration=duration,
            window=self._window,
            arrivals=self._arrival_curve,
            departures=self._departure_curve,
            throughput=self._throughput,
            components=self._component_series,
            io_activity=self._io_activity,
            merge_log=self._merge_log,
            force_events=self._force_events,
            stall_intervals=self._stall_intervals,
            processing_values=np.asarray(self._proc_values, dtype=np.float64),
            processing_weights=np.asarray(self._proc_weights, dtype=np.float64),
            closed_system=closed,
            final_queue_length=self._queue,
        )
