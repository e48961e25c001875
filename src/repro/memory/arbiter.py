"""The memory arbiter: a feedback controller over the node's budget.

:class:`MemoryArbiter` watches every shard's
:meth:`~repro.engine.LSMStore.stats` snapshot and steers two levers of
one :class:`~repro.memory.MemoryBudget`:

* the **write/read split** — both demands are measured in bytes and
  the split tracks their ratio: ingested bytes demand write memory,
  cache-miss bytes (misses x the block size they re-read from disk)
  demand read memory, and memtable fill or write stalls boost the
  write side further;
* the **per-shard shares** — within each side, shards are weighted by
  an exponential moving average of their recent activity (ingested
  bytes for write memory, lookups for read memory), so a hot read
  shard grows its cache at the expense of idle neighbours.

Every decision is a pure function of the observed signal deltas: the
clock is injectable and only gates *when* ``maybe_tick`` fires, never
*what* a tick decides, so tests drive the controller with a fake clock
and fixed workloads and get byte-identical shares. Applied decisions
are visible twice over — per-component ``memory_budget_bytes`` gauges
set by each engine, and a ``memory_rebalance`` tracer event carrying
the before/after shares and the pressures that triggered the move.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Protocol, Sequence

from ..errors import ConfigurationError
from ..obs import MEMORY_REBALANCE, Observability
from .budget import MemoryBudget, MemoryShares

#: Bytes a block-cache miss re-reads from disk (the engine's block size):
#: what turns a miss count into read demand comparable to ingested bytes.
MISS_COST_BYTES = 4096


class MemoryTarget(Protocol):
    """What the arbiter needs from a shard: observe and apply."""

    def stats(self): ...  # pragma: no cover - protocol

    def set_memory_budget(
        self, memtable_bytes: int, cache_bytes: int
    ) -> None: ...  # pragma: no cover - protocol


@dataclass(frozen=True)
class RebalanceDecision:
    """What one tick concluded, whether or not it moved bytes."""

    applied: bool
    reason: str
    write_pressure: float
    read_pressure: float
    before: MemoryShares
    after: MemoryShares


class MemoryArbiter:
    """Periodically re-split one memory budget across shards.

    The controller is deliberately conservative: the write fraction
    moves at most ``step_fraction`` per tick and only when the pressure
    difference clears ``deadband``, so a noisy window cannot slosh the
    budget back and forth. Shares are re-applied only when the integer
    byte targets actually changed.
    """

    def __init__(
        self,
        budget: MemoryBudget,
        targets: Sequence[MemoryTarget],
        *,
        obs: Observability | None = None,
        clock: Callable[[], float] | None = None,
        interval: float = 1.0,
        write_fraction: float = 0.5,
        step_fraction: float = 0.05,
        deadband: float = 0.05,
        smoothing: float = 0.5,
        apply_initial: bool = True,
    ) -> None:
        if len(targets) != budget.num_shards:
            raise ConfigurationError(
                f"budget covers {budget.num_shards} shard(s) but "
                f"{len(targets)} target(s) were given"
            )
        if interval <= 0:
            raise ConfigurationError("rebalance interval must be positive")
        if not 0.0 < step_fraction <= 0.5:
            raise ConfigurationError("step fraction must be in (0, 0.5]")
        if not 0.0 <= deadband < 1.0:
            raise ConfigurationError("deadband must be in [0, 1)")
        if not 0.0 < smoothing <= 1.0:
            raise ConfigurationError("smoothing must be in (0, 1]")
        self.budget = budget
        # The caller owns the targets (and closes them); the arbiter
        # only reads their signals and sets their budgets.
        self.targets = targets
        self.obs = obs if obs is not None else Observability()
        self.interval = interval
        self.step_fraction = step_fraction
        self.deadband = deadband
        self.smoothing = smoothing
        self._clock = clock if clock is not None else self.obs.clock
        self._lock = threading.Lock()
        self._write_fraction = budget.clamp_fraction(write_fraction)
        # EMA-smoothed activity weights, one per shard. Idle shards keep
        # a small epsilon so a quiet shard never collapses to zero and
        # can re-grow without a discontinuity.
        self._write_weights = [1.0] * budget.num_shards
        self._read_weights = [1.0] * budget.num_shards
        self._prev = [target.stats() for target in self.targets]
        self._next_deadline = self._clock() + interval
        self._shares = self.budget.split(
            self._write_fraction, self._write_weights, self._read_weights
        )
        if apply_initial:
            self._apply_locked(self._shares)
        self._publish_gauges()

    # -- public surface -------------------------------------------------

    @property
    def shares(self) -> MemoryShares:
        """The most recently computed carving of the budget."""
        with self._lock:
            return self._shares

    @property
    def write_fraction(self) -> float:
        with self._lock:
            return self._write_fraction

    def maybe_tick(self) -> RebalanceDecision | None:
        """Run one tick if the rebalance interval has elapsed."""
        now = self._clock()
        with self._lock:
            if now < self._next_deadline:
                return None
            self._next_deadline = now + self.interval
            return self._tick_locked()

    def tick(self) -> RebalanceDecision:
        """Run one tick unconditionally (tests and CLI benches)."""
        with self._lock:
            self._next_deadline = self._clock() + self.interval
            return self._tick_locked()

    # -- the controller -------------------------------------------------

    def _tick_locked(self) -> RebalanceDecision:
        signals = [target.stats() for target in self.targets]
        prev, self._prev = self._prev, signals

        ingest_deltas = [
            max(0, cur.ingested_bytes - old.ingested_bytes)
            for cur, old in zip(signals, prev)
        ]
        # A get a cached row answered looks up no block, but it is read
        # traffic the cache served all the same.
        lookup_deltas = [
            max(
                0,
                (cur.cache_hits + cur.cache_misses + cur.row_hits)
                - (old.cache_hits + old.cache_misses + old.row_hits),
            )
            for cur, old in zip(signals, prev)
        ]
        miss_delta = sum(
            max(0, cur.cache_misses - old.cache_misses)
            for cur, old in zip(signals, prev)
        )
        stall_delta = sum(
            max(0, cur.write_stalls - old.write_stalls)
            for cur, old in zip(signals, prev)
        )

        # Per-shard weights: EMA of recent activity, +1 epsilon so an
        # idle shard keeps a sliver of each pool.
        alpha = self.smoothing
        self._write_weights = [
            (1 - alpha) * weight + alpha * (delta + 1.0)
            for weight, delta in zip(self._write_weights, ingest_deltas)
        ]
        self._read_weights = [
            (1 - alpha) * weight + alpha * (delta + 1.0)
            for weight, delta in zip(self._read_weights, lookup_deltas)
        ]

        # Both demands in bytes, so they compare directly: ingested
        # bytes want write memory; each miss re-read roughly one block
        # from disk and wants cache. The split tracks the demand ratio;
        # a quiet window (no traffic) holds position rather than
        # drifting. Memtable fill and actual stalls are leading
        # indicators the byte ratio can lag, so they boost the write
        # side on top.
        total_ingest = sum(ingest_deltas)
        miss_bytes = miss_delta * MISS_COST_BYTES
        traffic = total_ingest + miss_bytes
        if traffic > 0:
            demand = total_ingest / traffic
        else:
            demand = self._write_fraction
        fill = max(signal.memory_fill for signal in signals)
        demand = min(
            1.0,
            demand + 0.25 * fill + (0.5 if stall_delta > 0 else 0.0),
        )
        write_pressure = demand
        read_pressure = 1.0 - demand

        fraction = self._write_fraction
        gap = demand - fraction
        if abs(gap) > self.deadband:
            step = max(-self.step_fraction, min(self.step_fraction, gap))
            fraction = self.budget.clamp_fraction(fraction + step)
        before = self._shares
        after = self.budget.split(
            fraction, self._write_weights, self._read_weights
        )
        self._write_fraction = fraction

        changed = (
            after.memtable_bytes != before.memtable_bytes
            or after.cache_bytes != before.cache_bytes
        )
        if changed:
            # A closed target refuses its share (ClosedError) before it
            # takes it, and the tick stops there.
            self._apply_locked(after)
            self._shares = after
            if stall_delta > 0:
                reason = "write_stalls"
            elif abs(gap) > self.deadband:
                reason = (
                    "write_pressure" if gap > 0 else "read_pressure"
                )
            else:
                reason = "share_drift"
            self.obs.tracer.emit(
                MEMORY_REBALANCE,
                reason=reason,
                write_pressure=round(write_pressure, 4),
                read_pressure=round(read_pressure, 4),
                write_fraction_before=round(before.write_fraction, 4),
                write_fraction_after=round(after.write_fraction, 4),
                memtable_bytes_before=list(before.memtable_bytes),
                memtable_bytes_after=list(after.memtable_bytes),
                cache_bytes_before=list(before.cache_bytes),
                cache_bytes_after=list(after.cache_bytes),
            )
            self.obs.registry.counter(
                "memory_rebalances_total",
                help="Rebalances that changed at least one byte share.",
            ).inc()
        else:
            reason = "steady"
        self.obs.registry.counter(
            "memory_arbiter_ticks_total",
            help="Arbiter control-loop evaluations.",
        ).inc()
        self._publish_gauges()
        return RebalanceDecision(
            applied=changed,
            reason=reason,
            write_pressure=write_pressure,
            read_pressure=read_pressure,
            before=before,
            after=self._shares,
        )

    def _apply_locked(self, shares: MemoryShares) -> None:
        for target, memtable_bytes, cache_bytes in zip(
            self.targets, shares.memtable_bytes, shares.cache_bytes
        ):
            target.set_memory_budget(memtable_bytes, cache_bytes)

    def _publish_gauges(self) -> None:
        registry = self.obs.registry
        registry.gauge(
            "memory_budget_total_bytes",
            help="The node-wide byte budget the arbiter splits.",
        ).set(float(self.budget.total_bytes))
        registry.gauge(
            "memory_write_fraction",
            help="Fraction of the budget currently given to memtables.",
        ).set(self._write_fraction)
