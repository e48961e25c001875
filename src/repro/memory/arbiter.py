"""The memory arbiter: each byte goes where it saves the most I/O.

Each tick, :class:`MemoryArbiter` estimates from every shard's
:meth:`~repro.engine.LSMStore.stats` deltas the I/O bytes one more byte
of each ``(shard, side)`` bucket would have saved (*Breaking Down
Memory Walls*; docs/memory.md derives both): ``ingested / (M * ln T)``
for a memtable of ``M`` bytes in a tree of size ratio ``T`` that holds
a component, and ghost-hit bytes over the ghost list's bound for a
block cache. It moves one constant step from the bucket saving the
least to the one saving the most; a window in which none saves more
than another moves nothing. Decisions are pure functions of the deltas
(the clock only gates *when* ``maybe_tick`` fires), and a tick is
all-or-nothing. Moves show as each engine's ``memory_budget_bytes``
gauges and a ``memory_rebalance`` tracer event.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable, Sequence

from ..engine.blockcache import ghost_bytes_for
from ..errors import ConfigurationError
from ..obs import MEMORY_REBALANCE, Observability
from .budget import SIDES, MemoryBudget, MemoryShares


@dataclass(frozen=True)
class RebalanceDecision:
    """What one tick concluded, whether or not it moved bytes.

    ``memtable_savings`` and ``cache_savings`` are, per shard, the I/O
    bytes one more byte of that bucket would have saved in the window.
    """

    applied: bool
    reason: str
    memtable_savings: tuple[float, ...]
    cache_savings: tuple[float, ...]
    before: MemoryShares
    after: MemoryShares


class MemoryArbiter:
    """Move one byte budget, a step at a time, to where it saves I/O.

    A target is what the arbiter observes and sets: ``stats()``,
    ``options.size_ratio`` and ``set_memory_budget(memtable, cache)``.
    """

    def __init__(
        self,
        budget: MemoryBudget,
        targets: Sequence,
        *,
        obs: Observability | None = None,
        clock: Callable[[], float] | None = None,
        interval: float = 1.0,
    ) -> None:
        if len(targets) != budget.num_shards:
            raise ConfigurationError(
                f"budget covers {budget.num_shards} shard(s) but "
                f"{len(targets)} target(s) were given"
            )
        if interval <= 0:
            raise ConfigurationError("rebalance interval must be positive")
        self.budget = budget
        # The caller owns the targets (and closes them); the arbiter
        # only reads their signals and sets their budgets.
        self.targets = targets
        self.obs = obs if obs is not None else Observability()
        self.interval = interval
        self._clock = clock if clock is not None else self.obs.clock
        self._lock = threading.Lock()
        self._log_ratios = [
            math.log(target.options.size_ratio) for target in targets
        ]
        self._prev = [target.stats() for target in targets]
        self._next_deadline = self._clock() + interval
        self._shares = budget.initial()
        for shard, target in enumerate(targets):
            target.set_memory_budget(*self._shares.shard(shard))
        self._publish_gauges()

    # -- public surface -------------------------------------------------

    @property
    def shares(self) -> MemoryShares:
        """The carving of the budget the shards hold now."""
        with self._lock:
            return self._shares

    @property
    def write_fraction(self) -> float:
        """Fraction of the budget the memtables hold now."""
        return self.shares.write_fraction

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

    # -- the rule -------------------------------------------------------

    def _savings(self, signals) -> dict[tuple[int, str], float]:
        """I/O bytes one more byte of each bucket would have saved."""
        shares = self._shares
        savings = {}
        for shard, (cur, old) in enumerate(zip(signals, self._prev)):
            memtable = shares.memtable_bytes[shard]
            # The window's ingest is rewritten once per level holding a
            # component, L times, and those merge bytes fall by
            # 1 / (L * M * ln T) per memtable byte: L cancels, and a
            # tree with no component merges nothing.
            merges = any(cur.components_per_level.values())
            ingested = max(0, cur.ingested_bytes - old.ingested_bytes)
            savings[shard, "memtable"] = (
                ingested / (memtable * self._log_ratios[shard])
                if merges else 0.0
            )
            savings[shard, "cache"] = max(
                0, cur.ghost_hit_bytes - old.ghost_hit_bytes
            ) / ghost_bytes_for(memtable, shares.cache_bytes[shard])
        return savings

    def _tick_locked(self) -> RebalanceDecision:
        signals = [target.stats() for target in self.targets]
        savings = self._savings(signals)
        before = after = self._shares
        # Ties go to the lower shard, memtable before cache, so a replay
        # of the same signals makes the same moves.
        buckets = [
            (shard, side)
            for shard in range(self.budget.num_shards)
            for side in SIDES
        ]
        gainer = max(buckets, key=lambda bucket: savings[bucket])
        givers = [
            bucket
            for bucket in buckets
            if bucket != gainer and before.spare(*bucket) > 0
        ]
        giver = min(givers, key=lambda bucket: savings[bucket], default=None)
        step = 0
        if giver is not None and savings[giver] < savings[gainer]:
            step = min(self.budget.step_bytes, before.spare(*giver))
            after = before.moved(giver, gainer, step)
            self._apply_locked(before, after)
        self._prev, self._shares = signals, after
        applied = step > 0
        reason = "steady"
        if applied:
            reason = (
                "write_pressure" if gainer[1] == "memtable"
                else "read_pressure"
            )
            self.obs.tracer.emit(
                MEMORY_REBALANCE,
                reason=reason,
                from_shard=giver[0],
                from_side=giver[1],
                to_shard=gainer[0],
                to_side=gainer[1],
                moved_bytes=step,
                saving_from=round(savings[giver], 6),
                saving_to=round(savings[gainer], 6),
                write_fraction_before=round(before.write_fraction, 4),
                write_fraction_after=round(after.write_fraction, 4),
                memtable_bytes_before=list(before.memtable_bytes),
                memtable_bytes_after=list(after.memtable_bytes),
                cache_bytes_before=list(before.cache_bytes),
                cache_bytes_after=list(after.cache_bytes),
            )
            self.obs.registry.counter(
                "memory_rebalances_total",
                help="Rebalances that moved a step of the budget.",
            ).inc()
        self.obs.registry.counter(
            "memory_arbiter_ticks_total",
            help="Arbiter control-loop evaluations.",
        ).inc()
        self._publish_gauges()
        shards = range(self.budget.num_shards)
        return RebalanceDecision(
            applied=applied,
            reason=reason,
            memtable_savings=tuple(savings[s, "memtable"] for s in shards),
            cache_savings=tuple(savings[s, "cache"] for s in shards),
            before=before,
            after=after,
        )

    def _apply_locked(
        self, before: MemoryShares, after: MemoryShares
    ) -> None:
        """Give every shard whose share changed its new one, or none: a
        shard that refuses (a closed store raises ``ClosedError``) puts
        the shards already given theirs back on ``before``."""
        done = []
        try:
            for shard, target in enumerate(self.targets):
                if after.shard(shard) != before.shard(shard):
                    target.set_memory_budget(*after.shard(shard))
                    done.append(shard)
        except BaseException:
            for shard in done:
                self.targets[shard].set_memory_budget(*before.shard(shard))
            raise

    def _publish_gauges(self) -> None:
        registry = self.obs.registry
        registry.gauge(
            "memory_budget_total_bytes",
            help="The node-wide byte budget the arbiter splits.",
        ).set(float(self.budget.total_bytes))
        registry.gauge(
            "memory_write_fraction",
            help="Fraction of the budget currently given to memtables.",
        ).set(self._shares.write_fraction)
