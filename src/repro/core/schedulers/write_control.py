"""Interaction with writes: stop, slow down, or rate-limit (Section 5.1.2).

When the component constraint is violated, writes *must* stall — that part
is not negotiable; it is what keeps the tree stable. The design choice is
what to do *before* violation. The paper's Theorem 1 proves that
processing writes as quickly as possible minimizes every write's latency,
so the recommended control is :class:`StopControl` (full speed until the
constraint trips). :class:`SlowdownControl` reproduces LevelDB's graceful
degradation between a slowdown and a stop threshold, and
:class:`RateLimitControl` reproduces the "Limit" variant of the burst
experiment (Figure 13), both of which trade smoother throughput for larger
queuing latencies.

These three decide from the constraint's headroom alone
(:meth:`WriteControl.rate`), which is 0 exactly when the constraint is
violated. That is what lets the serving tier
(:mod:`repro.server.admission`) run the same objects over an engine's
``write_headroom``: the rate's unit is whatever the caller counts,
entries/s in the simulator and bytes/s on the wire.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

from ...errors import ConfigurationError
from ..components import MergeDescriptor, TreeSnapshot
from .constraints import ComponentConstraint


class WriteControl:
    """Computes the currently admissible in-memory write rate."""

    #: Human-readable control name for reports.
    name: str = "abstract"

    def admission_rate(
        self,
        tree: TreeSnapshot,
        constraint: ComponentConstraint,
        merges: Sequence[MergeDescriptor] = (),
        allocation: Mapping[int, float] | None = None,
        now: float = 0.0,
    ) -> float:
        """Maximum in-memory write rate (entries/s) permitted right now.

        ``math.inf`` means unthrottled: writes proceed at whatever speed
        memory allows. ``0.0`` means stalled. Executors additionally stop
        writes when no memory component has room, regardless of this
        value. ``merges`` and ``allocation`` describe the in-flight merge
        operations and their current bandwidth split, for controls (such
        as bLSM's spring) whose throttle tracks merge progress; the rest
        decide from the constraint's headroom alone, through :meth:`rate`.
        """
        return self.rate(constraint.headroom(tree))

    def rate(self, headroom: float) -> float:
        """The admissible rate at constraint ``headroom`` (0 = violated),
        in whatever unit the caller counts: entries/s in the simulator,
        bytes/s on the wire. Controls that need more than the headroom
        override :meth:`admission_rate` instead."""
        raise NotImplementedError(f"{self.name} decides from more than headroom")


class StopControl(WriteControl):
    """Process writes as quickly as possible; hard-stop on violation.

    The paper's recommendation (Theorem 1): any delay added before the
    constraint trips only increases queuing latency.
    """

    name = "stop"

    def rate(self, headroom: float) -> float:
        return math.inf if headroom > 0.0 else 0.0


class RateLimitControl(WriteControl):
    """A fixed ceiling on the in-memory write rate (Fig. 13's "Limit").

    Still stops entirely on constraint violation; below that, writes are
    admitted at no more than ``limit`` per second (entries or bytes, as
    the caller counts) even when the tree could absorb more.
    """

    name = "rate-limit"

    def __init__(self, limit: float) -> None:
        if limit <= 0 or not math.isfinite(limit):
            raise ConfigurationError("rate limit must be finite positive")
        self._limit = limit

    @property
    def limit(self) -> float:
        """The configured ceiling per second."""
        return self._limit

    def rate(self, headroom: float) -> float:
        return self._limit if headroom > 0.0 else 0.0

    def __repr__(self) -> str:
        return f"RateLimitControl(limit={self._limit})"


class SlowdownControl(WriteControl):
    """Graceful degradation between a slowdown and the stop threshold.

    Models LevelDB's L0 write throttle: full speed while constraint
    headroom exceeds ``start_fraction``, then a linear ramp from
    ``base_rate`` down to zero as headroom shrinks. In the simulator
    ``base_rate`` stands in for the unthrottled in-memory write speed and
    only shapes the ramp (the executor still caps admission by its own
    memory write rate); on the wire it is the byte rate ``limit`` caps at.
    """

    name = "slowdown"

    def __init__(self, base_rate: float, start_fraction: float = 0.33) -> None:
        if base_rate <= 0 or not math.isfinite(base_rate):
            raise ConfigurationError("base_rate must be finite positive")
        if not 0.0 < start_fraction <= 1.0:
            raise ConfigurationError("start_fraction must be in (0, 1]")
        self._base_rate = base_rate
        self._start_fraction = start_fraction

    def rate(self, headroom: float) -> float:
        if headroom >= self._start_fraction:
            return math.inf
        return self._base_rate * max(0.0, headroom) / self._start_fraction

    def __repr__(self) -> str:
        return (
            f"SlowdownControl(base_rate={self._base_rate}, "
            f"start_fraction={self._start_fraction})"
        )
