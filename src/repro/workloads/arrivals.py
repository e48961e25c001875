"""Arrival processes: how quickly clients submit writes.

The paper distinguishes the *closed* system model (the testing phase: a
fixed set of clients writes as fast as the LSM-tree will accept) from the
*open* system model (the running phase: writes arrive at an externally
fixed rate and queue when the tree cannot keep up). An arrival process
here is a piecewise-constant rate function over virtual time; the closed
model is represented by an infinite rate, which makes the simulator's
admission logic uniform across both phases.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

from ..errors import ConfigurationError


class ArrivalProcess(ABC):
    """A piecewise-constant write arrival rate over virtual time."""

    @abstractmethod
    def rate_at(self, time: float) -> float:
        """Arrival rate (entries/second) in effect at ``time``.

        ``math.inf`` denotes the closed system model: clients submit the
        next write the moment the previous one is accepted.
        """

    @abstractmethod
    def next_change(self, time: float) -> float:
        """The next instant strictly after ``time`` at which the rate
        changes, or ``math.inf`` if the rate is constant forever after."""


class ClosedArrivals(ArrivalProcess):
    """The closed system model: write as much data as possible."""

    def rate_at(self, time: float) -> float:
        return math.inf

    def next_change(self, time: float) -> float:
        return math.inf

    def __repr__(self) -> str:
        return "ClosedArrivals()"


class ConstantArrivals(ArrivalProcess):
    """Open system with a constant arrival rate (the running phase)."""

    def __init__(self, rate: float) -> None:
        if rate <= 0 or not math.isfinite(rate):
            raise ConfigurationError("constant arrival rate must be finite positive")
        self._rate = rate

    @property
    def rate(self) -> float:
        """The constant arrival rate in entries/second."""
        return self._rate

    def rate_at(self, time: float) -> float:
        return self._rate

    def next_change(self, time: float) -> float:
        return math.inf

    def __repr__(self) -> str:
        return f"ConstantArrivals(rate={self._rate})"


@dataclass(frozen=True)
class BurstPhase:
    """One leg of a repeating burst schedule."""

    duration: float
    rate: float


class BurstyArrivals(ArrivalProcess):
    """Open system alternating between phases of different rates.

    The paper's burst experiment (Fig. 13) alternates 25 minutes at
    2000 records/s with 5 minutes at 8000 records/s; that is
    ``BurstyArrivals([BurstPhase(1500, 2000), BurstPhase(300, 8000)])``.
    The schedule repeats indefinitely.
    """

    def __init__(self, phases: list[BurstPhase]) -> None:
        if not phases:
            raise ConfigurationError("burst schedule needs at least one phase")
        for phase in phases:
            if phase.duration <= 0:
                raise ConfigurationError("burst phase duration must be positive")
            if phase.rate < 0 or not math.isfinite(phase.rate):
                raise ConfigurationError("burst phase rate must be finite >= 0")
        self._phases = list(phases)
        self._cycle = sum(phase.duration for phase in phases)

    def _locate(self, time: float) -> tuple[int, float]:
        """Return (phase index, time remaining in that phase)."""
        offset = time % self._cycle
        for index, phase in enumerate(self._phases):
            if offset < phase.duration:
                return index, phase.duration - offset
            offset -= phase.duration
        # Floating-point edge: offset == cycle length maps to phase 0.
        return 0, self._phases[0].duration

    def rate_at(self, time: float) -> float:
        index, _ = self._locate(time)
        return self._phases[index].rate

    def next_change(self, time: float) -> float:
        _, remaining = self._locate(time)
        return time + remaining

    def __repr__(self) -> str:
        legs = ", ".join(f"{p.rate}/s x {p.duration}s" for p in self._phases)
        return f"BurstyArrivals([{legs}])"
