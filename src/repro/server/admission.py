"""Stall-aware admission control for the serving tier.

The paper's taxonomy of how merges interact with writes (stop vs
graceful slow-down, Sections 2.3 and 4) reappears at the network layer
as three admission modes over the engine's backpressure signals
(:class:`~repro.engine.StoreStats.write_stalled`, ``write_headroom``,
``sealed_memtables``):

``stop``
    The engine's own interaction mode, surfaced to clients: while the
    component constraint is violated, writes are rejected outright with
    a ``RETRY_AFTER`` hint. Cheap and honest, but clients eat the full
    stall in their tail latency (the paper's Figure 1 shape).

``limit``
    A constant-rate cap: admitted write bytes pass through a token
    bucket (reusing :class:`repro.engine.RateLimiter`), so ingestion can
    never outrun the configured merge bandwidth and the constraint is
    rarely hit. The bLSM/RocksDB "delayed write rate" knob.

``gradual``
    bLSM-style spring-and-gear slow-down: each write is delayed in
    proportion to how much of the component budget is consumed
    (``1 - write_headroom``), ramping smoothly from zero delay at the
    threshold to ``max_delay`` as the tree approaches a hard stall —
    and a stalled engine is *absorbed* (the service pauses and retries
    internally) rather than propagated as a rejection.

Controllers are pure decision functions over a stats snapshot — no
sleeping, no I/O — so the asyncio service applies delays with
``await asyncio.sleep`` and tests can drive them with synthetic stats.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from ..engine.datastore import StoreStats
from ..engine.ratelimiter import RateLimiter
from ..errors import ConfigurationError

#: Decision actions.
ADMIT = "admit"
DELAY = "delay"
REJECT = "reject"

#: The admission mode names exposed on the CLI.
MODES = ("none", "stop", "limit", "gradual")


@dataclass(frozen=True)
class AdmissionDecision:
    """What to do with one write: admit now, admit after a pause, or
    bounce it back to the client with a backoff hint."""

    action: str
    delay_seconds: float = 0.0
    retry_after: float = 0.0
    reason: str = ""


_ADMIT_NOW = AdmissionDecision(ADMIT)


class AdmissionController:
    """Base controller: admit everything (mode ``none``).

    ``absorbs_stalls`` tells the service what to do when an admitted
    write still meets a closed stall gate (modes other than ``none``):
    graceful controllers pause ``stall_pause`` seconds and retry
    internally (slow down, don't stop); the rest surface the stall to
    the client as a ``STALLED`` rejection.
    """

    mode = "none"
    absorbs_stalls = False
    stall_pause = 0.0

    def decide(
        self, stats: StoreStats | None, nbytes: int
    ) -> AdmissionDecision:
        """Judge one write of ``nbytes`` against the engine snapshot
        (None for mode ``none``, which the service spares the read)."""
        return _ADMIT_NOW


class StopAdmission(AdmissionController):
    """Reject writes outright while the engine is saturated.

    Saturated means either backpressure bit: the component constraint is
    violated (``write_stalled``) or every spare memory component is
    queued behind a flush (``memory_fill >= 1``), i.e. the next write
    that rotates would stall inline.
    """

    mode = "stop"

    def __init__(self, retry_after: float = 0.05) -> None:
        if retry_after <= 0:
            raise ConfigurationError("retry_after must be positive")
        self._retry_after = retry_after

    def decide(self, stats: StoreStats, nbytes: int) -> AdmissionDecision:
        if stats.write_stalled:
            return AdmissionDecision(
                REJECT,
                retry_after=self._retry_after,
                reason="component constraint violated",
            )
        if stats.memory_fill >= 1.0:
            return AdmissionDecision(
                REJECT,
                retry_after=self._retry_after,
                reason="all memory components are flushing",
            )
        return _ADMIT_NOW


class LimitAdmission(AdmissionController):
    """Token-bucket byte-rate cap on admitted writes.

    Reuses the engine's :class:`~repro.engine.RateLimiter` with a
    capturing sleep: instead of blocking, the computed sleep becomes the
    decision's ``delay_seconds`` for the asyncio service to await.
    """

    mode = "limit"

    def __init__(
        self,
        rate_bytes_per_s: float,
        retry_after: float = 0.05,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if rate_bytes_per_s <= 0:
            raise ConfigurationError("limit mode needs a positive rate")
        self._captured = 0.0
        self._bucket = RateLimiter(
            rate_bytes_per_s, clock=clock, sleep=self._capture
        )
        self._retry_after = retry_after

    def _capture(self, delay: float) -> None:
        self._captured = delay

    def decide(self, stats: StoreStats, nbytes: int) -> AdmissionDecision:
        if stats.write_stalled or stats.memory_fill >= 1.0:
            # The cap should keep ingestion below maintenance bandwidth;
            # if the engine saturated anyway, behave like stop rather
            # than queue blindly.
            return AdmissionDecision(
                REJECT,
                retry_after=self._retry_after,
                reason="stalled despite rate cap",
            )
        self._captured = 0.0
        self._bucket.acquire(nbytes)
        if self._captured > 0.0:
            return AdmissionDecision(
                DELAY, delay_seconds=self._captured, reason="rate cap"
            )
        return _ADMIT_NOW


class GradualAdmission(AdmissionController):
    """Delay writes in proportion to engine pressure (bLSM-style).

    Pressure is the worse of the two backlogs: consumed component
    budget (``1 - write_headroom``, the merge backlog) and sealed
    memtable occupancy (``memory_fill``, the flush backlog). Below
    ``threshold`` writes pass untouched; above it the delay ramps
    linearly up to ``max_delay`` at full pressure. A saturated engine
    yields a ``max_delay`` pause rather than a rejection — this
    controller never says stop, only slower.
    """

    mode = "gradual"
    absorbs_stalls = True

    def __init__(self, max_delay: float = 0.02, threshold: float = 0.5) -> None:
        if max_delay <= 0:
            raise ConfigurationError("max_delay must be positive")
        if not 0.0 <= threshold < 1.0:
            raise ConfigurationError("threshold must be in [0, 1)")
        self._max_delay = max_delay
        self._threshold = threshold
        self.stall_pause = max_delay

    def decide(self, stats: StoreStats, nbytes: int) -> AdmissionDecision:
        merge_backlog = 1.0 - max(0.0, min(stats.write_headroom, 1.0))
        pressure = max(merge_backlog, stats.memory_fill)
        if stats.write_stalled:
            pressure = 1.0
        if pressure <= self._threshold:
            return _ADMIT_NOW
        ramp = (pressure - self._threshold) / (1.0 - self._threshold)
        return AdmissionDecision(
            DELAY,
            delay_seconds=self._max_delay * min(1.0, ramp),
            reason=f"pressure {pressure:.2f}",
        )


def build_admission(mode: str, **params) -> AdmissionController:
    """Factory mapping a CLI mode name to a controller instance.

    ``params`` are forwarded to the chosen controller's constructor;
    parameters foreign to that mode raise immediately.
    """
    if mode == "none":
        if params:
            raise ConfigurationError("mode 'none' takes no parameters")
        return AdmissionController()
    if mode == "stop":
        return StopAdmission(**params)
    if mode == "limit":
        return LimitAdmission(**params)
    if mode == "gradual":
        return GradualAdmission(**params)
    raise ConfigurationError(
        f"unknown admission mode {mode!r}; expected one of {MODES}"
    )
