"""Stall-aware admission for the serving tier: an adapter over the
simulator's write controls.

The paper's taxonomy of how merges interact with writes (stop, slow
down, or limit; Section 5.1.2) is decided in one place,
:mod:`repro.core.schedulers.write_control`. A server's
:class:`AdmissionController` holds one of those controls and feeds it
the engine's constraint headroom (``write_headroom``, 0 exactly when the
constraint is violated) in bytes/s. The CLI mode names map onto core
controls in :func:`build_admission`:

``stop`` → :class:`~repro.core.StopControl`
    Full speed until the constraint trips; then writes are rejected with
    a ``RETRY_AFTER`` hint. Theorem 1's recommendation: clients eat the
    stall in their tail latency (the paper's Figure 1 shape).

``limit`` → :class:`~repro.core.RateLimitControl`
    Admitted writes are paced at ``rate_bytes_per_s`` with no burst, so
    ingestion never outruns the configured merge bandwidth; a tripped
    constraint still rejects, as ``stop`` does.

``gradual`` → :class:`~repro.core.SlowdownControl`
    LevelDB-style slow-down: full speed while headroom exceeds
    ``1 - threshold``, then paced at a rate ramping linearly from
    ``rate_bytes_per_s`` down to 0. A stalled engine is *absorbed*: the
    write pauses ``retry_after`` and tries again rather than being
    rejected.

The controller applies the rule the simulator's executor also applies:
with every memory component sealed (``memory_fill >= 1``) the rate is 0.
A rate of 0 stalls the write, ∞ admits it, and a finite rate paces it:
each write reserves ``nbytes / rate`` seconds after the previous one.
Decisions do no sleeping and no I/O — the asyncio service awaits the
delay — and the pacer is mutated only on the event loop's thread.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

from ..core.factory import build_control
from ..core.schedulers import WriteControl
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
    """Turn a core write control's rate into per-write decisions.

    Without a control (mode ``none``) every write is admitted.
    ``absorbs_stalls`` (mode ``gradual``) tells the service what to do
    when a write meets a closed stall gate: pause ``retry_after`` and
    try again (slow down, don't stop); the other modes answer
    ``STALLED`` with ``retry_after`` as the client's backoff hint.
    """

    def __init__(
        self,
        mode: str = "none",
        control: WriteControl | None = None,
        retry_after: float = 0.05,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if retry_after <= 0:
            raise ConfigurationError("retry_after must be positive")
        self.mode = mode
        self.absorbs_stalls = mode == "gradual"
        self.retry_after = retry_after
        self._control = control
        self._clock = clock
        #: When the pacer is free again: the end of the last reservation.
        self._paced_until = 0.0

    def decide(
        self, write_headroom: float, memory_fill: float, nbytes: int
    ) -> AdmissionDecision:
        """Judge one write of ``nbytes`` against the engine's signals."""
        if self._control is None:
            return _ADMIT_NOW
        if memory_fill >= 1.0:
            rate, reason = 0.0, "all memory components are flushing"
        else:
            rate = self._control.rate(write_headroom)
            reason = "component constraint violated"
        if rate == 0.0:
            if self.absorbs_stalls:
                return AdmissionDecision(
                    DELAY, delay_seconds=self.retry_after, reason=reason
                )
            return AdmissionDecision(
                REJECT, retry_after=self.retry_after, reason=reason
            )
        if math.isinf(rate):
            return _ADMIT_NOW
        now = self._clock()
        self._paced_until = max(now, self._paced_until) + nbytes / rate
        return AdmissionDecision(
            DELAY,
            delay_seconds=self._paced_until - now,
            reason=f"paced at {rate:.0f} B/s",
        )


def build_admission(mode: str, **params) -> AdmissionController:
    """Map a CLI mode name onto a controller over its core control.

    ``rate_bytes_per_s`` is what ``limit`` caps at and ``gradual`` ramps
    down from once headroom falls below ``1 - threshold``;
    ``retry_after`` and ``clock`` go to :class:`AdmissionController`.
    Mode ``none`` takes no parameters.
    """
    if mode == "none":
        if params:
            raise ConfigurationError("mode 'none' takes no parameters")
        return AdmissionController()
    controls = {"stop": "stop", "limit": "limit", "gradual": "slowdown"}
    if mode not in controls:
        raise ConfigurationError(
            f"unknown admission mode {mode!r}; expected one of {MODES}"
        )
    control = build_control(
        controls[mode],
        rate=params.pop("rate_bytes_per_s", 0.0),
        start_fraction=1.0 - params.pop("threshold", 0.5),
    )
    return AdmissionController(mode, control, **params)
