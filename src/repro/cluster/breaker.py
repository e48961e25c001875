"""Per-shard circuit breakers for the cluster router.

The classic three-state machine, tuned for a shard backend:

* **closed** — traffic flows; outcomes are recorded into a sliding
  window of the last ``window`` requests. When the window holds at
  least ``min_samples`` outcomes and the failure rate reaches
  ``failure_threshold``, the breaker opens.
* **open** — every request fails fast (:meth:`allow` returns False)
  until ``cooldown`` seconds pass; :meth:`retry_after` reports the
  remaining cooldown so rejections carry an honest hint.
* **half-open** — after the cooldown, up to ``half_open_probes``
  concurrent probe requests are let through. One probe success closes
  the breaker (and clears the window); one probe failure re-opens it
  and restarts the cooldown.

Only *transport* failures (connection refused/reset, timeouts,
exhausted retries against an unreachable backend) should be recorded as
failures — a backend answering ``STALLED`` is slow, not dead, and
tripping on it would amputate a shard that merely needs backpressure.
That classification lives in the shard backends; the breaker counts.

The clock is injectable so state transitions are testable without
wall-clock sleeps; :attr:`transitions` logs every state change.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable

from ..errors import ConfigurationError

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

#: All breaker states, in degradation order.
STATES = (CLOSED, OPEN, HALF_OPEN)


class CircuitBreaker:
    """Failure-rate tripping breaker with cooldown and probe recovery."""

    def __init__(
        self,
        failure_threshold: float = 0.5,
        window: int = 8,
        min_samples: int = 3,
        cooldown: float = 1.0,
        half_open_probes: int = 1,
        clock: Callable[[], float] | None = None,
        on_transition: Callable[[str, str], None] | None = None,
    ) -> None:
        if not 0.0 < failure_threshold <= 1.0:
            raise ConfigurationError(
                "failure_threshold must be in (0, 1]"
            )
        if window < 1 or min_samples < 1 or min_samples > window:
            raise ConfigurationError(
                "need 1 <= min_samples <= window"
            )
        if cooldown <= 0:
            raise ConfigurationError("cooldown must be positive")
        if half_open_probes < 1:
            raise ConfigurationError("need at least one half-open probe")
        self._failure_threshold = failure_threshold
        self._window: deque[bool] = deque(maxlen=window)
        self._min_samples = min_samples
        self._cooldown = cooldown
        self._half_open_probes = half_open_probes
        self._clock = clock or time.monotonic
        self._state = CLOSED
        self._opened_at = 0.0
        self._probes_in_flight = 0
        #: Count of closed→open trips (half-open re-opens included).
        self.trips = 0
        #: Every state change as ``(old, new)``, in order.
        self.transitions: list[tuple[str, str]] = []
        self._on_transition = on_transition

    @property
    def state(self) -> str:
        """Current state, advancing open→half-open when cooldown lapsed."""
        self._maybe_half_open()
        return self._state

    def _set_state(self, new: str) -> None:
        if new != self._state:
            old = self._state
            self.transitions.append((old, new))
            self._state = new
            if self._on_transition is not None:
                self._on_transition(old, new)

    def _maybe_half_open(self) -> None:
        if (
            self._state == OPEN
            and self._clock() - self._opened_at >= self._cooldown
        ):
            self._set_state(HALF_OPEN)
            self._probes_in_flight = 0

    def _trip(self) -> None:
        self._set_state(OPEN)
        self._opened_at = self._clock()
        self._probes_in_flight = 0
        self._window.clear()
        self.trips += 1

    def allow(self) -> bool:
        """May a request proceed right now?

        In half-open state a True answer consumes one probe slot, so
        callers must follow up with :meth:`record_success` or
        :meth:`record_failure` for that request.
        """
        self._maybe_half_open()
        if self._state == CLOSED:
            return True
        if self._state == HALF_OPEN:
            if self._probes_in_flight < self._half_open_probes:
                self._probes_in_flight += 1
                return True
            return False
        return False

    def record_success(self) -> None:
        """Note one successful request to the shard."""
        if self._state == HALF_OPEN:
            # The backend answered a probe: service is back.
            self._set_state(CLOSED)
            self._probes_in_flight = 0
            self._window.clear()
            return
        if self._state == CLOSED:
            self._window.append(True)

    def record_failure(self) -> None:
        """Note one transport-level failure against the shard."""
        self._maybe_half_open()
        if self._state == HALF_OPEN:
            self._trip()  # the probe failed: back to cooling down
            return
        if self._state == OPEN:
            return
        self._window.append(False)
        if len(self._window) >= self._min_samples:
            failures = sum(1 for ok in self._window if not ok)
            if failures / len(self._window) >= self._failure_threshold:
                self._trip()

    def retry_after(self) -> float:
        """Remaining cooldown seconds (0 when traffic may flow)."""
        if self._state != OPEN:
            return 0.0
        remaining = self._cooldown - (self._clock() - self._opened_at)
        return max(0.0, remaining)

    def reset(self) -> None:
        """Force the breaker closed with a clean window.

        Used after a failover: the shard's traffic now goes to a freshly
        promoted leader, so the failure history accumulated against the
        dead one says nothing about the new backend.
        """
        self._set_state(CLOSED)
        self._probes_in_flight = 0
        self._window.clear()
