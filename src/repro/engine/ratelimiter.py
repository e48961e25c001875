"""I/O throttling and periodic forces (Section 3.1's two optimizations).

The paper throttles all flush and merge SSD writes to 100 MB/s with a
rate limiter that "injects artificial sleeps into SSD writes", and forces
data to disk every 16 MB to keep the OS I/O queue short. Both are
reproduced here: :class:`RateLimiter` is a token bucket that reads
the time and sleeps through the store's ``obs`` bundle, and
:class:`SyncPolicy` tracks written bytes and tells writers when to fsync.
"""

from __future__ import annotations

import threading

from ..errors import ConfigurationError
from ..obs import Observability


class RateLimiter:
    """Token-bucket write throttle on ``obs``'s ``clock`` and ``sleep``.

    ``acquire(n)`` blocks (sleeps) until ``n`` bytes of budget are
    available. A ``rate`` of 0 disables throttling. The bucket allows a
    one-second burst so small writes are not over-penalized, matching how
    RocksDB's rate limiter behaves in practice.

    The limiter is shared by every flush, merge and scrub of a store,
    whichever thread runs it (the maintenance worker, a caller's scrub
    tick or repair), so ``acquire`` is called from several threads at
    once. All bucket state is guarded by an internal lock;
    the balance is debited under it (and may go negative — debt), then
    the debtor sleeps off its own debt *outside* the lock. Tokens that
    accrue while a debtor sleeps pay the debt down through ``_refill``
    instead of being forfeited, and later acquirers see the deeper debt
    and sleep proportionally longer, so the admitted bandwidth bound
    (burst + rate x elapsed) holds regardless of how many acquirers
    interleave.
    """

    def __init__(
        self,
        rate_bytes_per_s: float,
        obs: Observability | None = None,
    ) -> None:
        if rate_bytes_per_s < 0:
            raise ConfigurationError("rate cannot be negative")
        self._rate = rate_bytes_per_s
        self._obs = obs = obs or Observability()
        self._available = rate_bytes_per_s  # start with one second of burst
        self._last = obs.clock()
        self._total_sleeps = 0.0
        self._total_admitted = 0.0
        self._lock = threading.Lock()

    @property
    def total_sleep_seconds(self) -> float:
        """Cumulative artificial delay injected so far."""
        return self._total_sleeps

    @property
    def total_admitted_bytes(self) -> float:
        """Cumulative bytes admitted through the throttle.

        Divided by elapsed wall-clock time this is the measured
        flush+merge write bandwidth (what the maintenance benchmark
        checks against the configured budget). Counted even when the
        rate is 0 (unlimited) so the measure stays meaningful.
        """
        return self._total_admitted

    def _refill(self) -> None:
        """Credit tokens for elapsed time; caller must hold the lock."""
        now = self._obs.clock()
        elapsed = now - self._last
        if elapsed <= 0:
            return
        self._last = now
        self._available = min(
            self._rate, self._available + elapsed * self._rate
        )

    def acquire(self, nbytes: float) -> None:
        """Block until ``nbytes`` of write budget are available."""
        if nbytes <= 0:
            return
        if self._rate == 0:
            with self._lock:
                self._total_admitted += nbytes
            return
        with self._lock:
            self._refill()
            self._available -= nbytes
            self._total_admitted += nbytes
            if self._available >= 0:
                return
            delay = -self._available / self._rate
            self._total_sleeps += delay
        self._obs.sleep(delay)


class SyncPolicy:
    """Decides when a writer should force its file to disk.

    ``note_write(n)`` returns True whenever cumulative unsynced bytes
    reach the interval — the writer then fsyncs and the counter resets.
    With ``interval == 0`` every check returns False (force only at the
    end, the paper's at-merge-completion variant).
    """

    def __init__(self, interval_bytes: int) -> None:
        if interval_bytes < 0:
            raise ConfigurationError("sync interval cannot be negative")
        self._interval = interval_bytes
        self._unsynced = 0
        self._noted = 0
        self._forces = 0

    @property
    def forces_issued(self) -> int:
        """Number of periodic forces signalled so far."""
        return self._forces

    @property
    def bytes_noted(self) -> int:
        """Cumulative bytes reported via :meth:`note_write` — for a
        well-behaved writer this equals the file's size, footer and
        all."""
        return self._noted

    def note_write(self, nbytes: int) -> bool:
        """Record written bytes; True when a force is due now."""
        self._noted += nbytes
        if self._interval == 0:
            return False
        self._unsynced += nbytes
        if self._unsynced >= self._interval:
            self._unsynced -= self._interval
            self._forces += 1
            return True
        return False
