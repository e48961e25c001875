"""A fake time for the engine: an ``Observability`` bundle whose clock
moves only when something sleeps or waits on it.

The engine reads the clock, sleeps and waits on a condition only
through its ``obs`` bundle (``tests/engine/test_time_seam.py`` holds
it to that), so a store opened with ``StoreOptions(obs=FakeTime())``,
or a ``RateLimiter`` given one, runs on this time. A sleep moves the
clock on by its length. A wait with a timeout moves it on by the
timeout and lets go of the condition's lock only for an instant
(``condition.wait(0)``), so no thread ever sleeps on the wall clock; a
wait without one is a real wait, for a notify another thread sends.
``at(when, action)`` runs ``action`` once the clock reaches ``when``.
A store on it drives its own maintenance (``background_maintenance=
False``): a worker's idle polls would spin, each one moving the clock.
"""

from __future__ import annotations

import threading

from repro.obs import Observability


class FakeTime(Observability):
    def __init__(self) -> None:
        self.now = 0.0
        self._lock = threading.Lock()
        self._due: list[tuple[float, object]] = []
        #: Every sleep's seconds and every wait's timeout, in order.
        self.sleeps: list[float] = []
        self.waits: list[float | None] = []
        super().__init__(clock=self._read)

    def _read(self) -> float:
        with self._lock:
            return self.now

    def advance(self, seconds: float) -> None:
        """Move the clock on, then run the actions that came due."""
        with self._lock:
            self.now += seconds
            due = [action for when, action in self._due if when <= self.now]
            self._due = [(w, a) for w, a in self._due if w > self.now]
        for action in due:
            action()

    def at(self, when: float, action) -> None:
        self._due.append((when, action))

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.advance(seconds)

    def wait(self, condition, timeout):
        self.waits.append(timeout)
        if timeout is None:
            return condition.wait()
        self.advance(timeout)
        return condition.wait(0)
