"""repro.obs — the cross-cutting observability layer.

One :class:`Observability` bundle per process tier (engine store, KV
server, cluster router) pairs a :class:`~repro.obs.registry.MetricsRegistry`
with an :class:`~repro.obs.events.EventTracer` on a shared injectable
clock. Tiers accept a bundle by duck type (``registry``, ``tracer``,
``clock``; the engine also ``sleep`` and ``wait``), so tests can pass
fakes and the engine package never imports the serving stack.

See ``docs/observability.md`` for the metric catalogue and event schema.
"""

from __future__ import annotations

import time
from typing import Callable

from .events import (
    ADMISSION,
    BREAKER,
    EVENT_KINDS,
    FAULT,
    FLUSH_END,
    FLUSH_STALL,
    FLUSH_START,
    MEMORY_REBALANCE,
    MEMTABLE_ROTATE,
    MERGE_END,
    MERGE_START,
    REPLICA_PROMOTE,
    SHIP_STALL,
    STALL_ENTER,
    STALL_EXIT,
    Event,
    EventTracer,
    merge_events,
)
from .exposition import (
    CONTENT_TYPE,
    PrometheusEndpoint,
    lint_exposition,
    render_prometheus,
)
from .registry import (
    DEFAULT_LATENCY_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    log_scale_bounds,
    merge_snapshots,
    percentile_from_buckets,
    relabel_snapshot,
)


class Observability:
    """Registry + tracer + time: what a tier needs to be observable.
    The engine takes all its time from ``clock``, :meth:`sleep` and
    :meth:`wait`: a subclass overriding the three runs it on its own."""

    def __init__(
        self,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.clock = clock
        self.registry = MetricsRegistry()
        self.tracer = EventTracer(clock=clock)

    def sleep(self, seconds: float) -> None:
        """Block the calling thread for ``seconds``."""
        time.sleep(seconds)

    def wait(self, condition, timeout: float | None) -> bool:
        """``condition.wait(timeout)``, ``condition``'s lock held: False
        when the timeout ran out."""
        return condition.wait(timeout)

    def snapshot(self) -> dict:
        """The registry snapshot (metrics only; events have a cursor API)."""
        return self.registry.snapshot()

    def render(self) -> str:
        """Current metrics as Prometheus text format."""
        return render_prometheus(self.registry.snapshot())


__all__ = [
    "ADMISSION",
    "BREAKER",
    "CONTENT_TYPE",
    "DEFAULT_LATENCY_BOUNDS",
    "EVENT_KINDS",
    "FAULT",
    "FLUSH_END",
    "FLUSH_STALL",
    "FLUSH_START",
    "MEMORY_REBALANCE",
    "MEMTABLE_ROTATE",
    "MERGE_END",
    "MERGE_START",
    "REPLICA_PROMOTE",
    "SHIP_STALL",
    "STALL_ENTER",
    "STALL_EXIT",
    "Counter",
    "Event",
    "EventTracer",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Observability",
    "PrometheusEndpoint",
    "lint_exposition",
    "log_scale_bounds",
    "merge_events",
    "merge_snapshots",
    "percentile_from_buckets",
    "relabel_snapshot",
    "render_prometheus",
]
