"""The event tracer: a bounded ring buffer of typed lifecycle events.

Metrics answer "how much"; the tracer answers "what happened, in what
order". Every tier emits the moments that matter for stall analysis —
memtable rotations, flush and merge start/end, stall enter/exit,
admission rejections, breaker transitions, fault injections — into a
fixed-capacity ring. Memory is bounded by construction: when the ring is
full the oldest events fall off and a ``dropped`` counter records how
many, so a reader always knows whether it saw the full story.

Events carry a monotonically increasing sequence number (the cursor for
``repro obs tail``-style incremental reads) and a timestamp taken from
an injectable clock, keeping traces deterministic under test.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from ..errors import ConfigurationError

# Event kinds. Constants rather than an Enum so events serialise to
# plain JSON without adapters on the framed protocol.
MEMTABLE_ROTATE = "memtable_rotate"
FLUSH_START = "flush_start"
FLUSH_END = "flush_end"
MERGE_START = "merge_start"
MERGE_END = "merge_end"
STALL_ENTER = "stall_enter"
STALL_EXIT = "stall_exit"
FLUSH_STALL = "flush_stall"
ADMISSION = "admission"
BREAKER = "breaker"
FAULT = "fault"
MAINTENANCE_WORKER = "maintenance_worker"
MEMORY_REBALANCE = "memory_rebalance"
REPLICA_PROMOTE = "replica_promote"
SHIP_STALL = "ship_stall"
CORRUPTION_QUARANTINE = "corruption_quarantine"
SCRUB_PASS = "scrub_pass"
RUN_REPAIRED = "run_repaired"

EVENT_KINDS = frozenset(
    {
        MEMTABLE_ROTATE,
        FLUSH_START,
        FLUSH_END,
        MERGE_START,
        MERGE_END,
        STALL_ENTER,
        STALL_EXIT,
        FLUSH_STALL,
        ADMISSION,
        BREAKER,
        FAULT,
        MAINTENANCE_WORKER,
        MEMORY_REBALANCE,
        REPLICA_PROMOTE,
        SHIP_STALL,
        CORRUPTION_QUARANTINE,
        SCRUB_PASS,
        RUN_REPAIRED,
    }
)


@dataclass(frozen=True, slots=True)
class Event:
    """One lifecycle event: what happened, when, and its details."""

    seq: int
    timestamp: float
    kind: str
    fields: dict = field(default_factory=dict)

    def to_wire(self) -> dict:
        """JSON-safe representation for the framed protocol and CLI."""
        return {
            "seq": self.seq,
            "timestamp": self.timestamp,
            "kind": self.kind,
            "fields": dict(self.fields),
        }

    @classmethod
    def from_wire(cls, payload: dict) -> "Event":
        """Rebuild an event from :meth:`to_wire` output."""
        return cls(
            seq=int(payload["seq"]),
            timestamp=float(payload["timestamp"]),
            kind=str(payload["kind"]),
            fields=dict(payload.get("fields", {})),
        )

    def format(self) -> str:
        """One human-readable line for ``repro obs dump``/``tail``."""
        details = " ".join(
            f"{key}={value}" for key, value in sorted(self.fields.items())
        )
        return (
            f"[{self.timestamp:14.6f}] #{self.seq:<6d} "
            f"{self.kind:<16s} {details}".rstrip()
        )


class EventTracer:
    """Thread-safe bounded ring of :class:`Event` records.

    ``emit`` is called from the engine's maintenance paths (under the
    store lock, possibly from a background thread) and from the asyncio
    serving tier; a small internal lock serialises them. The ring never
    grows past ``capacity`` items — overflow evicts the oldest and bumps
    :attr:`dropped`.
    """

    def __init__(
        self,
        capacity: int = 2048,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if capacity < 1:
            raise ConfigurationError("tracer capacity must be >= 1")
        self.capacity = capacity
        self._clock = clock
        self._ring: deque[Event] = deque(maxlen=capacity)
        self._next_seq = 0
        self._dropped = 0
        self._lock = threading.Lock()

    def emit(self, kind: str, **fields) -> Event:
        """Record one event; returns it (mainly for tests)."""
        if kind not in EVENT_KINDS:
            raise ConfigurationError(f"unknown event kind {kind!r}")
        timestamp = self._clock()
        with self._lock:
            event = Event(
                seq=self._next_seq,
                timestamp=timestamp,
                kind=kind,
                fields=fields,
            )
            self._next_seq += 1
            if len(self._ring) == self.capacity:
                self._dropped += 1
            self._ring.append(event)
        return event

    @property
    def dropped(self) -> int:
        """Events evicted from the ring because it was full."""
        with self._lock:
            return self._dropped

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def events(
        self, since: int = -1, limit: int | None = None
    ) -> list[Event]:
        """Events with ``seq > since``, oldest first, up to ``limit``.

        ``since=-1`` returns everything still in the ring. The returned
        list is a copy — callers can hold it across further emits.
        """
        with self._lock:
            selected = [e for e in self._ring if e.seq > since]
        if limit is not None and limit >= 0:
            selected = selected[:limit]
        return selected

    def ingest(self, event: Event) -> None:
        """Insert an already-built event (cluster roll-up of shard rings).

        Sequence numbers of ingested events belong to their origin ring;
        the local ring only provides bounded storage and ordering by
        arrival.
        """
        with self._lock:
            if len(self._ring) == self.capacity:
                self._dropped += 1
            self._ring.append(event)


def merge_events(
    streams: list[list[Event]], limit: int | None = None
) -> list[Event]:
    """Interleave event streams by timestamp for a cluster-wide view.

    Each stream must already be time-ordered (rings are). Ties keep the
    stream order stable. ``limit`` truncates to the *most recent* events
    because that is what an operator tailing a cluster wants to see.
    """
    merged = sorted(
        (event for stream in streams for event in stream),
        key=lambda event: event.timestamp,
    )
    if limit is not None and limit >= 0 and len(merged) > limit:
        merged = merged[-limit:]
    return merged
