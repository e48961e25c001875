"""Span recording from outside the program, and the per-layer cost ledger.

:func:`install` wraps the layers' public callables at run time — nothing
under ``src/`` knows about it — and records ``(name, thread, start,
end)`` on ``time.perf_counter()``. On Linux that clock is system-wide and
monotonic, so spans from the generator process and the server child share
one timeline.

:func:`ledger` turns the spans of a one-connection run into per-layer
numbers. With one request in flight:

* on each thread, spans nest as the calls did; a span's *self* time is
  its duration minus its direct children;
* across threads and processes, the few *milestone* spans of one request
  (client call, the four ``binproto`` codec calls, the ``LSMStore``
  call) follow each other in a known order, and the gaps between them
  are named by their neighbours: before the first and after the last
  child is the client's own time, decoded-request -> store call and
  store call -> encoded-response is the service's hand-off (dispatch,
  admission, executor hop), and encoded -> decoded is time in no span at
  all — kernel, event loop, sockets. That last part, plus anything else
  not covered, is ``ledger.unattributed_share``.

Spans on ``lsm-maintenance-*`` threads are kept apart as
``engine.compaction``. Generator spans run from the first ``next()`` to
the end of the last one, so they include their consumer's loop body.
"""

from __future__ import annotations

import functools
import json
import os
import threading
from time import perf_counter

MAINTENANCE_THREAD_PREFIX = "lsm-maintenance"
#: ``engine.sstable.get`` spans whose lookup found the key carry this suffix.
FOUND_SUFFIX = ".found"

#: Work a maintenance thread does, for ``engine.compaction.busy_share``.
_COMPACTION_SPANS = (
    "engine.compaction.merge_advance",
    "engine.compaction.run_finish",
    "engine.memtable.items",
)


class SpanRecorder:
    """In-memory span sink; written out once, when the process ends."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple[int, int, float, float]] = []
        self.threads: dict[int, str] = {}
        self._patched: list[tuple[object, str, object]] = []

    def patch(self, owner, attribute: str, wrap) -> None:
        """Replace ``owner.attribute`` by ``wrap(original)``, remembering the original."""
        original = getattr(owner, attribute)
        self._patched.append((owner, attribute, original))
        setattr(owner, attribute, wrap(original))

    def uninstall(self) -> None:
        """Put every wrapped callable back."""
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def add(self, name_id: int, started: float, ended: float) -> None:
        ident = threading.get_ident()
        if ident not in self.threads:
            self.threads[ident] = threading.current_thread().name
        self.spans.append((name_id, ident, started, ended))

    def export(self) -> dict:
        return {
            "names": self.names,
            "threads": {str(k): v for k, v in self.threads.items()},
            "spans": self.spans,
        }

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as sink:
            json.dump(self.export(), sink)


def _wrap_call(recorder: SpanRecorder, name: str, fn):
    name_id = recorder.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        started = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.add(name_id, started, perf_counter())

    return wrapper


def _wrap_coroutine(recorder: SpanRecorder, name: str, fn):
    name_id = recorder.name_id(name)

    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        started = perf_counter()
        try:
            return await fn(*args, **kwargs)
        finally:
            recorder.add(name_id, started, perf_counter())

    return wrapper


def _wrap_request(recorder: SpanRecorder, name: str, fn):
    """``KVClient.request``: what a router calls to reach a shard.

    A leader's shipper reaches its follower through the same method, off
    the request's path and overlapping the next request; that traffic is
    named apart so it is never taken for a hop of the request.
    """
    hop_id = recorder.name_id(name)
    shipping_id = recorder.name_id("replication.shipper.request")

    @functools.wraps(fn)
    async def wrapper(self, message):
        started = perf_counter()
        try:
            return await fn(self, message)
        finally:
            shipping = message.get("op") in ("REPLICATE", "PROMOTE", "FETCH_RANGE")
            recorder.add(shipping_id if shipping else hop_id, started, perf_counter())

    return wrapper


def _wrap_generator(recorder: SpanRecorder, name: str, fn):
    name_id = recorder.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)
        first = last = None
        try:
            while True:
                started = perf_counter()
                if first is None:
                    first = started
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    last = perf_counter()
                yield item
        finally:
            inner.close()
            if last is not None:
                recorder.add(name_id, first, last)

    return wrapper


def _wrap_store_method(recorder: SpanRecorder, method: str, fn):
    """``LSMStore`` calls, named apart when the store is a follower's copy.

    A follower applies shipped frames off the request's path; its work
    must not be booked to the leader's ``engine.datastore`` layer.
    """
    leader_id = recorder.name_id(f"engine.datastore.{method}")
    follower_id = recorder.name_id(f"replication.follower.{method}")
    is_follower: dict[int, bool] = {}

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        follower = is_follower.get(id(self))
        if follower is None:
            follower = is_follower[id(self)] = os.path.basename(
                self.directory
            ).startswith("replica-")
        started = perf_counter()
        try:
            return fn(self, *args, **kwargs)
        finally:
            recorder.add(follower_id if follower else leader_id, started, perf_counter())

    return wrapper


def _wrap_sstable_get(recorder: SpanRecorder, name: str, fn):
    """``SSTableReader.get``, named apart by outcome so useful block reads can be counted."""
    missed_id = recorder.name_id(name)
    found_id = recorder.name_id(name + FOUND_SUFFIX)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        started = perf_counter()
        name_id = missed_id
        try:
            result = fn(*args, **kwargs)
            if result[0]:
                name_id = found_id
            return result
        finally:
            recorder.add(name_id, started, perf_counter())

    return wrapper


def span_cost(calls: int = 50_000) -> float:
    """Seconds one recorded span adds to the call it wraps, measured here and now."""
    recorder = SpanRecorder()

    def nothing() -> None:
        pass

    wrapped = _wrap_call(recorder, "nothing", nothing)
    started = perf_counter()
    for _ in range(calls):
        nothing()
    bare = perf_counter() - started
    started = perf_counter()
    for _ in range(calls):
        wrapped()
    return max(0.0, perf_counter() - started - bare) / calls


def install() -> SpanRecorder:
    """Wrap the layers' public callables in this process; returns the sink."""
    from repro.engine import (
        BlockCache,
        LSMStore,
        MemTable,
        MergeJob,
        SSTableReader,
        SSTableWriter,
        WriteAheadLog,
    )
    from repro.engine import datastore, sstable
    from repro.server import KVClient, binproto

    recorder = SpanRecorder()

    def span(name, kind=_wrap_call):
        return lambda fn: kind(recorder, name, fn)

    for method in ("put", "get", "scan", "ping"):
        recorder.patch(KVClient, method, span(f"server.client.{method}", _wrap_coroutine))
    recorder.patch(KVClient, "request", span("server.client.request", _wrap_request))
    for function in (
        "encode_request",
        "decode_request",
        "encode_response",
        "decode_response",
    ):
        recorder.patch(binproto, function, span(f"server.binproto.{function}"))
    for method in ("put", "timed_put", "get", "scan", "write_batch"):
        recorder.patch(LSMStore, method, span(method, _wrap_store_method))
    for cls, layer, methods in (
        (WriteAheadLog, "engine.wal", ("append", "append_group", "sync")),
        (MemTable, "engine.memtable", ("put", "get")),
        (SSTableReader, "engine.sstable", ("might_contain",)),
        (BlockCache, "engine.blockcache", ("get",)),
    ):
        for method in methods:
            recorder.patch(cls, method, span(f"{layer}.{method}"))
    recorder.patch(SSTableReader, "get", span("engine.sstable.get", _wrap_sstable_get))
    recorder.patch(SSTableReader, "items", span("engine.sstable.items", _wrap_generator))
    recorder.patch(MemTable, "items", span("engine.memtable.items", _wrap_generator))
    # Only the read path's use; a merge's iterator lives across many
    # advance() calls and would span the idle time between them.
    recorder.patch(
        datastore,
        "reconciling_iterator",
        span("engine.iterators.reconciling_iterator", _wrap_generator),
    )
    recorder.patch(MergeJob, "advance", span("engine.compaction.merge_advance"))
    recorder.patch(SSTableWriter, "finish", span("engine.compaction.run_finish"))

    # The codec's decode: codecs are frozen records, so time decompress
    # through the lookup the reader uses.
    decode_id = recorder.name_id("engine.blockcodec.decode")
    timed_codecs: dict[int, object] = {}

    class _TimedCodec:
        def __init__(self, codec) -> None:
            self._codec = codec

        def decompress(self, stored: bytes) -> bytes:
            started = perf_counter()
            try:
                return self._codec.decompress(stored)
            finally:
                recorder.add(decode_id, started, perf_counter())

    def timed_lookup(lookup):
        def codec_by_id(codec_id: int):
            codec = timed_codecs.get(codec_id)
            if codec is None:
                codec = timed_codecs[codec_id] = _TimedCodec(lookup(codec_id))
            return codec

        return codec_by_id

    recorder.patch(sstable, "codec_by_id", timed_lookup)
    return recorder


# -- analysis ------------------------------------------------------------


class Span:
    __slots__ = ("name", "thread", "start", "end", "children")

    def __init__(self, name: str, thread: str, start: float, end: float) -> None:
        self.name = name
        self.thread = thread
        self.start = start
        self.end = end
        self.children: list[Span] = []

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return max(0.0, self.duration - sum(c.duration for c in self.children))


def load_spans(exported: dict, process: str) -> list[Span]:
    """Spans of one process; thread keys are made unique across processes."""
    names = exported["names"]
    threads = exported["threads"]
    return [
        Span(names[name_id], f"{process}:{threads[str(ident)]}:{ident}", start, end)
        for name_id, ident, start, end in exported["spans"]
    ]


def nest(spans: list[Span]) -> list[Span]:
    """Attach every span to the innermost span containing it in time; returns the roots."""
    roots: list[Span] = []
    stack: list[Span] = []
    for span in sorted(spans, key=lambda s: (s.start, -s.end)):
        span.children = []
        while stack and not (stack[-1].start <= span.start and span.end <= stack[-1].end):
            stack.pop()
        (stack[-1].children if stack else roots).append(span)
        stack.append(span)
    return roots


def _walk(roots: list[Span]):
    pending = list(roots)
    while pending:
        span = pending.pop()
        yield span
        pending.extend(span.children)


_CLIENT = "server.client."
_ENC_REQ = "server.binproto.encode_request"
_DEC_REQ = "server.binproto.decode_request"
_ENC_RESP = "server.binproto.encode_response"
_DEC_RESP = "server.binproto.decode_response"
_STORE = "engine.datastore."


def _gap_owner(before: Span | None, after: Span | None) -> str:
    """Which layer owns the time between two consecutive milestones of a client call."""
    left = before.name if before else ""
    right = after.name if after else ""
    if not left or not right:
        return "client"
    if left == _ENC_REQ and right == _DEC_REQ:
        return "transit"
    if left == _ENC_RESP and right == _DEC_RESP:
        return "transit"
    if left == _DEC_REQ and right.startswith(_STORE):
        return "handoff"
    if left.startswith(_STORE) and right == _ENC_RESP:
        return "handoff"
    if left == _DEC_REQ and right.startswith(_CLIENT):
        return "router"
    if left.startswith(_CLIENT) and right == _ENC_RESP:
        return "router"
    return "other"


def ledger(exports: dict[str, dict], window: tuple[float, float]) -> dict:
    """Per-layer numbers from the spans of a one-connection traced run.

    ``exports`` maps a process label to its recorder export; ``window``
    bounds the timed part of the run (warm-up excluded). Times come back
    in microseconds; ``calls`` counts spans inside the window.
    """
    lo, hi = window
    spans = [
        span
        for process, exported in exports.items()
        for span in load_spans(exported, process)
        if lo <= span.start and span.end <= hi
    ]
    foreground: dict[str, list[Span]] = {}
    maintenance: list[Span] = []
    for span in spans:
        if MAINTENANCE_THREAD_PREFIX in span.thread:
            maintenance.append(span)
        else:
            foreground.setdefault(span.thread, []).append(span)

    self_us: dict[str, float] = {}
    calls: dict[str, int] = {}
    durations: dict[str, list[float]] = {}
    store_roots: list[Span] = []
    for thread_spans in foreground.values():
        for span in _walk(nest(thread_spans)):
            self_us[span.name] = self_us.get(span.name, 0.0) + span.self_time * 1e6
            calls[span.name] = calls.get(span.name, 0) + 1
            durations.setdefault(span.name, []).append(span.duration * 1e6)
            if span.name.startswith(_STORE):
                store_roots.append(span)

    # Milestones of each request, nested across threads by time alone.
    # Without a wire the store call itself is the request.
    milestones = [
        span
        for thread_spans in foreground.values()
        for span in thread_spans
        if span.name.startswith((_CLIENT, "server.binproto."))
    ] + store_roots
    gaps = {"client": 0.0, "transit": 0.0, "handoff": 0.0, "router": 0.0, "other": 0.0}
    requests: list[Span] = []
    #: By kind of the client's request: the router's own calls to a shard.
    hops: dict[str, list[float]] = {}
    wired = any(span.name.startswith(_CLIENT) for span in milestones)
    for root in nest(milestones):
        if not root.name.startswith(_CLIENT if wired else _STORE):
            continue
        if root.name.endswith(".ping"):
            continue
        requests.append(root)
        for span in _walk([root]):
            if not span.name.startswith(_CLIENT):
                continue
            if span.thread != root.thread:
                hops.setdefault(root.name, []).append(span.duration * 1e6)
            edges = [None, *span.children, None]
            cursor = span.start
            for before, after in zip(edges, edges[1:]):
                stop = after.start if after else span.end
                gaps[_gap_owner(before, after)] += max(0.0, stop - cursor) * 1e6
                cursor = after.end if after else stop

    busy = 0.0
    cursor = lo
    for span in sorted(
        (s for s in maintenance if s.name in _COMPACTION_SPANS), key=lambda s: s.start
    ):
        busy += max(0.0, span.end - max(span.start, cursor))
        cursor = max(cursor, span.end)

    return {
        "self_us": self_us,
        "calls": calls,
        "durations_us": durations,
        "gaps_us": gaps,
        "requests": len(requests),
        "request_us": {
            kind: [s.duration * 1e6 for s in requests if s.name.endswith(kind)]
            for kind in ("put", "get", "scan")
        },
        "hop_us": hops,
        "compaction_busy_share": busy / (hi - lo) if hi > lo else 0.0,
    }
