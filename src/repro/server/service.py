"""The asyncio TCP key-value service over :class:`~repro.engine.LSMStore`.

One :class:`KVServer` owns a listening socket and serves the verbs of
:mod:`repro.server.protocol`, framed by :mod:`repro.server.binproto`,
from a store the caller opened.
An engine call runs on the event loop's own thread unless it would wait:
a GET, a bounded SCAN, and a write that only logs and inserts cost no
hand-off, while a write the engine says would park (a closed stall gate,
a flush-stalled rotation, an fsync, a contended store lock) and an
unbounded SCAN go to the server's one worker pool — so a stalled write
never freezes the loop or the reads on it (``docs/server.md``,
"Threading model"). It never drives flushes or merges: a store it can
shed writes from runs a worker (:func:`require_workers`). Every write
first passes the admission controller (:mod:`repro.server.admission`):

* ``admit`` — the write proceeds immediately;
* ``delay`` — the service sleeps the prescribed pause first (graceful
  slow-down: latency is added *before* the stall can happen);
* ``reject`` — the client gets a ``STALLED`` error with a
  ``retry_after`` hint (the paper's stop interaction, surfaced).

An admitted write can still meet a closed stall gate. Under mode
``none`` it waits there, on the pool. Any other mode decides on the
loop: a controller that ``absorbs_stalls`` pauses and retries until
``write_deadline`` — slow down, never stop — and the rest answer
``STALLED`` at once.
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict
from functools import partial

from ..engine.datastore import LSMStore
from ..errors import (
    ClosedError,
    ConfigurationError,
    DataCorruptError,
    ProtocolError,
)
from ..obs import MetricsRegistry, PrometheusEndpoint, render_prometheus
from ..obs import events as obs_events
from . import binproto, protocol
from .admission import ADMIT, REJECT, AdmissionController, AdmissionDecision

#: Default bound on how long one admitted write may be absorbed/delayed.
DEFAULT_WRITE_DEADLINE = 5.0

#: Largest ``limit`` a SCAN may carry and still run on the loop thread:
#: every other request waits out an inline scan, and a page of this many
#: rows costs about what a few point reads do.
INLINE_SCAN_ROWS = 256

#: Threads in a front-end's worker pool. Only calls that wait go there
#: (stall-gate and flush-stall parks, fsyncs, unbounded scans), so it
#: is sized past the CPU count: it bounds how many writers can park at
#: once, and with it how many a group-commit leader's fsync can cover.
ENGINE_THREADS = 16


def require_workers(options, admission_mode: str) -> None:
    """Refuse an inline store behind a server that can shed its writes.

    An inline store merges only inside the writes that reach it. One
    that admission (any mode but ``none``) turns away drives nothing,
    so the stall would never clear."""
    if not options.background_maintenance and admission_mode != "none":
        raise ConfigurationError(
            f"admission {admission_mode!r} can shed writes, so the store "
            "needs maintenance workers (background_maintenance=True)"
        )


async def in_thread(fn, *args, executor=None):
    """Run a call that may wait off the event loop's thread: on
    ``executor``, else on the loop's default one (what code with no
    server of its own — a chaos runner, a WAL shipper — uses)."""
    return await asyncio.get_running_loop().run_in_executor(
        executor, fn, *args
    )


class ServingCounters:
    """A front-end's serving counters, each one registry series.

    Each of the space-separated ``names`` is an attribute holding the
    ``<tier>_<name>`` counter (``_total`` appended where missing), bumped
    with ``inc()`` at the event it counts; ``connections_open`` is that
    gauge. :meth:`count_shards` also counts into a per-shard series,
    made by the first write it counts. :meth:`snapshot` reads them all
    back for STATS, so a front-end built again over the same registry
    (a restored shard server) carries the totals on.
    """

    def __init__(
        self, registry: MetricsRegistry, tier: str, title: str, names: str,
        shard_outcomes: tuple[str, ...] = (),
    ) -> None:
        self._names = names.split()
        for name in self._names:
            series = name if name.endswith("_total") else f"{name}_total"
            setattr(self, name, registry.counter(
                f"{tier}_{series}",
                help=f"{title} cumulative {name.replace('_', ' ')}.",
            ))
        self.connections_open = registry.gauge(
            f"{tier}_connections_open",
            help="Currently open client connections.",
        )
        self._registry, self._tier = registry, tier
        self._by_shard = {outcome: {} for outcome in shard_outcomes}

    def count_shards(self, outcome: str, shards, delay: float = 0.0) -> None:
        """Count one write's ``outcome`` once per shard it spans, in
        ``writes_<outcome>`` and in that shard's ``shard_writes_<outcome>``
        series, with ``delay`` seconds of admission pause for each."""
        total = getattr(self, f"writes_{outcome}")
        by_shard = self._by_shard[outcome]
        for shard in shards:
            if shard not in by_shard:
                by_shard[shard] = self._registry.counter(
                    f"{self._tier}_shard_writes_{outcome}_total",
                    labels={"shard": str(shard)},
                    help="Per-shard routing outcome counts.",
                )
            by_shard[shard].inc()
            total.inc()
            if delay:
                self.delay_seconds_total.inc(delay)

    def snapshot(self) -> dict:
        """Plain-dict view for STATS: seconds as floats, counts as ints,
        per-shard counts keyed by shard as a string."""
        view = {}
        for name in self._names:
            value = getattr(self, name).value
            view[name] = value if "seconds" in name else int(value)
        view["connections_open"] = int(self.connections_open.value)
        for outcome, by_shard in self._by_shard.items():
            view[f"writes_{outcome}_per_shard"] = {
                str(shard): int(counter.value)
                for shard, counter in sorted(by_shard.items())
            }
        return view


class FramedServer:
    """Connection machinery shared by every framed TCP front-end.

    Owns the listening socket, the per-connection read loop, and verb
    dispatch to ``_op_<verb>`` coroutine methods. Subclasses —
    :class:`KVServer` over one engine, the cluster's
    :class:`~repro.cluster.router.ClusterRouter` over many — provide the
    verb handlers, a :class:`ServingCounters` ``metrics`` with at least
    ``requests_total``, ``protocol_errors`` and ``connections_total``,
    and an ``obs`` bundle backing the shared ``METRICS`` /
    ``EVENTS`` verbs and the optional Prometheus scrape endpoint
    (``metrics_port``; 0 picks a free port, None disables).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        metrics_port: int | None = None,
    ) -> None:
        self._host = host
        self._port = port
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[asyncio.StreamWriter] = set()
        self._handlers: set[asyncio.Task] = set()
        self._clock = time.monotonic
        self._metrics_port = metrics_port
        self._exposition: PrometheusEndpoint | None = None
        self._tickers: list[tuple[object, float]] = []
        self._ticker_tasks: list[asyncio.Task] = []
        # Threads start on first use; a server whose calls never wait
        # never starts one.
        self._executor: ThreadPoolExecutor | None = None
        self._breakdown_histograms: dict[tuple[str, str], object] = {}

    # -- lifecycle -------------------------------------------------------

    def attach_ticker(self, fn, interval: float) -> None:
        """Run ``fn`` (a plain callable) every ``interval`` seconds.

        The tick runs in a worker thread so a slow callback (a memory
        rebalance touching every shard, say) never blocks the event
        loop. Attach before :meth:`start`; tasks are spawned there and
        cancelled in :meth:`aclose`. A tick that raises is dropped and
        the ticker keeps going — periodic upkeep must not die to one
        transient error.
        """
        if interval <= 0:
            raise ConfigurationError("ticker interval must be positive")
        self._tickers.append((fn, interval))

    async def _in_thread(self, fn, *args):
        """Run a call that may wait on the server's own worker pool."""
        if self._executor is None:
            raise ConfigurationError("server is not started")
        return await in_thread(fn, *args, executor=self._executor)

    async def _run_ticker(self, fn, interval: float) -> None:
        while True:
            await asyncio.sleep(interval)
            try:
                await self._in_thread(fn)
            except asyncio.CancelledError:
                raise
            except Exception:  # noqa: BLE001 — upkeep must keep ticking
                continue

    async def start(self) -> tuple[str, int]:
        """Bind and listen; returns the bound (host, port)."""
        if self._server is not None:
            raise ConfigurationError("server already started")
        self._executor = ThreadPoolExecutor(
            max_workers=ENGINE_THREADS,
            thread_name_prefix="kv-engine",
        )
        self._server = await asyncio.start_server(
            self._handle_connection, self._host, self._port
        )
        self._host, self._port = self._server.sockets[0].getsockname()[:2]
        if self._metrics_port is not None:
            self._exposition = PrometheusEndpoint(
                self._render_metrics, host=self._host,
                port=self._metrics_port,
            )
            await self._exposition.start()
        for fn, interval in self._tickers:
            self._ticker_tasks.append(
                asyncio.get_running_loop().create_task(
                    self._run_ticker(fn, interval)
                )
            )
        return self._host, self._port

    @property
    def metrics_address(self) -> tuple[str, int] | None:
        """Bound (host, port) of the Prometheus endpoint, if enabled."""
        if self._exposition is None:
            return None
        return self._host, self._exposition.port

    async def _render_metrics(self) -> str:
        return render_prometheus(await self.metrics_snapshot())

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port); valid after :meth:`start`."""
        return self._host, self._port

    async def serve_forever(self) -> None:
        """Block serving requests until cancelled."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def aclose(self) -> None:
        """Stop accepting connections, drop open ones, release the socket.

        Closing each open transport lets in-flight handlers see EOF and
        exit, which matters on Python 3.12+ where ``wait_closed`` waits
        for connection handlers, not just the listening socket.
        """
        if self._server is None:
            return
        for task in self._ticker_tasks:
            task.cancel()
        if self._ticker_tasks:
            await asyncio.gather(*self._ticker_tasks, return_exceptions=True)
            self._ticker_tasks.clear()
        if self._exposition is not None:
            await self._exposition.aclose()
            self._exposition = None
        self._server.close()
        for writer in list(self._connections):
            writer.close()
        if self._handlers:
            await asyncio.gather(*list(self._handlers), return_exceptions=True)
        await self._server.wait_closed()
        self._server = None
        if self._executor is not None:
            self._executor.shutdown(wait=False)
            self._executor = None

    async def __aenter__(self) -> "FramedServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    # -- connection handling ---------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.metrics.connections_total.inc()
        self.metrics.connections_open.inc()
        self._connections.add(writer)
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
        try:
            await self._serve_frames(reader, writer)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self.metrics.connections_open.inc(-1)
            self._connections.discard(writer)
            if task is not None:
                self._handlers.discard(task)
            writer.close()
            with contextlib.suppress(Exception, asyncio.CancelledError):
                await writer.wait_closed()

    async def _serve_frames(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        # The preamble is a version check: anything else (a legacy JSON
        # client, a port scanner) is closed before a byte is dispatched.
        try:
            preamble = await reader.readexactly(1)
        except asyncio.IncompleteReadError:
            return  # connected and left without sending anything
        if preamble != binproto.MAGIC_BYTE:
            self.metrics.protocol_errors.inc()
            return
        while True:
            try:
                payload = await binproto.read_frame(reader)
                if payload is None:
                    break
                message = binproto.decode_request(payload)
            except ProtocolError:
                self.metrics.protocol_errors.inc()
                break  # framing is lost; drop the connection
            response = await self._dispatch(message)
            if not await binproto.write_response(writer, response):
                self.metrics.protocol_errors.inc()  # too large to frame

    async def _dispatch(self, message: dict) -> dict:
        self.metrics.requests_total.inc()
        received_at = self._clock()
        verb = "?"
        try:
            verb = protocol.request_verb(message)
            handler = getattr(self, f"_op_{verb.lower()}", None)
            if handler is None:
                # A verb of the protocol that this front-end does not
                # serve (REPLICATE to a router or an unreplicated server).
                raise ProtocolError(f"{verb} is not served here")
            response = await handler(message)
        except ProtocolError as error:
            self.metrics.protocol_errors.inc()
            return protocol.error_response(
                protocol.CODE_BAD_REQUEST, str(error)
            )
        except ClosedError as error:
            return protocol.error_response(protocol.CODE_CLOSED, str(error))
        except DataCorruptError as error:
            # Containment, not a crash: the engine quarantined a run and
            # refuses to answer unsoundly. Tell the client *which* key
            # range is affected so it can route around or wait for the
            # repair path; everything outside the range still serves.
            response = protocol.error_response(
                protocol.CODE_DATA_CORRUPT, str(error)
            )
            response["run_id"] = error.run_id
            response["min_key"] = error.min_key.hex()
            response["max_key"] = error.max_key.hex()
            return response
        except Exception as error:  # noqa: BLE001 — a request must answer
            return protocol.error_response(
                protocol.CODE_INTERNAL, f"{type(error).__name__}: {error}"
            )
        self._finalize_breakdown(verb, received_at, response)
        return response

    def _finalize_breakdown(
        self, verb: str, received_at: float, response: dict
    ) -> None:
        """Complete and record a request's latency breakdown.

        Handlers hand over the legs they can measure (admission wait,
        engine time, I/O time) under the response's ``breakdown`` key;
        this takes it off the response (it never travels), fills in
        ``total`` (frame receipt to response ready) and ``queue`` (total
        minus every attributed leg: event-loop scheduling, thread-pool
        handoff, serialization), then aggregates each leg into the
        tier's per-op histograms, each bound on its first observation.
        """
        breakdown = response.pop("breakdown", None)
        if breakdown is None:
            return
        total = self._clock() - received_at
        # Handed over: admission, engine, io, replication — nothing else.
        breakdown["queue"] = max(0.0, total - sum(breakdown.values()))
        breakdown["total"] = total
        bound = self._breakdown_histograms
        for component in (
            "total", "queue", "admission", "engine", "io", "replication"
        ):
            if component in breakdown:
                key = (verb, component)
                if key not in bound:  # once each, and only if observed
                    bound[key] = self.obs.registry.histogram(
                        "server_request_seconds",
                        labels={"op": verb.lower(), "component": component},
                        help="Per-request latency breakdown by component.",
                    )
                bound[key].observe(breakdown[component])

    async def _op_ping(self, message: dict) -> dict:
        return protocol.ok_response(pong=True)

    # -- observability verbs (shared by server and cluster router) -------

    async def metrics_snapshot(self) -> dict:
        """The structured snapshot METRICS serves (subclasses override)."""
        return self.obs.registry.snapshot()

    async def events_since(self, since: int, limit: int | None) -> list:
        """Events behind the EVENTS verb (subclasses may aggregate)."""
        return self.obs.tracer.events(since, limit)

    async def _op_metrics(self, message: dict) -> dict:
        return protocol.ok_response(metrics=await self.metrics_snapshot())

    async def _op_events(self, message: dict) -> dict:
        since, limit = protocol.events_cursor(message)
        events = await self.events_since(since, limit)
        return protocol.ok_response(
            events=[event.to_wire() for event in events],
            dropped=self.obs.tracer.dropped,
        )


class KVServer(FramedServer):
    """Serve one LSM store over TCP with stall-aware admission."""

    def __init__(
        self,
        store: LSMStore,
        admission: AdmissionController | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        write_deadline: float = DEFAULT_WRITE_DEADLINE,
        metrics_port: int | None = None,
        wire: str = "binary",
    ) -> None:
        binproto.require_binary(wire)
        if write_deadline <= 0:
            raise ConfigurationError("write_deadline must be positive")
        self._admission = admission or AdmissionController()
        require_workers(store.options, self._admission.mode)
        super().__init__(host, port, metrics_port=metrics_port)
        self._store = store
        self._write_deadline = write_deadline
        # Share the engine's bundle: one registry, one event ring, one
        # clock for the whole process tier.
        self.obs = store.obs
        self.metrics = ServingCounters(
            store.obs.registry, "server", "Serving-layer",
            "requests_total reads_total writes_admitted writes_delayed "
            "writes_rejected stalls_absorbed delay_seconds_total "
            "protocol_errors connections_total",
        )
        self._clock = store.obs.clock
        self._engine_calls = {
            (op, where): self.obs.registry.counter(
                "server_engine_calls_total",
                labels={"op": op, "where": where},
                help="Engine calls by where they ran: on the event "
                "loop's thread, or on a pool thread because they waited.",
            )
            for op in ("put", "del", "batch", "get", "scan")
            for where in ("loop", "thread")
        }

    # -- the admission + write pipeline ----------------------------------

    async def _admitted_write(self, op: str, nbytes: int, apply) -> dict:
        """Run one write through admission, a delay, and the stall gate.

        ``apply`` is one of the store's ``timed_*`` writes with its data
        bound. The controller judges the write once. Then
        ``apply(wait=False)`` is tried here, on the loop thread, and
        None means the write would wait. Under mode ``none`` it does:
        ``apply()`` goes to the pool, where a closed gate parks it.
        Any other mode decides a closed gate here: a controller that
        ``absorbs_stalls`` pauses ``retry_after`` and tries again until
        ``write_deadline``, the rest answer STALLED at once. Any other
        reason to wait (a flush stall, an fsync, a contended lock) goes
        to the pool. The response hands dispatch a ``breakdown`` with
        the admission wait (delay, pauses) and the engine/I-O legs of
        the :class:`~repro.engine.WriteTiming` (``engine`` excludes the
        WAL leg reported as ``io``).
        """
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self._write_deadline
        admission_wait = 0.0
        # Mode ``none`` admits whatever the engine reports, so it neither
        # reads a snapshot nor asks about the gate: both take the store
        # lock, on this thread.
        sheds = self._admission.mode != "none"

        def rejected(reason: str, message: str) -> dict:
            self.metrics.writes_rejected.inc()
            self.obs.tracer.emit(
                obs_events.ADMISSION,
                action="reject",
                reason=reason,
                nbytes=nbytes,
            )
            response = protocol.error_response(
                protocol.CODE_STALLED, message,
                retry_after=self._admission.retry_after,
            )
            response["breakdown"] = {
                "admission": admission_wait, "engine": 0.0, "io": 0.0,
            }
            return response

        async def pause(action: str, seconds: float) -> None:
            nonlocal admission_wait
            self.metrics.delay_seconds_total.inc(seconds)
            self.obs.tracer.emit(
                obs_events.ADMISSION,
                action=action,
                seconds=seconds,
                nbytes=nbytes,
            )
            admission_wait += seconds
            await asyncio.sleep(seconds)

        decision = AdmissionDecision(ADMIT)
        if sheds:
            stats = self._store.stats()
            decision = self._admission.decide(
                stats.write_headroom, stats.memory_fill, nbytes
            )
        if decision.action == REJECT:
            return rejected(decision.reason, decision.reason)
        if decision.delay_seconds > 0.0:
            self.metrics.writes_delayed.inc()
            await pause("delay", decision.delay_seconds)
        timing = apply(wait=False)
        absorbed = False
        while timing is None and sheds and self._store.write_stalled:
            if not self._admission.absorbs_stalls or loop.time() >= deadline:
                return rejected(
                    "engine stall",
                    "component constraint violated; merges must catch up",
                )
            if not absorbed:  # a write counts once, however long it waits
                self.metrics.stalls_absorbed.inc()
                absorbed = True
            await pause("absorb", self._admission.retry_after)
            timing = apply(wait=False)
        if timing is None:
            self._engine_calls[op, "thread"].inc()
            timing = await self._in_thread(apply)
        else:
            self._engine_calls[op, "loop"].inc()
        self.metrics.writes_admitted.inc()
        return protocol.ok_response(
            breakdown={
                "admission": admission_wait,
                "engine": max(
                    0.0, timing.engine_seconds - timing.io_seconds
                ),
                "io": timing.io_seconds,
            }
        )

    # -- verbs -----------------------------------------------------------

    async def _op_put(self, message: dict) -> dict:
        key = protocol.request_key(message)
        value = protocol.request_value(message)
        return await self._admitted_write(
            "put",
            len(key) + len(value),
            partial(self._store.timed_put, key, value),
        )

    async def _op_del(self, message: dict) -> dict:
        key = protocol.request_key(message)
        return await self._admitted_write(
            "del", len(key), partial(self._store.timed_delete, key)
        )

    async def _op_batch(self, message: dict) -> dict:
        ops = protocol.batch_ops(message)
        nbytes = sum(
            len(key) + (0 if value is None else len(value))
            for key, value in ops
        )
        response = await self._admitted_write(
            "batch", nbytes, partial(self._store.timed_write_batch, ops)
        )
        if response.get("ok"):
            response["count"] = len(ops)
        return response

    async def _op_get(self, message: dict) -> dict:
        key = protocol.request_key(message)
        self.metrics.reads_total.inc()
        # On the loop thread even when the block must come from disk:
        # with the data in the page cache the hand-off costs more than
        # the read it would overlap (docs/server.md, threading model).
        self._engine_calls["get", "loop"].inc()
        started = self._clock()
        value = self._store.get(key)
        return protocol.ok_response(
            value=value, breakdown={"engine": self._clock() - started}
        )

    async def _op_scan(self, message: dict) -> dict:
        lo, hi, limit = protocol.scan_bounds(message)
        self.metrics.reads_total.inc()

        def scan():
            started = self._clock()
            items = list(self._store.scan(lo, hi, limit))
            return items, self._clock() - started

        if limit is not None and limit <= INLINE_SCAN_ROWS:
            self._engine_calls["scan", "loop"].inc()
            items, engine_seconds = scan()
        else:
            self._engine_calls["scan", "thread"].inc()
            items, engine_seconds = await self._in_thread(scan)
        return protocol.ok_response(
            items=items, breakdown={"engine": engine_seconds}
        )

    # -- observability ----------------------------------------------------

    async def metrics_snapshot(self) -> dict:
        """Structured metrics for METRICS and the scrape endpoint: the
        engine's gauges brought up to now, then the registry."""
        self._store.refresh_gauges()
        return self.obs.registry.snapshot()

    async def _op_stats(self, message: dict) -> dict:
        stats = self._store.stats()
        corruption = self._store.corruption_status()
        engine = asdict(stats)
        engine["components_per_level"] = {
            str(level): count
            for level, count in stats.components_per_level.items()
        }
        return protocol.ok_response(
            engine=engine,
            server=self.metrics.snapshot(),
            corruption=corruption,
            admission_mode=self._admission.mode,
        )

