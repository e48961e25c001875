"""One benchmark for the real stack: four workloads, end-to-end metrics, a per-layer ledger.

    python3 bench/run.py --seed 13                  # every workload, end to end
    python3 bench/run.py --seed 13 --trace          # ... plus the per-layer ledger
    python3 bench/run.py --workload wire-read --seed 7 --seconds 12 --trace 0

Each run generates its inputs from ``--seed``, measures for ``--seconds``,
checks every answer against a model, prints every metric by name with its
unit, writes ``bench/out/result.json`` and ends with one JSON line
(``correct``, ``attempted``, ``failed``, ``metrics``). It exits non-zero
if any value was wrong or the stack under ``src/`` cannot be imported.
See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import json
import os
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH_DIR, "out")
#: Scratch stores live here — inside the checkout — and are removed after use.
TMP = os.path.join(OUT, "tmp")
sys.path.insert(0, SRC)

import trace as spans  # noqa: E402 — bench/trace.py, after the path set-up
from loadgen import (  # noqa: E402
    EngineConnection,
    Recorder,
    closed_loop,
    execute,
    open_loop,
    percentile,
)
from workloads import (  # noqa: E402
    CLUSTER_REPLICAS,
    SCAN_LIMIT,
    SETUP_REPEATS,
    STORE_OPTIONS,
    VALUE_BYTES,
    VERIFY_KEYS,
    WARMUP_SHARE,
    WORKLOADS,
    Model,
    Op,
    Workload,
    key_for,
    op_stream,
    value_for,
)

CHILD_START_TIMEOUT = 120.0
CHILD_REPLY_TIMEOUT = 120.0
#: Phase B operations slower than this count into ``loadgen.open_put_slow_share``.
SLOW_SECONDS = 0.010
#: A loop stops sending this many times ``--seconds`` after it began, its
#: operations sent or not: on a box slowed fivefold by its neighbours a
#: run must still end well inside the driver's limit.
GIVE_UP_AFTER = 5.0
#: Each ledger pass sends this share of a full run's operations (two
#: passes must fit in one run's time, and spans cost memory).
LEDGER_SHARE = 0.5
PING_SAMPLES = 300
FSYNC_SAMPLES = 30


# -- the stack under test --------------------------------------------------


class EngineStack:
    """``LSMStore`` in this process, preloaded exactly as the child does it."""

    def __init__(self, workload: Workload, directory: str, traced: bool) -> None:
        from repro.engine import LSMStore, StoreOptions

        self._open = lambda: LSMStore.open(
            os.path.join(directory, "store"), StoreOptions(**STORE_OPTIONS)
        )
        self._workload = workload
        self._directory = directory
        self._store = None
        self._report: dict = {}

    def start(self) -> None:
        from server_proc import preload

        self._store = self._open()
        preload(self._store, self._workload.preload)
        self._report["baseline"] = self._counters()

    def _counters(self) -> dict:
        from server_proc import directory_bytes, store_snapshot

        return {
            "stores": [store_snapshot(self._store)],
            "directory_bytes": directory_bytes(self._directory),
        }

    def connections(self, count: int) -> list:
        return [EngineConnection(self._store)]

    async def release(self, connections: list) -> None:
        pass

    def quiesce(self) -> None:
        self._store.flush()
        self._store.maintenance()
        self._report["quiesce"] = self._counters()

    def reopen(self) -> None:
        self._store.close()
        self._store = self._open()

    def close(self) -> dict:
        if self._store is not None:
            self._report["final"] = self._counters()
            self._store.close()
            self._store = None
        self._report["ru_maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return self._report


class ChildStack:
    """A ``server_proc.py`` child; always reaped, whatever happens."""

    def __init__(self, workload: Workload, directory: str, traced: bool) -> None:
        self._workload = workload
        self._directory = directory
        self._report_path = os.path.join(directory, "report.json")
        self._trace_path = os.path.join(directory, "spans.json") if traced else ""
        self._process: subprocess.Popen | None = None
        self._buffer = b""
        self._port = 0

    def start(self) -> None:
        environment = dict(os.environ)
        environment["PYTHONPATH"] = os.pathsep.join(
            [SRC, BENCH_DIR, environment.get("PYTHONPATH", "")]
        ).rstrip(os.pathsep)
        self._process = subprocess.Popen(
            [
                sys.executable,
                os.path.join(BENCH_DIR, "server_proc.py"),
                "--topology",
                self._workload.topology,
                "--dir",
                self._directory,
                "--report",
                self._report_path,
                "--preload",
                str(self._workload.preload),
                "--trace-out",
                self._trace_path,
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=environment,
            cwd=ROOT,
        )
        self._port = self._read_reply(CHILD_START_TIMEOUT)["port"]

    def _read_reply(self, timeout: float) -> dict:
        deadline = time.monotonic() + timeout
        stdout = self._process.stdout
        while b"\n" not in self._buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([stdout], [], [], remaining)[0]:
                raise RuntimeError("the server child did not answer in time")
            chunk = os.read(stdout.fileno(), 65536)
            if not chunk:
                raise RuntimeError(
                    f"the server child exited early (code {self._process.poll()})"
                )
            self._buffer += chunk
        line, _, self._buffer = self._buffer.partition(b"\n")
        return json.loads(line)

    def _command(self, word: str) -> dict:
        self._process.stdin.write(word.encode() + b"\n")
        self._process.stdin.flush()
        return self._read_reply(CHILD_REPLY_TIMEOUT)

    def connections(self, count: int) -> list:
        from repro.server import KVClient

        return [
            KVClient(
                "127.0.0.1",
                self._port,
                pool_size=1,
                timeout=30.0,
                max_retries=0,
                wire="binary",
            )
            for _ in range(count)
        ]

    async def release(self, connections: list) -> None:
        for connection in connections:
            await connection.aclose()

    def quiesce(self) -> None:
        self._command("quiesce")

    def reopen(self) -> None:
        self._port = self._command("reopen")["port"]

    def close(self) -> dict:
        """Close stdin, wait for the child, read what it left; kill it if it lingers."""
        process, self._process = self._process, None
        if process is None:
            return {}
        try:
            process.stdin.close()
            process.wait(timeout=60.0)
        except (subprocess.TimeoutExpired, OSError):
            process.kill()
        finally:
            process.wait()
            process.stdout.close()
        report: dict = {}
        if process.returncode == 0 and os.path.exists(self._report_path):
            with open(self._report_path, encoding="utf-8") as source:
                report = json.load(source)
            if self._trace_path:
                with open(self._trace_path, encoding="utf-8") as source:
                    report["spans"] = json.load(source)
        return report


class Stand:
    """One set-up of a workload's stack in a private directory under ``bench/out/tmp``.

    Leaving the ``with`` block stops the stack (reaping the child) and
    removes the directory, also on failure or Ctrl-C; what the stack
    reported is then in ``report``.
    """

    def __init__(self, workload: Workload, traced: bool = False) -> None:
        self._workload = workload
        self._traced = traced
        self.directory = ""
        self.stack = None
        self.report: dict = {}

    def __enter__(self) -> "Stand":
        os.makedirs(TMP, exist_ok=True)
        self.directory = tempfile.mkdtemp(dir=TMP)
        stack_class = EngineStack if self._workload.topology == "engine" else ChildStack
        self.stack = stack_class(self._workload, self.directory, self._traced)
        try:
            self.stack.start()
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        try:
            self.report = self.stack.close()
        finally:
            shutil.rmtree(self.directory, ignore_errors=True)


# -- one measured pass -------------------------------------------------------


@dataclasses.dataclass
class Pass:
    """Everything one pass over a workload observed."""

    workload: Workload
    closed: Recorder
    open: Recorder
    #: The closed loop ran over [ready, closed_end]; [ready, since) is warm-up.
    ready: float
    since: float
    closed_end: float
    verify: Recorder
    model: Model
    report: dict
    setup_seconds: list[float]
    ping_us: float

    @property
    def recorders(self) -> tuple[Recorder, Recorder, Recorder]:
        return self.closed, self.open, self.verify

    @property
    def attempted(self) -> int:
        return sum(r.attempted for r in self.recorders)

    @property
    def failed(self) -> int:
        return sum(r.failed for r in self.recorders)

    @property
    def wrong(self) -> int:
        return sum(r.wrong for r in self.recorders)

    @property
    def first_failure(self) -> str:
        return next((r.first_failure for r in self.recorders if r.first_failure), "")

    @property
    def puts_acknowledged(self) -> int:
        return len(self.closed.samples.get("put", ())) + len(self.open.samples.get("put", ()))

    @property
    def ops_s(self) -> float:
        return self.closed.count(self.since) / (self.closed_end - self.since)

    def counters(self, moment: str) -> dict:
        """The stack's counters after set-up (``baseline``) or at ``quiesce``."""
        if moment not in self.report:
            raise RuntimeError(f"the stack left no {moment} counters (did the child die?)")
        return self.report[moment]


async def _drive(stand: Stand, workload: Workload, seed: int, seconds: float, ping: bool) -> dict:
    """The measured window: closed loop, then (wire-write) the open loop."""
    model = Model(workload)
    closed, opened = Recorder(), Recorder()
    streams = [op_stream(workload, seed, worker) for worker in range(workload.workers)]
    connections = stand.stack.connections(workload.workers)
    ping_us = 0.0
    try:
        # The first request opens the connection; keep that out of the window.
        warm = Recorder()
        for connection in connections:
            await execute(connection, Op("get", workload.keyspace), model, warm, time.perf_counter)
        if warm.failed:
            raise RuntimeError(f"the stack did not answer: {warm.first_failure}")
        if ping and hasattr(connections[0], "ping"):
            samples = []
            for _ in range(PING_SAMPLES):
                started = time.perf_counter()
                await connections[0].ping()
                samples.append(time.perf_counter() - started)
            ping_us = statistics.fmean(samples) * 1e6
        total = max(workload.workers, int(workload.closed_ops_per_second * seconds * workload.closed_share))
        ready = time.perf_counter()
        await asyncio.gather(
            *(
                closed_loop(connection, stream, model, closed, total, ready + GIVE_UP_AFTER * seconds)
                for connection, stream in zip(connections, streams)
            )
        )
        closed_end = time.perf_counter()
        if workload.open_rate:
            per_worker = workload.open_rate / workload.workers
            count = int(per_worker * seconds * (1 - workload.closed_share))
            epoch = time.perf_counter() + 0.05
            await asyncio.gather(
                *(
                    open_loop(
                        connection, stream, model, opened, epoch, per_worker, count,
                        epoch + GIVE_UP_AFTER * seconds,
                    )
                    for connection, stream in zip(connections, streams)
                )
            )
    finally:
        await stand.stack.release(connections)
    # The first tenth of the operations warms up; nothing before ``since`` is timed.
    sent = sorted(sent_at for samples in closed.samples.values() for sent_at, _ in samples)
    return {
        "model": model,
        "closed": closed,
        "open": opened,
        "ready": ready,
        "since": sent[int(WARMUP_SHARE * len(sent))],
        "closed_end": closed_end,
        "ping_us": ping_us,
    }


async def _verify(stand: Stand, model: Model, seed: int) -> Recorder:
    """Read sampled keys back from the reopened store."""
    recorder = Recorder()
    connections = stand.stack.connections(1)
    try:
        for index in model.sample(seed, VERIFY_KEYS):
            await execute(connections[0], Op("get", index), model, recorder, time.perf_counter)
    finally:
        await stand.stack.release(connections)
    return recorder


def measure(
    workload: Workload,
    seed: int,
    seconds: float,
    setup_repeats: int = 1,
    traced: bool = False,
    ping: bool = False,
) -> Pass:
    """Set up (``setup_repeats`` times, keeping the last), drive, quiesce, reopen, verify."""
    setup_seconds = []
    for _ in range(setup_repeats - 1):
        started = time.perf_counter()
        with Stand(workload):
            setup_seconds.append(time.perf_counter() - started)
    started = time.perf_counter()
    with Stand(workload, traced) as stand:
        setup_seconds.append(time.perf_counter() - started)
        driven = asyncio.run(_drive(stand, workload, seed, seconds, ping))
        stand.stack.quiesce()
        stand.stack.reopen()
        verify = asyncio.run(_verify(stand, driven["model"], seed))
    return Pass(
        workload=workload,
        verify=verify,
        report=stand.report,
        setup_seconds=setup_seconds,
        **driven,
    )


# -- metrics -----------------------------------------------------------------

RECORD_BYTES = len(key_for(0)) + VALUE_BYTES


def _wal_frame_bytes(batch_size: int) -> int:
    from repro.engine import WriteAheadLog

    batch = [(key_for(i), value_for(i, 0)) for i in range(batch_size)]
    return len(WriteAheadLog.encode_frame(batch))


def _p(values: list[float], q: float) -> float:
    """Percentile in microseconds; 0 when the workload has no such operation."""
    return percentile(values, q) * 1e6 if values else 0.0


def _block_lookups(moment: dict) -> int:
    return sum(store["cache_hits"] + store["cache_misses"] for store in moment["stores"])


def end_to_end(p: Pass) -> dict:
    """The gated metrics (``--trace 0``): set-up time and what the run cost in
    writes, reads, space and memory. Each is a count or a size, which a
    busy neighbour cannot move; every *time* is in the ledger instead
    (see README.md, "Why no latency is gated")."""
    from server_proc import PRELOAD_BATCH

    workload = p.workload
    at_rest = p.counters("quiesce")
    # Every copy of a record is logged once, then rewritten by its flush
    # and merges; a follower keeps its own log and tree. The log is
    # truncated as it goes, so its bytes are counted from the frame format.
    copies = 1 + CLUSTER_REPLICAS if workload.topology == "cluster" else 1
    logged = copies * (
        p.puts_acknowledged * _wal_frame_bytes(1)
        + workload.preload // PRELOAD_BATCH * _wal_frame_bytes(PRELOAD_BATCH)
    )
    rewritten = sum(store["maintenance_bytes_written"] for store in at_rest["stores"])
    # Reads of the window, plus the read-back after reopen (whose
    # counters started again from zero with the new store).
    reads = sum(
        len(recorder.samples.get(kind, ()))
        for recorder in (p.closed, p.verify)
        for kind in ("get", "scan")
    )
    lookups = (
        _block_lookups(at_rest) - _block_lookups(p.counters("baseline")) + _block_lookups(p.counters("final"))
    )
    return {
        "setup_s": statistics.median(p.setup_seconds),
        "write_amp": (logged + rewritten) / ((workload.preload + p.puts_acknowledged) * RECORD_BYTES),
        "read_amp": lookups / reads,
        "space_amp": at_rest["directory_bytes"] / p.model.live_user_bytes(),
        "peak_rss_mb": p.report["ru_maxrss_kb"] / 1024.0,
    }


def _fsync_us() -> float:
    """One 1 KiB ``append`` + fsync, timed alone: what ``sync_writes`` would add per commit."""
    from repro.engine import WriteAheadLog

    batch = [(key_for(0), value_for(0, 0))]
    samples = []
    with tempfile.TemporaryDirectory(dir=TMP) as directory:
        log = WriteAheadLog(os.path.join(directory, "probe.log"), sync=True)
        try:
            for _ in range(FSYNC_SAMPLES):
                started = time.perf_counter()
                log.append(batch)
                samples.append(time.perf_counter() - started)
        finally:
            log.close()
    return statistics.median(samples) * 1e6


def _registry_total(registries: list[dict], name: str) -> float:
    return sum(
        entry["value"]
        for registry in registries
        for entry in registry.get("counters", ())
        if entry["name"] == name
    )


def per_layer(plain: Pass, traced: Pass, generator_spans: dict) -> dict:
    """The ledger (``--trace 1``).

    Counts and client-side numbers come from the plain pass (counts are
    the growth of the stack's own counters between set-up and quiesce),
    layer times from the traced one; a metric of a layer the workload
    does not touch is 0.
    """
    from repro.server import binproto

    workload = plain.workload
    exports = {"generator": generator_spans}
    if "spans" in traced.report:
        exports["server"] = traced.report["spans"]
    book = spans.ledger(exports, (traced.since, traced.closed_end))
    self_us, calls, durations = book["self_us"], book["calls"], book["durations_us"]

    def per_call(*names: str) -> float:
        total_calls = sum(calls.get(name, 0) for name in names)
        return sum(self_us.get(name, 0.0) for name in names) / total_calls if total_calls else 0.0

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    store_put = ("engine.datastore.put", "engine.datastore.timed_put")
    requests = book["requests"]
    gaps = book["gaps_us"]
    # What the generator saw per request, against what the spans explain:
    # time between encode and decode is in no span (kernel, event loop).
    seen = [
        seconds * 1e6
        for kind in traced.closed.samples
        for seconds in traced.closed.latencies(kind, traced.since)
    ]
    in_spans = sum(sum(values) for values in book["request_us"].values())
    unexplained = gaps["transit"] + gaps["other"] + max(0.0, sum(seen) - in_spans)

    before, after = plain.counters("baseline"), plain.counters("quiesce")

    def grown(read) -> float:
        return float(read(after) - read(before))

    def over_stores(field):
        return lambda moment: sum(field(store) for store in moment["stores"])

    def over_registries(name: str, key: str = ""):
        """A counter summed over the stores' registries, or over those under ``key``."""
        return lambda moment: _registry_total(
            moment[key] if key else [store["registry"] for store in moment["stores"]], name
        )

    hits = grown(over_stores(lambda store: store["cache_hits"]))
    misses = grown(over_stores(lambda store: store["cache_misses"]))
    stall_s = grown(over_stores(lambda store: store["stats"]["stall_seconds_total"]))
    front = "router" if workload.topology == "cluster" else "server"
    rejected = grown(lambda moment: moment.get(front, {}).get("writes_rejected", 0))
    admitted = grown(lambda moment: moment.get(front, {}).get("writes_admitted", 0))
    queue = [
        entry
        for entry in after.get("server_registry", {}).get("histograms", ())
        if entry["name"] == "server_request_seconds"
        and entry["labels"].get("component") == "queue"
    ]
    per_shard = list(after.get("router", {}).get("writes_admitted_per_shard", {}).values())
    put_frame = binproto.encode_frame(
        binproto.encode_request({"op": "PUT", "key": key_for(0), "value": value_for(0, 0)})
    )
    ack_frame = binproto.encode_frame(binproto.encode_response({"ok": True}))
    wired = workload.topology != "engine"
    sstable_get = ("engine.sstable.get", "engine.sstable.get" + spans.FOUND_SUFFIX)
    found = calls.get(sstable_get[1], 0)
    block_reads = calls.get(sstable_get[0], 0) + found
    open_puts = plain.open.latencies("put")

    def added(kind: str) -> float:
        """Mean time the router hop adds: the client's call minus the router's own call to the shard."""
        hop = book["hop_us"].get(f"server.client.{kind}")
        return statistics.fmean(book["request_us"][kind]) - statistics.fmean(hop) if hop else 0.0

    return {
        "server.client.self_us": ratio(gaps["client"], requests),
        "server.binproto.enc_req_us": per_call("server.binproto.encode_request"),
        "server.binproto.dec_req_us": per_call("server.binproto.decode_request"),
        "server.binproto.enc_resp_us": per_call("server.binproto.encode_response"),
        "server.binproto.dec_resp_us": per_call("server.binproto.decode_response"),
        "server.binproto.bytes_per_put": float(len(put_frame) + len(ack_frame)) if wired else 0.0,
        "server.service.ping_rtt_us": plain.ping_us,
        "server.service.handoff_us": ratio(gaps["handoff"], requests),
        "server.service.queue_us": ratio(
            sum(entry["sum"] for entry in queue) * 1e6, sum(entry["count"] for entry in queue)
        ),
        "server.admission.reject_share": ratio(rejected, rejected + admitted),
        "engine.datastore.put_self_us": per_call(*store_put),
        "engine.datastore.get_self_us": per_call("engine.datastore.get"),
        "engine.datastore.scan_self_us": per_call("engine.datastore.scan"),
        "engine.datastore.put_p99_us": _p(
            [us * 1e-6 for name in store_put for us in durations.get(name, ())], 99
        ),
        "engine.datastore.get_p99_us": _p(
            [us * 1e-6 for us in durations.get("engine.datastore.get", ())], 99
        ),
        "engine.datastore.stalls": grown(over_stores(lambda store: store["stats"]["write_stalls"])),
        "engine.datastore.stall_s": stall_s,
        "engine.datastore.stall_share": stall_s / (plain.closed_end - plain.ready),
        "engine.wal.append_us": per_call("engine.wal.append"),
        "engine.wal.bytes_per_user_byte": _wal_frame_bytes(1) / RECORD_BYTES,
        "engine.wal.sync_us": _fsync_us(),
        "engine.memtable.put_us": per_call("engine.memtable.put"),
        "engine.memtable.get_us": per_call("engine.memtable.get"),
        "engine.sstable.get_us": per_call(*sstable_get),
        "engine.sstable.runs_probed_per_get": ratio(block_reads, calls.get("engine.datastore.get", 0)),
        "engine.sstable.filter_probe_us": per_call("engine.sstable.might_contain"),
        "engine.sstable.filter_useful_share": ratio(found, block_reads),
        "engine.blockcodec.decode_us": per_call("engine.blockcodec.decode"),
        "engine.blockcache.hit_share": ratio(hits, hits + misses),
        "engine.blockcache.evictions": grown(over_stores(lambda store: store["cache_evictions"])),
        # Scans ask for SCAN_LIMIT rows and all but the last few of the keyspace get them.
        "engine.iterators.scan_row_us": ratio(
            sum(durations.get("engine.datastore.scan", ())),
            SCAN_LIMIT * calls.get("engine.datastore.scan", 0),
        ),
        "engine.compaction.flushes": grown(over_registries("engine_flushes_total")),
        "engine.compaction.merges": grown(over_stores(lambda store: store["stats"]["merges_completed"])),
        "engine.compaction.flush_bytes": grown(over_registries("engine_flush_bytes_total")),
        "engine.compaction.merge_bytes": grown(over_registries("engine_merge_bytes_total")),
        "engine.compaction.busy_share": book["compaction_busy_share"],
        "cluster.router.self_us": ratio(gaps["router"], requests),
        "cluster.router.added_put_us": added("put"),
        "cluster.router.added_get_us": added("get"),
        "cluster.router.shard_skew": ratio(max(per_shard, default=0), statistics.fmean(per_shard or [0])),
        "replication.shipper.frames_shipped": (
            grown(over_registries("replication_frames_shipped_total", "leader_registries"))
            if "leader_registries" in after
            else 0.0
        ),
        "replication.shipper.lag_bytes_end": float(after.get("lag_bytes_end", 0)),
        "loadgen.late_p99_us": _p(plain.open.late, 99),
        "loadgen.open_put_p50_us": _p(open_puts, 50),
        "loadgen.open_put_p99_us": _p(open_puts, 99),
        "loadgen.open_put_slow_share": ratio(
            sum(1 for seconds in open_puts if seconds > SLOW_SECONDS), len(open_puts)
        ),
        "client.ops_s": plain.ops_s,
        "client.put_p50_us": _p(plain.closed.latencies("put", plain.since), 50),
        "client.put_p99_us": _p(plain.closed.latencies("put", plain.since), 99),
        "client.get_p50_us": _p(plain.closed.latencies("get", plain.since), 50),
        "client.get_p99_us": _p(plain.closed.latencies("get", plain.since), 99),
        "client.scan_p50_us": _p(plain.closed.latencies("scan", plain.since), 50),
        "ledger.client_mean_us": statistics.fmean(seen),
        "ledger.unattributed_share": unexplained / sum(seen),
        "ledger.trace_overhead_share": (
            sum(len(export["spans"]) for export in exports.values())
            * spans.span_cost()
            / (traced.closed_end - traced.ready)
        ),
    }


# -- orchestration -------------------------------------------------------------


def run_ledger(workload: Workload, seed: int, seconds: float):
    """A plain pass at the workload's own connection count, then a traced one
    on a single connection, so that a span's parent is simply the span
    around it in time. Each sends ``LEDGER_SHARE`` of a full run's operations."""
    plain = measure(workload, seed, seconds * LEDGER_SHARE, ping=True)
    recorder = spans.install()
    try:
        traced = measure(
            dataclasses.replace(workload, workers=1), seed, seconds * LEDGER_SHARE, traced=True
        )
    finally:
        recorder.uninstall()
    generator_spans = recorder.export()
    with open(os.path.join(OUT, f"trace-{workload.name}.json"), "w", encoding="utf-8") as sink:
        json.dump({"generator": generator_spans, "server": traced.report.get("spans")}, sink)
    return [plain, traced], per_layer(plain, traced, generator_spans)


def quick(workload: Workload) -> Workload:
    """The workload at 1/50 of its data, for the smoke test."""
    if not workload.preload:
        return workload
    return dataclasses.replace(workload, preload=workload.preload // 50, keyspace=workload.keyspace // 50)


def run_one(workload: Workload, trace: int, seed: int, seconds: float, repeats: int) -> dict:
    """One workload, one kind of metric — the unit the driver asks for. Returns the result line."""
    if trace:
        passes, metrics = run_ledger(workload, seed, seconds)
    else:
        passes = [measure(workload, seed, seconds, setup_repeats=repeats)]
        metrics = end_to_end(passes[0])
    for p in passes:
        if p.failed:
            print(
                f"{workload.name}: {p.failed} of {p.attempted} operations failed, "
                f"{p.wrong} with a wrong value; first: {p.first_failure}",
                file=sys.stderr,
            )
    return {
        "correct": all(p.wrong == 0 for p in passes),
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": metrics,
    }


def run_all(args, names: list[str]) -> dict:
    """Every workload, each in a process of its own — exactly as the driver
    runs them, so that no workload inherits another's memory or caches."""
    results: dict[str, dict] = {}
    for name in names:
        entry = results[name] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for trace in (0, 1) if args.trace else (0,):
            command = [
                sys.executable, os.path.abspath(__file__),
                "--workload", name, "--seed", str(args.seed), "--trace", str(trace),
            ]  # fmt: skip
            if args.seconds:
                command += ["--seconds", str(args.seconds)]
            if args.quick:
                command.append("--quick")
            completed = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            *table, last = completed.stdout.splitlines() or [""]
            print("\n".join(table), flush=True)
            if completed.returncode not in (0, 1):
                raise SystemExit(f"{name}: run.py exited {completed.returncode}")
            line = json.loads(last)
            entry["correct"] = entry["correct"] and line["correct"]
            entry["attempted"] += line["attempted"]
            entry["failed"] += line["failed"]
            entry["metrics"].update(line["metrics"])
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: all four")
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        nargs="?",
        const=1,
        default=0,
        help="1: the per-layer ledger (for one workload: instead of the gated metrics)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="1/50 of the time and data, one set-up: a smoke test, not a measurement",
    )
    args = parser.parse_args()
    # Ctrl-C already unwinds through the ``with`` blocks; let a plain kill do so too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no stack to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as source:
        benchmark = json.load(source)
    os.makedirs(OUT, exist_ok=True)
    if args.workload:
        seconds = args.seconds or float(benchmark["run_seconds"])
        workload, repeats = WORKLOADS[args.workload], SETUP_REPEATS
        if args.quick:
            workload, seconds, repeats = quick(workload), seconds / 50, 1
        units = {m["name"]: m["unit"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}
        line = run_one(workload, args.trace, args.seed, seconds, repeats)
        for metric, value in line["metrics"].items():
            print(f"{args.workload:14s} {metric:38s} {value:16.4f} {units[metric]}")
        line["metrics"] = {
            metric: {"value": value, "unit": units[metric]}
            for metric, value in line["metrics"].items()
        }
        results = {args.workload: line}
    else:
        results = run_all(args, [w["name"] for w in benchmark["workloads"]])
    with open(os.path.join(OUT, "result.json"), "w", encoding="utf-8") as sink:
        json.dump({"seed": args.seed, "workloads": results}, sink, indent=1)
    if args.workload:
        print(json.dumps(results[args.workload]))
    return 0 if all(entry["correct"] for entry in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
