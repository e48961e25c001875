"""Tests of the benchmark itself: ``python -m pytest bench -q`` (not part of tier-1)."""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
import time

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import loadgen  # noqa: E402
import trace as spans  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, Model, Op, key_for, op_list, value_for  # noqa: E402


# -- generated inputs ---------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_operations(name):
    workload = WORKLOADS[name]
    for worker in range(workload.workers):
        assert op_list(workload, 13, worker, 2000) == op_list(workload, 13, worker, 2000)
        assert op_list(workload, 13, worker, 2000) != op_list(workload, 14, worker, 2000)


def test_workers_never_share_a_written_key():
    workload = WORKLOADS["cluster-mixed"]
    written = [
        {op.index for op in op_list(workload, 5, worker, 3000) if op.kind == "put"}
        for worker in range(workload.workers)
    ]
    assert written[0] and written[1] and not written[0] & written[1]


def test_reads_of_an_empty_store_only_ask_for_written_keys():
    workload = WORKLOADS["cluster-mixed"]
    seen = set()
    for op in op_list(workload, 5, 0, 3000):
        if op.kind == "put":
            seen.add(op.index)
        else:
            assert op.index in seen


def test_model_catches_wrong_stale_and_missing_answers():
    workload = WORKLOADS["engine-mixed"]
    model = Model(workload)
    model.acknowledge(Op("put", 7, 3))
    assert model.check_get(Op("get", 7), value_for(7, 3))
    assert not model.check_get(Op("get", 7), value_for(7, 2))
    assert not model.check_get(Op("get", 7), None)
    assert model.check_get(Op("get", 8), value_for(8, 0))
    rows = [(key_for(i), value_for(i, 3 if i == 7 else 0)) for i in range(5, 5 + workloads.SCAN_LIMIT)]
    assert model.check_scan(Op("scan", 5), rows)
    assert not model.check_scan(Op("scan", 5), rows[:-1])
    assert not model.check_scan(Op("scan", 5), [rows[1], rows[0], *rows[2:]])
    stale = [(key, value_for(7, 2) if key == key_for(7) else value) for key, value in rows]
    assert not model.check_scan(Op("scan", 5), stale)


# -- the open loop --------------------------------------------------------------


class VirtualTime:
    def __init__(self) -> None:
        self.now = 0.0

    def clock(self) -> float:
        return self.now

    async def sleep(self, seconds: float) -> None:
        self.now += seconds


class StallingConnection:
    """Answers in ``service`` virtual seconds, except one operation that takes ``stall``."""

    def __init__(self, time_: VirtualTime, service: float, stall_at: int, stall: float) -> None:
        self._time = time_
        self._service = service
        self._stall_at = stall_at
        self._stall = stall
        self.sent_at: list[float] = []

    async def put(self, key: bytes, value: bytes) -> None:
        stalled = len(self.sent_at) == self._stall_at
        self.sent_at.append(self._time.now)
        self._time.now += self._stall if stalled else self._service


def test_open_loop_times_from_due_time_and_never_sends_early():
    rate, count, stall = 100.0, 100, 0.5
    virtual = VirtualTime()
    connection = StallingConnection(virtual, service=0.001, stall_at=10, stall=stall)
    workload = WORKLOADS["wire-write"]
    recorder = loadgen.Recorder()
    asyncio.run(
        loadgen.open_loop(
            connection,
            workloads.op_stream(workload, 1, 0),
            Model(workload),
            recorder,
            epoch=0.0,
            rate=rate,
            count=count,
            clock=virtual.clock,
            sleep=virtual.sleep,
        )
    )
    due = [i / rate for i in range(count)]
    assert len(connection.sent_at) == count
    assert all(sent >= when for sent, when in zip(connection.sent_at, due))
    # Up to the stall the generator is punctual.
    assert connection.sent_at[:11] == pytest.approx(due[:11])
    latencies = recorder.latencies("put")
    # The stalled operation itself ...
    assert latencies[10] == pytest.approx(stall)
    # ... and every operation that came due behind it is charged its wait:
    # 0.5 s of stall at 10 ms spacing and 1 ms service delays about 54 more.
    assert latencies[11] == pytest.approx(stall - 0.01 + 0.001)
    charged = [seconds for seconds in latencies if seconds > 0.01]
    assert 50 <= len(charged) <= 60
    assert loadgen.percentile(latencies, 99) >= stall - 0.011
    # The generator reports how late it sent.
    assert max(recorder.late) == pytest.approx(stall - 0.01)
    assert loadgen.percentile(recorder.late, 99) == pytest.approx(stall - 0.01 - 0.009)
    assert recorder.late[5] == 0.0
    # Once the backlog drains it is punctual again.
    assert latencies[-1] == pytest.approx(0.001)


def test_closed_loop_sends_a_fixed_count_and_counts_failures():
    class Refusing:
        def __init__(self, time_):
            self._time = time_

        async def put(self, key, value):
            self._time.now += 0.01
            raise ConnectionError("refused")

    virtual = VirtualTime()
    workload = WORKLOADS["wire-write"]
    recorder = loadgen.Recorder()
    asyncio.run(
        loadgen.closed_loop(
            Refusing(virtual),
            workloads.op_stream(workload, 1, 0),
            Model(workload),
            recorder,
            total=100,
            clock=virtual.clock,
        )
    )
    assert recorder.attempted == recorder.errors == recorder.failed == 100
    assert "refused" in recorder.first_failure
    # The safety valve: a crawling stack does not hold the run forever.
    asyncio.run(
        loadgen.closed_loop(
            Refusing(virtual),
            workloads.op_stream(workload, 1, 0),
            Model(workload),
            recorder,
            total=10_000,
            give_up_at=virtual.now + 0.5,
            clock=virtual.clock,
        )
    )
    assert recorder.attempted == 150


# -- spans -------------------------------------------------------------------------


def _export(threads: dict[int, str], rows: list[tuple[str, int, float, float]]) -> dict:
    names = sorted({name for name, *_ in rows})
    return {
        "names": names,
        "threads": {str(ident): name for ident, name in threads.items()},
        "spans": [(names.index(name), ident, start * 1e-6, end * 1e-6) for name, ident, start, end in rows],
    }


def test_ledger_nesting_self_time_and_gaps_on_a_hand_built_trace():
    """One put over the wire, in microseconds; every number below is read off this table."""
    generator = _export(
        {1: "MainThread"},
        [
            ("server.client.put", 1, 0, 100),
            ("server.binproto.encode_request", 1, 2, 6),
            ("server.binproto.decode_response", 1, 90, 95),
        ],
    )
    server = _export(
        {1: "MainThread", 2: "kv-engine_0", 3: "lsm-maintenance-0"},
        [
            ("server.binproto.decode_request", 1, 20, 25),
            ("engine.datastore.timed_put", 2, 40, 70),
            ("engine.wal.append", 2, 45, 55),
            ("engine.memtable.put", 2, 56, 60),
            ("server.binproto.encode_response", 1, 80, 83),
            # Maintenance: two overlapping spans cover 30..60 once.
            ("engine.compaction.merge_advance", 3, 30, 50),
            ("engine.compaction.run_finish", 3, 40, 60),
            # Never booked to a request, whatever it overlaps.
            ("engine.sstable.items", 3, 10, 90),
        ],
    )
    book = spans.ledger({"generator": generator, "server": server}, (0.0, 200e-6))
    assert book["requests"] == 1
    assert book["request_us"]["put"] == pytest.approx([100])
    assert book["self_us"]["engine.datastore.timed_put"] == pytest.approx(30 - 10 - 4)
    assert book["self_us"]["engine.wal.append"] == pytest.approx(10)
    assert book["self_us"]["engine.memtable.put"] == pytest.approx(4)
    assert book["self_us"]["server.binproto.decode_request"] == pytest.approx(5)
    assert "engine.sstable.items" not in book["self_us"]
    gaps = book["gaps_us"]
    assert gaps["client"] == pytest.approx(2 + 5)
    assert gaps["transit"] == pytest.approx((20 - 6) + (90 - 83))
    assert gaps["handoff"] == pytest.approx((40 - 25) + (80 - 70))
    assert gaps["router"] == gaps["other"] == 0
    # Children and gaps account for the whole request.
    children = 4 + 5 + 30 + 3 + 5
    assert children + sum(gaps.values()) == pytest.approx(100)
    assert book["compaction_busy_share"] == pytest.approx(30 / 200)


def test_ledger_books_a_router_hop_apart():
    generator = _export(
        {1: "MainThread"},
        [
            ("server.client.get", 1, 0, 200),
            ("server.binproto.encode_request", 1, 1, 3),
            ("server.binproto.decode_response", 1, 190, 195),
        ],
    )
    server = _export(
        {1: "MainThread", 2: "kv-engine_0"},
        [
            ("server.binproto.decode_request", 1, 10, 14),
            ("server.client.request", 1, 30, 150),
            ("server.binproto.encode_request", 1, 32, 34),
            ("server.binproto.decode_request", 1, 50, 54),
            ("engine.datastore.get", 2, 70, 100),
            ("server.binproto.encode_response", 1, 120, 124),
            ("server.binproto.decode_response", 1, 140, 144),
            ("server.binproto.encode_response", 1, 170, 176),
        ],
    )
    book = spans.ledger({"generator": generator, "server": server}, (0.0, 1.0))
    assert book["hop_us"] == {"server.client.get": pytest.approx([120])}
    gaps = book["gaps_us"]
    assert gaps["router"] == pytest.approx((30 - 14) + (170 - 150))
    assert gaps["handoff"] == pytest.approx((70 - 54) + (120 - 100))
    assert gaps["transit"] == pytest.approx((10 - 3) + (50 - 34) + (140 - 124) + (190 - 176))
    assert gaps["client"] == pytest.approx(1 + 5 + 2 + 6)


def test_generator_spans_end_with_the_last_item_not_with_collection():
    recorder = spans.SpanRecorder()

    def rows():
        yield 1
        yield 2
        yield 3

    wrapped = spans._wrap_generator(recorder, "rows", rows)
    iterator = wrapped()
    next(iterator)
    next(iterator)
    after_second = time.perf_counter()
    time.sleep(0.01)
    iterator.close()
    ((_, _, started, ended),) = recorder.spans
    assert started <= ended <= after_second


# -- the whole thing, small ----------------------------------------------------------


def test_child_is_reaped_and_its_directory_removed_on_failure():
    import run

    with pytest.raises(RuntimeError, match="boom"):
        with run.Stand(WORKLOADS["wire-write"]) as stand:
            process = stand.stack._process
            directory = stand.directory
            assert os.path.isdir(directory) and process.poll() is None
            raise RuntimeError("boom")
    assert process.poll() is not None
    assert not os.path.exists(directory)


def test_quick_run_prints_every_metric_of_every_workload_and_nothing_else():
    started = time.monotonic()
    completed = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--quick", "--trace", "--seed", "13"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert time.monotonic() - started < 30
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as source:
        benchmark = json.load(source)
    with open(os.path.join(BENCH_DIR, "out", "result.json"), encoding="utf-8") as source:
        result = json.load(source)
    declared = {m["name"]: m["unit"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    assert sorted(result["workloads"]) == sorted(w["name"] for w in benchmark["workloads"])
    for name, entry in result["workloads"].items():
        assert entry["correct"] and entry["failed"] == 0 and entry["attempted"] > 0, name
        assert {m: v["unit"] for m, v in entry["metrics"].items()} == declared, name
    for metric in benchmark["end_to_end"]:
        for name, entry in result["workloads"].items():
            assert entry["metrics"][metric["name"]]["value"] > 0, (metric["name"], name)


def test_driver_call_ends_with_one_result_line():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as source:
        benchmark = json.load(source)
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        completed = subprocess.run(
            [*benchmark["command"], "--workload", "wire-write", "--seed", "3", "--seconds", "1", "--trace", trace],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        line = json.loads(completed.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        assert set(line["metrics"]) == {m["name"] for m in benchmark[section]}
