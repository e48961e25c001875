"""``LSMStore`` is the public face of parts that form a one-way graph.

The store holds the commit log, the maintenance executor, the rotation
rule and the compaction manager; none of them holds the store, and no
two of them hold each other, so nothing keeps a closed store alive but
its caller and no part can re-enter the store under its lock. The graph
is read off the parts' attributes: a bound method counts as the object
it is bound to, a closure as what its cells hold, a thread as its
target and arguments.

With rotation out of the group-commit leader's term, each grouped
writer rotates after its commit returns; the second half checks that
such writers still rotate and flush, and that a write committed before
a close returns normally, grouped or not.
"""

import functools
import threading
import time
import types

import pytest

from repro.engine import LSMStore, SSTableWriter, StoreOptions, WriteTiming

PARTS = ("_log", "_maintenance", "_rotation", "_compaction")


def _held(value):
    """Every object ``value`` holds onto, through methods, closures,
    partials, threads and containers (other objects are leaves)."""
    pending, seen = [value], set()
    while pending:
        item = pending.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        yield item
        if isinstance(item, types.MethodType):
            pending += [item.__self__, item.__func__]
        elif isinstance(item, types.FunctionType):
            pending += [cell.cell_contents for cell in item.__closure__ or ()]
        elif isinstance(item, functools.partial):
            pending += [item.func, *item.args, *item.keywords.values()]
        elif isinstance(item, threading.Thread):
            pending += [getattr(item, "_target", None)]
            pending += list(getattr(item, "_args", ()))
        elif isinstance(item, dict):
            pending += [*item.keys(), *item.values()]
        elif isinstance(item, (list, tuple, set, frozenset)):
            pending += list(item)


def reference_graph(store) -> dict[str, set[str]]:
    """``{part: parts it holds}`` over the store and its parts."""
    nodes = {"store": store}
    nodes.update(
        (name.strip("_"), getattr(store, name))
        for name in PARTS
        if hasattr(store, name)
    )
    names = {id(node): name for name, node in nodes.items()}
    graph = {name: set() for name in nodes}
    for name, node in nodes.items():
        for value in vars(node).values():
            for held in _held(value):
                target = names.get(id(held))
                if target is not None and target != name:
                    graph[name].add(target)
    return graph


def _cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """A cycle of ``graph`` as a path, or None."""
    state: dict[str, str] = {}

    def visit(node, path):
        state[node] = "open"
        for nxt in sorted(graph[node]):
            if state.get(nxt) == "open":
                return path + [node, nxt]
            if nxt not in state:
                found = visit(nxt, path + [node])
                if found:
                    return found
        state[node] = "done"
        return None

    for node in sorted(graph):
        if node not in state:
            found = visit(node, [])
            if found:
                return found
    return None


@pytest.mark.parametrize("workers", [True, False], ids=["workers", "inline"])
def test_the_parts_form_a_one_way_graph(tmp_path, workers):
    options = StoreOptions(
        memtable_bytes=4096, background_maintenance=workers
    )
    with LSMStore.open(str(tmp_path / "db"), options) as store:
        for i in range(300):
            store.put(b"k%04d" % i, b"v" * 32)
        graph = reference_graph(store)
        into_store = sorted(name for name, held in graph.items() if "store" in held)
        assert into_store == [], f"parts holding the store: {into_store}"
        assert _cycle(graph) is None, f"reference cycle: {_cycle(graph)}"
        assert set(graph) == {"store", *(name.strip("_") for name in PARTS)}
        assert graph["store"] == set(graph) - {"store"}


@pytest.mark.parametrize("workers", [True, False], ids=["workers", "inline"])
def test_grouped_writers_rotate_and_flush_after_their_commit(
    tmp_path, workers
):
    options = StoreOptions(
        memtable_bytes=4096,
        group_commit=True,
        background_maintenance=workers,
    )
    writers, per_writer = 8, 150
    errors = []
    start = threading.Barrier(writers)

    def write(index: int) -> None:
        try:
            start.wait()
            for i in range(per_writer):
                store.put(b"w%d-%04d" % (index, i), b"%d" % (index * i) * 8)
        except BaseException as error:  # noqa: BLE001 — reported below
            errors.append(error)

    with LSMStore.open(str(tmp_path / "db"), options) as store:
        threads = [
            threading.Thread(target=write, args=(index,))
            for index in range(writers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        counters = {
            series["name"]: series["value"]
            for series in store.obs.registry.snapshot()["counters"]
            if not series["labels"]
        }
        assert counters["engine_group_commit_batches_total"] == (
            writers * per_writer
        )
        assert counters["engine_memtable_rotations_total"] >= 10
        store.maintenance()
        assert counters["engine_flushes_total"] >= 1
        assert store.stats().memtable_bytes < 2 * 4096
        for index in range(writers):
            for i in range(per_writer):
                key = b"w%d-%04d" % (index, i)
                assert store.get(key) == b"%d" % (index * i) * 8, key


def test_a_grouped_write_the_store_closed_under_does_not_raise(tmp_path):
    """The store's close begins between a grouped write's commit and its
    rotation, while the sealed queue is full and the workers are not yet
    joined: the write has committed, so it returns its timing instead of
    meeting the closed store in the flush-stall wait. (Here the close is
    its first step only, the flag; flushes are held back to keep the
    queue full.)"""
    options = StoreOptions(
        memtable_bytes=4096, group_commit=True, background_maintenance=True
    )
    batch = [(b"k%04d" % i, b"v" * 64) for i in range(100)]  # > 4 KiB
    directory = str(tmp_path / "db")
    with LSMStore.open(directory, options) as store:
        maintenance = store._maintenance
        maintenance._claim_flush_locked = lambda: None
        store.write_batch(batch)  # rotates into the one sealed slot
        assert store.stats().sealed_memtables == 1
        commit = store._log.commit_grouped

        def commit_then_close(committed_batch):
            committed = commit(committed_batch)
            store._log.closed = True
            return committed

        store._log.commit_grouped = commit_then_close
        outcome = []
        writer = threading.Thread(
            target=lambda: outcome.append(
                store.timed_write_batch([(b"late", b"v" * 4096)])
            ),
            daemon=True,
        )
        writer.start()
        writer.join(timeout=10)
        assert not writer.is_alive(), "the committed write waited"
        assert outcome and outcome[0].wal_end > outcome[0].wal_offset
        del store._log.commit_grouped, maintenance._claim_flush_locked
        store._log.closed = False
    with LSMStore.open(directory, options) as reopened:
        assert reopened.get(b"late") == b"v" * 4096
        assert reopened.get(b"k0099") == b"v" * 64


def test_a_write_parked_in_a_flush_stall_returns_when_the_store_closes(
    tmp_path, monkeypatch
):
    """An ungrouped write commits, finds the one sealed slot taken by a
    flush the worker holds, and waits; the store closes under it. The
    write is logged and in the memtable, so it returns its timing, and
    the close flushes it."""
    options = StoreOptions(memtable_bytes=4096, background_maintenance=True)
    finish = SSTableWriter.finish
    flushing, release = threading.Event(), threading.Event()

    def held(writer):
        flushing.set()
        release.wait(timeout=30)
        return finish(writer)

    monkeypatch.setattr(SSTableWriter, "finish", held)
    directory = str(tmp_path / "db")
    store = LSMStore.open(directory, options)
    store.write_batch([(b"k%04d" % i, b"v" * 64) for i in range(100)])
    assert flushing.wait(timeout=10), "the first memtable was not flushed"
    committed = store.wal_position().lsn
    outcome = []

    def write():
        try:
            outcome.append(
                store.timed_write_batch([(b"late", b"v" * 4096)])
            )
        except BaseException as error:  # noqa: BLE001 — asserted below
            outcome.append(error)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    # The writer holds the store lock from its commit until it parks.
    deadline = time.monotonic() + 10
    while store.wal_position().lsn == committed:
        assert time.monotonic() < deadline, "the second write never committed"
        time.sleep(0.001)
    closer = threading.Thread(target=store.close, daemon=True)
    closer.start()
    writer.join(timeout=10)
    release.set()
    closer.join(timeout=30)
    assert not writer.is_alive() and not closer.is_alive()
    assert len(outcome) == 1 and isinstance(outcome[0], WriteTiming), outcome
    with LSMStore.open(directory, options) as reopened:
        assert reopened.get(b"late") == b"v" * 4096
