"""The engine's one time seam: its ``obs`` bundle.

The store reads the clock, sleeps and waits on a condition only through
``obs.clock``, ``obs.sleep`` and ``obs.wait``, so where time comes from
is one decision, made by whoever builds the bundle. The guard reads
every engine module's syntax tree; the store tests run a caller-driven
store on :class:`~tests.faketime.FakeTime` with ``time.sleep`` made to
raise, so a wall-clock sleep anywhere on their path fails them.
"""

from __future__ import annotations

import ast
import time
from pathlib import Path

import pytest

from repro.engine import (
    LSMStore,
    MergeJob,
    SSTableReader,
    StoreOptions,
    compaction,
    maintenance,
)
from tests.engine.test_maintenance_workers import hold_back_merges
from tests.faketime import FakeTime

ENGINE = Path(__file__).resolve().parents[2] / "src" / "repro" / "engine"


def time_outside_the_seam(path: Path) -> list[str]:
    """``file:line: what`` for every import of ``time``, use of a name
    ``time`` and ``.wait`` called on anything but an ``obs`` bundle."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        what = None
        if isinstance(node, ast.Import):
            if any(alias.name.split(".")[0] == "time" for alias in node.names):
                what = "import time"
        elif isinstance(node, ast.ImportFrom):
            if node.module == "time" and not node.level:
                what = "from time import"
        elif isinstance(node, ast.Name) and node.id == "time":
            what = "time"
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "wait"
        ):
            receiver = node.func.value
            name = getattr(receiver, "attr", getattr(receiver, "id", None))
            if name not in ("obs", "_obs"):
                what = f"{ast.unparse(node.func)}()"
        if what is not None:
            found.append((node.lineno, what))
    return [f"{path.name}:{line}: {what}" for line, what in sorted(found)]


def test_the_engine_takes_time_only_from_obs():
    modules = sorted(ENGINE.glob("*.py"))
    assert len(modules) > 20
    found = [hit for path in modules for hit in time_outside_the_seam(path)]
    assert found == []


def test_the_guard_sees_each_way_round_the_seam(tmp_path):
    source = tmp_path / "mutant.py"
    source.write_text(
        "import time\n"
        "from time import sleep\n"
        "time.sleep(0.05)\n"
        "self._changed.wait(timeout=0.05)\n"
        "self._obs.wait(self._changed, 0.05)\n"
        "obs.sleep(0.05)\n"
    )
    assert time_outside_the_seam(source) == [
        "mutant.py:1: import time",
        "mutant.py:2: from time import",
        "mutant.py:3: time",
        "mutant.py:4: self._changed.wait()",
    ]


@pytest.fixture
def fake(monkeypatch):
    """A fake time, with every wall-clock sleep made to fail."""

    def wall_clock_sleep(seconds):
        raise AssertionError(f"slept {seconds}s on the wall clock")

    monkeypatch.setattr(time, "sleep", wall_clock_sleep)
    return FakeTime()


def test_a_failed_merge_backs_off_on_the_store_time(
    tmp_path, monkeypatch, fake
):
    options = StoreOptions(
        memtable_bytes=16 * 1024,
        size_ratio=3,
        levels=3,
        obs=fake,
    )
    with LSMStore.open(str(tmp_path / "db"), options) as store:
        assert store._maintenance._worker is None
        hold_back_merges(store)
        read_at = SSTableReader.read_at

        def flaky(self, offset, length):
            # Only a merge's handles read through a buffered file.
            if self._file is not None and fake.now < 0.5:
                raise OSError("injected: I/O error")
            return read_at(self, offset, length)

        attempts = []
        advance = MergeJob.advance

        def counted(self, chunk_bytes):
            attempts.append(fake.now)
            return advance(self, chunk_bytes)

        monkeypatch.setattr(SSTableReader, "read_at", flaky)
        monkeypatch.setattr(MergeJob, "advance", counted)
        store._lock.release()
        raised = 0
        while True:
            try:
                store.maintenance()
                break
            except OSError:
                raised += 1
        assert store.stats().merges_completed > 0
        assert len(list(store.scan())) == 600
    # One attempt per back-off: each drain after the first slept one
    # poll, the length of the back-off, then tried once, until one
    # merged.
    failed = [at for at in attempts if at < 0.5]
    assert raised == len(failed) >= 0.5 / compaction.RETRY_SECONDS
    tried = attempts[: raised + 1]
    for before, after in zip(tried, tried[1:]):
        assert after - before == pytest.approx(compaction.RETRY_SECONDS)
    assert fake.sleeps == [maintenance._POLL_SECONDS] * raised


def test_settle_waits_out_a_commit_group_on_the_store_time(tmp_path, fake):
    options = StoreOptions(group_commit=True, sync_writes=True, obs=fake)
    with LSMStore.open(str(tmp_path / "db"), options) as store:
        store.put(b"k", b"v")
        log = store._log
        # A leader is mid-fsync until fake t = 0.175.
        log._gc_leader_busy = True
        fake.at(0.175, lambda: setattr(log, "_gc_leader_busy", False))
        log.settle()
        assert fake.waits == [0.05] * 4
        assert fake.sleeps == []
        assert store.get(b"k") == b"v"
