"""The two-phase methodology on the in-process engine."""

import threading
import time

import pytest

from repro.engine import LSMStore, StoreOptions
from repro.errors import ConfigurationError
from repro.harness import EngineTarget, running_phase, two_phase

TINY = StoreOptions(
    memtable_bytes=16 * 1024, levels=3, background_maintenance=True
)


@pytest.fixture
def store(tmp_path):
    with LSMStore.open(str(tmp_path / "db"), TINY) as store:
        yield store


def test_engine_target_runs_both_phases(store):
    target = EngineTarget(store, ops=400, value_bytes=256, keyspace=1000)
    outcome = two_phase(target)
    assert outcome.testing.op_count == outcome.running.op_count == 400
    assert outcome.testing.label == "testing"
    assert outcome.max_write_throughput == outcome.testing.throughput > 0
    assert outcome.arrival_rate == pytest.approx(
        0.95 * outcome.max_write_throughput
    )
    assert outcome.p99_write_latency > 0
    assert isinstance(outcome.sustainable, bool)
    # Both phases wrote through the store, 2 x 400 puts of 256 bytes,
    # and its workers flushed them into runs beside the writer.
    stats = store.stats()
    assert stats.ingested_bytes >= 2 * 400 * 256
    assert stats.disk_components > 0


def test_a_held_store_lock_shows_in_the_running_p99(store):
    """Latency counts from each write's scheduled arrival: a write that
    queued behind a 200 ms lock hold is charged the wait, as are the
    writes that arrived behind it."""
    target = EngineTarget(store, ops=1000, value_bytes=64)
    hold = 0.2

    def hold_the_lock():
        with store._lock:
            time.sleep(hold)

    # The phase spans 1 s at 1000 writes/s; the hold starts 0.4 s in.
    holder = threading.Timer(0.4, hold_the_lock)
    holder.start()
    try:
        running = running_phase(target, arrival_rate=1000.0)
    finally:
        holder.join()
    assert running.op_count == 1000
    # ~200 writes arrived during the hold; the earliest 1% of all waited
    # nearly the whole of it.
    assert running.write_latency_profile((99.0,))[99.0] >= 0.75 * hold
    assert running.max_latency >= 0.9 * hold


def test_a_testing_phase_that_completed_nothing_runs_no_running_phase():
    """A server nobody answers on completes no write; ``two_phase`` says
    so instead of asking the open loop for a rate of zero."""

    class NoAnswers:
        def closed(self):
            return 0.0, None

        def open(self, rate):
            raise AssertionError("no running phase after an empty testing phase")

    with pytest.raises(ConfigurationError, match="completed no write"):
        two_phase(NoAnswers())
