"""Corruption survival: read-path quarantine, scrub detection, repair.

These tests drive the engine's whole corruption story without a network:
flip bytes in a run's data region, watch the read path (or the scrubber)
detect and quarantine it, confirm the fail-fast containment contract
(inside the bounds: DataCorruptError; outside: normal service), then
repair the run from a "replica view" and watch service resume.
"""

import os

import pytest

from repro.engine import LSMStore, StoreOptions
from repro.engine.quarantine import QuarantineEntry
from repro.engine.sstable import _FOOTER
from repro.errors import DataCorruptError

from .images import frozen, install

OPTIONS = StoreOptions(
    memtable_bytes=16 * 1024,
    block_cache_bytes=0,  # no cache: reads must touch the damaged disk
    levels=3,
    size_ratio=4,
)


def _flip_data_byte(directory, filename, offset=16):
    """Corrupt one byte of a run: by default inside its data region."""
    path = os.path.join(directory, filename)
    blob = bytearray(open(path, "rb").read())
    blob[offset] ^= 0xFF
    with open(path, "wb") as handle:
        handle.write(bytes(blob))


def _build(directory, keys):
    store = LSMStore.open(directory, OPTIONS)
    for key in keys:
        store.put(key, b"value-" + key)
    store.flush()
    return store


class TestReadPathQuarantine:
    def test_detects_quarantines_and_fails_fast(self, tmp_path):
        directory = str(tmp_path / "db")
        keys = [f"k{i:04d}".encode() for i in range(200)]
        with _build(directory, keys) as store:
            [record] = store.live_runs()
            _flip_data_byte(directory, record.files[0])
            with pytest.raises(DataCorruptError) as excinfo:
                store.get(keys[0])
            entries = store.quarantined_entries()
            assert len(entries) == 1
            assert entries[0].source == "read"
            assert excinfo.value.run_id == entries[0].run_id
            assert excinfo.value.min_key == keys[0]
            assert excinfo.value.max_key == keys[-1]
            assert store.stats().quarantined_runs == 1
            # Repeated reads keep failing fast (no crash, no wrong answer).
            with pytest.raises(DataCorruptError):
                store.get(keys[100])

    def test_keys_outside_bounds_keep_serving(self, tmp_path):
        directory = str(tmp_path / "db")
        keys = [f"m{i:04d}".encode() for i in range(100)]
        with _build(directory, keys) as store:
            [record] = store.live_runs()
            _flip_data_byte(directory, record.files[0])
            with pytest.raises(DataCorruptError):
                store.get(keys[0])
            # Fresh writes land in the memtable, outside the poisoned run.
            store.put(b"aaaa", b"fresh")
            store.put(b"zzzz", b"fresh")
            assert store.get(b"aaaa") == b"fresh"
            assert store.get(b"zzzz") == b"fresh"
            # Keys inside the quarantined bounds stay fenced — the
            # containment contract is bounds-based and conservative.
            with pytest.raises(DataCorruptError):
                store.get(keys[50])

    def test_scan_intersecting_range_fails_fast(self, tmp_path):
        directory = str(tmp_path / "db")
        keys = [f"m{i:04d}".encode() for i in range(100)]
        with _build(directory, keys) as store:
            [record] = store.live_runs()
            _flip_data_byte(directory, record.files[0])
            with pytest.raises(DataCorruptError):
                list(store.scan(keys[0], keys[-1]))
            store.put(b"zz-0", b"x")
            store.put(b"zz-1", b"y")
            # Disjoint range above the quarantined bounds still scans.
            assert [k for k, _ in store.scan(b"zz", None)] == [b"zz-0", b"zz-1"]

    def test_quarantine_survives_reopen(self, tmp_path):
        directory = str(tmp_path / "db")
        keys = [f"k{i:04d}".encode() for i in range(100)]
        with _build(directory, keys) as store:
            [record] = store.live_runs()
            _flip_data_byte(directory, record.files[0])
            with pytest.raises(DataCorruptError):
                store.get(keys[0])
            run_id = store.quarantined_entries()[0].run_id
        with LSMStore.open(directory, OPTIONS) as store:
            entries = store.quarantined_entries()
            assert [entry.run_id for entry in entries] == [run_id]
            with pytest.raises(DataCorruptError):
                store.get(keys[0])


class TestScrubDetection:
    def test_scrub_pass_finds_at_rest_damage(self, tmp_path):
        directory = str(tmp_path / "db")
        keys = [f"k{i:04d}".encode() for i in range(200)]
        with _build(directory, keys) as store:
            [record] = store.live_runs()
            _flip_data_byte(directory, record.files[0])
            summary = store.scrub_pass()
            assert summary["passes_completed"] >= 1
            entries = store.quarantined_entries()
            assert len(entries) == 1
            assert entries[0].source == "scrub"

    def test_scrub_pass_clean_store_finds_nothing(self, tmp_path):
        directory = str(tmp_path / "db")
        keys = [f"k{i:04d}".encode() for i in range(200)]
        with _build(directory, keys) as store:
            summary = store.scrub_pass()
            assert summary["passes_completed"] >= 1
            assert summary["bytes_verified"] > 0
            assert store.quarantined_entries() == []

    def test_scrub_tick_idle_without_interval(self, tmp_path):
        directory = str(tmp_path / "db")
        with _build(directory, [b"a", b"b"]) as store:
            # scrub_interval=0 disables scheduling: nothing is claimable.
            assert store.scrub_tick() is False


class TestRepair:
    def test_repair_from_replica_view_restores_service(self, tmp_path):
        directory = str(tmp_path / "db")
        keys = [f"k{i:04d}".encode() for i in range(100)]
        with _build(directory, keys) as store:
            [record] = store.live_runs()
            _flip_data_byte(directory, record.files[0])
            with pytest.raises(DataCorruptError):
                store.get(keys[0])
            run_id = store.quarantined_entries()[0].run_id
            replica_view = [(key, b"value-" + key) for key in keys]
            assert store.repair_run(run_id, replica_view)
            assert store.quarantined_entries() == []
            assert store.stats().quarantined_runs == 0
            for key in keys:
                assert store.get(key) == b"value-" + key
            kinds = [event.kind for event in store.obs.tracer.events(-1, None)]
            assert "run_repaired" in kinds

    def test_repair_pins_tombstones_against_resurrection(self, tmp_path):
        directory = str(tmp_path / "db")
        with LSMStore.open(directory, OPTIONS) as store:
            store.put(b"key", b"old")
            store.flush()
            store.put(b"key", b"new")
            store.flush()
            runs = store.live_runs()
            newest = max(runs, key=lambda r: r.sequence)
            assert store.quarantine_run(newest.run_id, "test", source="read")
            # The replica says "key" no longer exists in these bounds; a
            # naive swap would resurrect b"old" from the run underneath.
            assert store.repair_run(newest.run_id, [])
            assert store.get(b"key") is None

    def test_repair_unknown_run_is_refused(self, tmp_path):
        directory = str(tmp_path / "db")
        with _build(directory, [b"a", b"b"]) as store:
            assert store.repair_run(999, [(b"a", b"1")]) is False


class TestApplyReset:
    def test_reset_drops_quarantined_runs(self, tmp_path):
        directory = str(tmp_path / "db")
        keys = [f"k{i:04d}".encode() for i in range(50)]
        with _build(directory, keys) as store:
            [record] = store.live_runs()
            _flip_data_byte(directory, record.files[0])
            with pytest.raises(DataCorruptError):
                store.get(keys[0])
            snapshot = [(b"only", b"survivor")]
            with frozen(tmp_path / "leader", snapshot) as image:
                install(store, image)
            assert store.quarantined_entries() == []
            assert store.stats().quarantined_runs == 0
            assert list(store.scan()) == snapshot
            assert store.get(keys[0]) is None
            assert not os.path.exists(os.path.join(directory, record.files[0]))
        with LSMStore.open(directory, OPTIONS) as store:
            assert store.quarantined_entries() == []
            assert list(store.scan()) == snapshot

    def test_reset_tombstones_extra_local_keys(self, tmp_path):
        # No key of the old state survives the image: not one in a run,
        # not one buffered in a memtable (nor, after a reopen, its log).
        directory = str(tmp_path / "db")
        with _build(directory, [b"a", b"b", b"c"]) as store:
            store.put(b"d", b"buffered")
            with frozen(tmp_path / "leader", [(b"b", b"kept")]) as image:
                install(store, image)
            assert list(store.scan()) == [(b"b", b"kept")]
        with LSMStore.open(directory, OPTIONS) as store:
            assert list(store.scan()) == [(b"b", b"kept")]


def current_derived(manager):
    """What a ``CompactionManager`` derives from its run set, as cached —
    after checking that a second read builds nothing (equal values; the
    very same snapshot and plan) and that all of it equals what a forced
    ``_run_set_changed()`` rebuilds from scratch."""

    def read():
        return {
            "snapshot": [c.uid for c in manager.snapshot().components],
            "levels": manager.levels(),
            "component_count": manager.component_count,
            "write_stalled": manager.is_write_stalled(),
            "write_headroom": manager.write_headroom(),
            "scrub_targets": manager.scrub_targets(),
            "read_plan": manager.read_plan(),
        }

    cached = read()
    snapshot, plan = manager.snapshot(), manager.read_plan()
    assert read() == cached
    assert manager.snapshot() is snapshot
    assert manager.read_plan() is plan
    assert cached["component_count"] == len(cached["snapshot"]) == len(plan)
    manager._run_set_changed()
    assert read() == cached
    return cached


class TestReadPlanCache:
    """Everything ``CompactionManager`` derives from the run set is
    built once per change of it; quarantine, repair and drop each have
    to invalidate it."""

    @staticmethod
    def _current_plan(store):
        """The cached plan, after checking it (and every other derived
        value) against one built anew."""
        return current_derived(store._compaction)["read_plan"]

    def test_plan_follows_quarantine_repair_drop_and_reopen(self, tmp_path):
        directory = str(tmp_path / "db")
        with LSMStore.open(directory, OPTIONS) as store:
            store.put(b"key", b"old")
            store.flush()
            store.put(b"key", b"new")
            store.flush()
            older, newer = sorted(
                store.live_runs(), key=lambda record: record.sequence
            )
            plan = self._current_plan(store)
            assert [run_id for run_id, _ in plan] == [
                newer.run_id, older.run_id
            ]

            assert store.quarantine_run(newer.run_id, "test")
            plan = self._current_plan(store)
            assert isinstance(plan[0][1], QuarantineEntry)
            assert not isinstance(plan[1][1], QuarantineEntry)

            assert store.repair_run(newer.run_id, [(b"key", b"repaired")])
            plan = self._current_plan(store)
            assert [run_id for run_id, _ in plan][1] == older.run_id
            assert plan[0][0] != newer.run_id
            assert not isinstance(plan[0][1], QuarantineEntry)
            assert store.get(b"key") == b"repaired"

            assert store.quarantine_run(older.run_id, "test")
            assert isinstance(
                self._current_plan(store)[1][1], QuarantineEntry
            )
            with frozen(tmp_path / "leader", [(b"key", b"reset")]) as image:
                install(store, image)  # drops the fenced run
            assert older.run_id not in [
                run_id for run_id, _ in self._current_plan(store)
            ]
            assert store.get(b"key") == b"reset"
        with LSMStore.open(directory, OPTIONS) as store:
            assert self._current_plan(store)
            assert store.get(b"key") == b"reset"


class TestScrubPacing:
    def test_scrub_bytes_debit_the_shared_maintenance_budget(
        self, tmp_path
    ):
        # The pacing contract: every byte the scrubber reads is admitted
        # through the same limiter that paces flush/merge I/O, so
        # verification competes with — never adds to — the background
        # budget. A generous rate keeps the test instant.
        options = OPTIONS.with_(rate_limit_bytes_per_s=1 << 30)
        directory = str(tmp_path / "db")
        with LSMStore.open(directory, options) as store:
            for i in range(300):
                store.put(f"k{i:04d}".encode(), b"v" * 64)
            store.flush()
            before = store.rate_limiter.total_admitted_bytes
            summary = store.scrub_pass()
            delta = store.rate_limiter.total_admitted_bytes - before
            assert summary["bytes_verified"] > 0
            assert delta >= summary["bytes_verified"]

    def test_background_workers_run_the_scrubber(self, tmp_path):
        import time

        directory = str(tmp_path / "db")
        options = OPTIONS.with_(
            background_maintenance=True,
            scrub_interval=0.05,
        )
        keys = [f"k{i:04d}".encode() for i in range(200)]
        with LSMStore.open(directory, options) as store:
            for key in keys:
                store.put(key, b"value-" + key)
            store.flush()
            [record] = store.live_runs()
            _flip_data_byte(directory, record.files[0])
            deadline = time.monotonic() + 5.0
            while not store.quarantined_entries():
                assert time.monotonic() < deadline, (
                    "background scrub never found the damage"
                )
                time.sleep(0.02)
            assert store.quarantined_entries()[0].source == "scrub"


class TestMergeInteraction:
    def test_merge_skips_quarantined_inputs(self, tmp_path):
        directory = str(tmp_path / "db")
        options = OPTIONS.with_(memtable_bytes=4096)
        with LSMStore.open(directory, options) as store:
            for batch in range(6):
                for i in range(60):
                    store.put(f"k{i:04d}".encode(), bytes([batch]) * 64)
                store.flush()
            victim = store.live_runs()[0]
            assert store.quarantine_run(victim.run_id, "test")
            # Maintenance must neither crash on nor merge the poisoned
            # run; it stays live and stays quarantined.
            store.maintenance()
            live = {record.run_id for record in store.live_runs()}
            assert victim.run_id in live
            assert [e.run_id for e in store.quarantined_entries()] == [
                victim.run_id
            ]

    def test_a_merge_input_whose_index_rots_after_open_completes(
        self, tmp_path
    ):
        """A claim parses nothing: the merge walks the index the store
        verified when it opened the run, so damage to the index block on
        disk since then neither fails the claim nor loses a key."""
        directory = str(tmp_path / "db")
        options = OPTIONS.with_(policy="tiering", size_ratio=3)
        model = {}
        with LSMStore.open(directory, options) as store:
            for batch in range(3):
                if batch == 2:  # the next flush schedules the merge
                    victim = store.live_runs()[0]
                    blob = (tmp_path / "db" / victim.files[0]).read_bytes()
                    index_offset = _FOOTER.unpack_from(
                        blob, len(blob) - _FOOTER.size
                    )[0]
                    _flip_data_byte(directory, victim.files[0], index_offset)
                for i in range(40):
                    key = f"k{batch}{i:04d}".encode()
                    model[key] = bytes([65 + batch]) * 64
                    store.put(key, model[key])
                store.flush()
            store.maintenance()
            assert store.stats().merges_completed == 1
            assert victim.run_id not in {r.run_id for r in store.live_runs()}
            assert store.quarantined_entries() == []
            for key, value in model.items():
                assert store.get(key) == value
        with LSMStore.open(directory, options) as store:
            assert dict(store.scan()) == model

    @pytest.mark.parametrize("background", [False, True])
    def test_a_merge_that_meets_a_corrupt_block_is_contained(
        self, tmp_path, background
    ):
        """The corrupt block is first read by a merge chunk: the input
        is quarantined (source ``merge``), the job let go, the write
        that pumped the chunk succeeds, and a repair can claim the run.
        The inputs overlap: a merge of key-disjoint ones links their
        files and reads no block."""
        import time

        directory = str(tmp_path / "db")
        # Each batch is one flush of 600 keys.
        options = OPTIONS.with_(
            memtable_bytes=48 * 1024,
            policy="tiering",
            size_ratio=3,
            background_maintenance=background,
        )
        model = {}

        def failures(store):
            return sum(
                counter["value"]
                for counter in store.obs.registry.snapshot()["counters"]
                if counter["name"] == "engine_maintenance_failures_total"
            )

        def merge_quarantines(store):
            return [
                event.fields["run_id"]
                for event in store.obs.tracer.events(-1, None)
                if event.kind == "corruption_quarantine"
                and event.fields["source"] == "merge"
            ]

        with LSMStore.open(directory, options) as store:
            compaction = store._compaction
            # Hold merges back until the damage is in place: flushes
            # publish, the merge is scheduled, nobody may claim it.
            compaction.claim_merge = lambda: None
            for batch in range(3):
                if batch == 1:
                    # The merge's third input overlaps its first.
                    model[b"k00005"] = b"overlap"
                    store.put(b"k00005", model[b"k00005"])
                for i in range(600):
                    key = f"k{batch}{i:04d}".encode()
                    model[key] = bytes([65 + batch]) * 8
                    store.put(key, model[key])
                store.flush()
            [job] = compaction._jobs.values()
            assert job.links is None
            victim = job.descriptor.inputs[1].uid
            [record] = [r for r in store.live_runs() if r.run_id == victim]
            _flip_data_byte(directory, record.files[0])
            failed_before = failures(store)
            del compaction.claim_merge  # the next claim consumes the run

            deadline = time.monotonic() + 10.0
            index = 0
            while not merge_quarantines(store):
                assert time.monotonic() < deadline and index < 2000, (
                    "no merge ever met the damaged block"
                )
                key = f"late{index:05d}".encode()
                model[key] = b"L" * 8
                store.put(key, model[key])  # must return, pumping or not
                index += 1
                if background:
                    time.sleep(0.005)
            assert merge_quarantines(store) == [victim]
            [entry] = store.quarantined_entries()
            assert (entry.run_id, entry.source) == (victim, "merge")
            assert failures(store) == failed_before + 1
            # No job is left claimed over the run: a repair may begin.
            with store._lock:
                claim = compaction.begin_repair(victim)
            assert claim is not None
            claim[1].abandon()

            healthy = sorted(
                (key, value)
                for key, value in model.items()
                if entry.covers(key)
            )
            assert store.repair_run(victim, healthy)
            assert store.quarantined_entries() == []
            for key, value in model.items():
                assert store.get(key) == value
        with LSMStore.open(directory, options) as store:
            assert dict(store.scan()) == model
