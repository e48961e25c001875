"""Crash-recovery acceptance tests (the robustness tentpole's bar).

The headline test runs the full 500-operation harness — byte-granular
WAL truncation sweep plus every injected-fault scenario — and demands
zero failures. The smaller tests pin individual adversaries so a
regression names the broken layer instead of just "the harness failed".
"""

import os

import pytest

from repro.engine import LSMStore, StoreOptions, verify_store
from repro.errors import FaultInjectedError
from repro.faults import (
    FaultPlan,
    FaultRule,
    apply_ops,
    build_workload,
    crashsim,
    fault_scenarios,
    run_crash_harness,
    wal_prefix_sweep,
)

SEED = 2024


class TestWorkloadModel:
    def test_workload_is_seeded(self):
        assert build_workload(50, seed=3) == build_workload(50, seed=3)
        assert build_workload(50, seed=3) != build_workload(50, seed=4)

    def test_workload_mixes_deletes(self):
        ops = build_workload(400, seed=1)
        deletes = sum(1 for _, value in ops if value is None)
        assert 0 < deletes < 400

    def test_apply_ops_is_last_writer_wins(self):
        state = apply_ops(
            [(b"k", b"old"), (b"k", b"new"), (b"g", b"x"), (b"g", None)]
        )
        assert state == {b"k": b"new"}


class TestWalPrefixSweep:
    def test_byte_granular_tail_sweep_recovers_every_cut(self, tmp_path):
        """Every torn-tail byte count must recover to a clean prefix."""
        report = wal_prefix_sweep(str(tmp_path), num_ops=40, seed=SEED)
        assert report.failures == []
        # 41 boundaries plus one crash point per byte of the last frame
        # (an 8-byte header + key + value makes that > 20).
        assert report.crash_points > 60

    def test_boundary_stride_subsamples(self, tmp_path, monkeypatch):
        full = wal_prefix_sweep(
            str(tmp_path / "full"), num_ops=24, seed=SEED
        )
        monkeypatch.setattr(crashsim, "BOUNDARY_STRIDE", 8)
        strided = wal_prefix_sweep(
            str(tmp_path / "strided"), num_ops=24, seed=SEED
        )
        assert strided.failures == []
        assert strided.crash_points < full.crash_points


class TestFaultScenarios:
    def test_every_scenario_fires_and_recovers(self, tmp_path):
        report = fault_scenarios(str(tmp_path), seed=SEED)
        assert report.failures == []
        fired_names = {entry.split(":")[0] for entry in report.fired}
        assert fired_names == {
            "wal-write-fail",
            "wal-torn-append",
            "wal-fsync-fail",
            "sstable-mid-flush",
            "manifest-torn-add",
            "manifest-torn-link",
        }


class TestRunSetEditCrash:
    """A merge's edit is one manifest line: a crash before it is whole
    leaves the inputs live, one after it leaves only the output, and no
    file is ever named by two live runs or deleted while one does."""

    SHAPE = dict(
        memtable_bytes=1 << 20,
        policy="tiering",
        size_ratio=3,
        levels=3,
        block_cache_bytes=0,
    )

    def load(self, store, merge):
        """Three flushes and their merge's model. ``rewrite``: they
        overlap and the middle one's tombstones are dropped, a k-way
        merge; ``link``: ascending keys, key-disjoint flushes of enough
        keys that their filters may be kept."""
        model = {}
        for generation in range(3):
            if merge == "link":
                keys = range(600 * generation, 600 * generation + 600)
            else:
                keys = range(generation, 40, generation + 1)
            for i in keys:
                key = b"key-%04d" % i
                if merge == "rewrite" and generation == 1:
                    store.delete(key)
                    model.pop(key, None)
                else:
                    store.put(key, b"%d-%03d" % (generation, i))
                    model[key] = b"%d-%03d" % (generation, i)
            store.flush()
        return model

    @staticmethod
    def run_files(directory):
        return {name for name in os.listdir(directory) if name.endswith(".run")}

    @staticmethod
    def owners_are_unique(records):
        names = [name for record in records for name in record.files]
        return len(names) == len(set(names))

    @pytest.mark.parametrize("merge", ["rewrite", "link"])
    @pytest.mark.parametrize("kind", ["fail", "torn"])
    def test_a_failed_or_torn_edit_recovers_the_inputs(
        self, tmp_path, kind, merge
    ):
        # The three flushes are manifest writes 0-2; the merge's edit 3.
        rule = FaultRule("manifest.write", 3, kind, keep_bytes=25)
        plan = FaultPlan([rule])
        directory = str(tmp_path / "db")
        store = LSMStore.open(
            directory, StoreOptions(fault_plan=plan, **self.SHAPE)
        )
        try:
            model = self.load(store, merge)
            inputs = store.live_runs()
            assert [len(record.files) for record in inputs] == [1, 1, 1]
            [job] = store._compaction._jobs.values()
            assert (job.links is not None) == (merge == "link")
            with pytest.raises(FaultInjectedError):
                store.maintenance()
        finally:
            store.crash()
        assert plan.fired == [f"manifest.write[3]:{kind}"]
        # Nothing was deleted: the edit never got past the manifest.
        named = {name for record in inputs for name in record.files}
        assert named <= self.run_files(directory)

        with LSMStore.open(directory, StoreOptions(**self.SHAPE)) as recovered:
            assert recovered.live_runs() == inputs
            assert self.run_files(directory) == named  # orphans swept
            assert dict(recovered.scan()) == model
            recovered.maintenance()
            assert dict(recovered.scan()) == model
            assert self.owners_are_unique(recovered.live_runs())
        assert verify_store(directory).clean

    @pytest.mark.parametrize("merge", ["rewrite", "link"])
    def test_a_written_edit_recovers_only_the_output(self, tmp_path, merge):
        """The crash comes after the edit's line and before any input
        file is deleted: the files the output does not name are
        orphans, swept at open."""
        directory = str(tmp_path / "db")
        store = LSMStore.open(directory, StoreOptions(**self.SHAPE))
        try:
            model = self.load(store, merge)
            inputs = store.live_runs()
            saved = {}
            for name in (n for record in inputs for n in record.files):
                with open(os.path.join(directory, name), "rb") as run_file:
                    saved[name] = run_file.read()
            store.maintenance()
            [output] = store.live_runs()
        finally:
            store.crash()
        for name, blob in saved.items():  # undo the deletions
            with open(os.path.join(directory, name), "wb") as restored:
                restored.write(blob)
        if merge == "link":
            assert set(output.files) == set(saved)
        else:
            assert not set(output.files) & set(saved)

        with LSMStore.open(directory, StoreOptions(**self.SHAPE)) as recovered:
            assert recovered.live_runs() == [output]
            assert self.run_files(directory) == set(output.files)
            assert dict(recovered.scan()) == model
        assert verify_store(directory).clean


class TestManifestCorruption:
    """Recovery must shrug off garbage appended to the manifest log."""

    def seeded_store(self, path):
        ops = build_workload(80, seed=SEED, keyspace=4096, value_bytes=64)
        options = StoreOptions(
            memtable_bytes=4096, block_cache_bytes=0, sync_writes=True
        )
        with LSMStore.open(path, options) as store:
            for key, value in ops:
                if value is None:
                    store.delete(key)
                else:
                    store.put(key, value)
        return apply_ops(ops)

    @pytest.mark.parametrize(
        "garbage",
        [b"\x00\xff\x17 not json\n", b'{"type": "add-run", "id":'],
        ids=["binary-noise", "torn-record"],
    )
    def test_garbage_manifest_tail_is_ignored(self, tmp_path, garbage):
        expected = self.seeded_store(str(tmp_path))
        manifest = os.path.join(str(tmp_path), "MANIFEST")
        before = os.path.getsize(manifest)
        assert before > 0
        with open(manifest, "ab") as handle:
            handle.write(garbage)
        with LSMStore.open(str(tmp_path)) as store:
            assert dict(store.scan()) == expected
        assert verify_store(str(tmp_path)).clean


class TestFullHarness:
    def test_500_op_seeded_harness_passes(self, tmp_path):
        """The acceptance bar: 500 ops, every crash point, no failures."""
        report = run_crash_harness(str(tmp_path), num_ops=500, seed=7)
        assert report.ok, report.summary()
        assert report.crash_points >= 500
        assert len(report.fired) >= 5
