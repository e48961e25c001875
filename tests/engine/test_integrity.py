"""Tests for offline store integrity verification."""

import json
import os

from repro.engine import LSMStore, StoreOptions, verify_store
from repro.engine.manifest import Manifest
from repro.engine.sstable import SSTableWriter

OPTIONS = StoreOptions(memtable_bytes=16 * 1024, levels=3, size_ratio=3)


def build_store(path, writes=3000):
    with LSMStore.open(str(path), OPTIONS) as store:
        for i in range(writes):
            store.put(f"user{i % 500:06d}".encode(), b"v" * 64)
        store.maintenance()


class TestVerifyStore:
    def test_clean_store(self, tmp_path):
        build_store(tmp_path / "db")
        report = verify_store(str(tmp_path / "db"))
        assert report.clean
        assert report.runs_checked >= 1
        assert report.entries_checked >= 500
        assert "CLEAN" in report.summary()

    def test_detects_flipped_bytes(self, tmp_path):
        build_store(tmp_path / "db")
        import os

        runs = [f for f in os.listdir(tmp_path / "db") if f.endswith(".run")]
        victim = tmp_path / "db" / runs[0]
        blob = bytearray(victim.read_bytes())
        blob[20] ^= 0xFF
        victim.write_bytes(bytes(blob))
        report = verify_store(str(tmp_path / "db"))
        assert not report.clean
        assert any("checksum" in p or "magic" in p for p in report.problems)

    def test_detects_missing_run(self, tmp_path):
        build_store(tmp_path / "db")
        import os

        runs = [f for f in os.listdir(tmp_path / "db") if f.endswith(".run")]
        os.remove(tmp_path / "db" / runs[0])
        report = verify_store(str(tmp_path / "db"))
        assert not report.clean
        assert any("missing" in p for p in report.problems)

    def test_reports_orphans_without_failing(self, tmp_path):
        build_store(tmp_path / "db")
        (tmp_path / "db" / "99999999.run").write_bytes(b"junk")
        report = verify_store(str(tmp_path / "db"))
        assert report.clean  # orphans are informational
        assert report.orphan_files == ["99999999.run"]

    def test_reports_quarantined_runs(self, tmp_path):
        directory = str(tmp_path / "db")
        with LSMStore.open(directory, OPTIONS) as store:
            for i in range(100):
                store.put(f"k{i:04d}".encode(), b"v" * 32)
            store.flush()
            [record] = store.live_runs()
            assert store.quarantine_run(record.run_id, "test")
        report = verify_store(directory)
        assert report.quarantined_runs == [record.run_id]
        assert "quarantined" in report.summary()

    def test_a_file_named_by_two_live_runs_is_a_problem(self, tmp_path):
        """Hand-written: two runs that share a file. Removing either
        would delete data the other still needs."""
        directory = tmp_path / "db"
        directory.mkdir()
        writer = SSTableWriter(str(directory / "00000001.run"))
        writer.add_many((b"k%03d" % i, b"v") for i in range(10))
        writer.finish()
        runs = [
            {"run_id": run_id, "level": 0, "files": ["00000001.run"],
             "sequence": run_id}
            for run_id in (2, 3)
        ]
        (directory / "MANIFEST").write_text(
            json.dumps({"op": "edit", "add": runs, "remove": []}) + "\n"
        )
        report = verify_store(str(directory))
        assert not report.clean
        assert report.problems == [
            "00000001.run: named by live runs 2 and 3"
        ]

    def test_a_multi_file_run_is_checked_file_by_file(self, tmp_path):
        directory = str(tmp_path / "db")
        os.mkdir(directory)
        manifest = Manifest(directory)

        def write(start):
            name = f"{start:08d}.run"
            writer = SSTableWriter(os.path.join(directory, name))
            writer.add_many((b"k%03d" % i, b"v") for i in range(start, start + 10))
            writer.finish()
            return name

        manifest.add_run(manifest.allocate_run_id(), 1, (write(0), write(100)))
        manifest.add_run(manifest.allocate_run_id(), 1, (write(200),))
        report = verify_store(directory)
        assert report.runs_checked == 2 and report.entries_checked == 30
        assert report.orphan_files == [] and report.clean
        # Between the first run's files, yet inside its bounds: runs at
        # one level may overlap, only a run's own files may not.
        manifest.add_run(manifest.allocate_run_id(), 1, (write(50),))
        manifest.add_run(manifest.allocate_run_id(), 0, (write(310), write(300)))
        manifest.close()
        os.remove(os.path.join(directory, "00000200.run"))
        report = verify_store(directory)
        assert sorted(report.problems) == sorted([
            "00000200.run: referenced by manifest but missing",
            "00000300.run: starts at or below the end of 00000310.run, "
            "the file before it in its run",
        ])


def _register_run(directory, manifest, level, keys):
    """Write a real run file and register it at ``level``."""
    run_id = manifest.allocate_run_id()
    filename = f"{run_id:08d}.run"
    writer = SSTableWriter(os.path.join(directory, filename))
    for key in keys:
        writer.add(key, b"v")
    writer.finish()
    manifest.add_run(run_id, level, (filename,))
    return filename


class TestPartitionedLevels:
    def _store_with_levels(self, tmp_path, spans_by_level):
        directory = str(tmp_path / "db")
        os.makedirs(directory)
        manifest = Manifest(directory)
        try:
            for level, spans in spans_by_level.items():
                for keys in spans:
                    _register_run(directory, manifest, level, keys)
        finally:
            manifest.close()
        return directory

    def test_overlap_ignored_without_policy(self, tmp_path):
        # Tiering stacks overlapping runs per level, and leveling holds
        # C1 and C1' at level 1 while the old run merges down: reads
        # probe every run by sequence, so overlap is no problem.
        directory = self._store_with_levels(
            tmp_path,
            {1: [[b"a", b"m"], [b"g", b"z"]]},
        )
        assert verify_store(directory).clean


class TestWalSurface:
    def test_clean_wal_state(self, tmp_path):
        directory = str(tmp_path / "db")
        with LSMStore.open(directory, OPTIONS) as store:
            store.put(b"a", b"1")
        report = verify_store(directory)
        assert report.wal_state == "clean"
        assert report.clean

    def test_torn_tail_is_not_a_problem(self, tmp_path):
        directory = str(tmp_path / "db")
        store = LSMStore.open(directory, OPTIONS)
        store.put(b"a", b"1")
        store.put(b"b", b"2")
        store.crash()  # clean close would checkpoint the WAL away
        wal = tmp_path / "db" / "wal.log"
        wal.write_bytes(wal.read_bytes()[:-3])
        report = verify_store(directory)
        assert report.wal_state == "torn"
        assert report.clean  # normal crash residue

    def test_interior_corruption_is_a_problem(self, tmp_path):
        directory = str(tmp_path / "db")
        store = LSMStore.open(directory, OPTIONS)
        store.put(b"a", b"1" * 100)
        store.put(b"b", b"2" * 100)
        store.crash()
        wal = tmp_path / "db" / "wal.log"
        blob = bytearray(wal.read_bytes())
        blob[12] ^= 0xFF  # inside the first frame's payload
        wal.write_bytes(bytes(blob))
        report = verify_store(directory)
        assert report.wal_state == "corrupt"
        assert not report.clean
        assert any("wal.log" in problem for problem in report.problems)
