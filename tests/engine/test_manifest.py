"""Tests for the crash-safe manifest."""

import json
import os

import pytest

from repro.engine import LSMStore, Manifest, StoreOptions
from repro.engine import manifest as manifest_module
from repro.errors import CorruptionError


class TestBasicBookkeeping:
    def test_add_and_list(self, tmp_path):
        manifest = Manifest(str(tmp_path))
        run_id = manifest.allocate_run_id()
        manifest.add_run(run_id, 0, ("00000001.run",))
        runs = manifest.live_runs()
        assert len(runs) == 1
        assert runs[0].level == 0
        manifest.close()

    def test_sequence_orders_by_age(self, tmp_path):
        manifest = Manifest(str(tmp_path))
        ids = [manifest.allocate_run_id() for _ in range(3)]
        for run_id in ids:
            manifest.add_run(run_id, 0, (f"{run_id:08d}.run",))
        runs = manifest.live_runs()
        assert [r.run_id for r in runs] == ids  # oldest first
        assert runs[0].sequence < runs[-1].sequence
        manifest.close()

    def test_replace_runs(self, tmp_path):
        manifest = Manifest(str(tmp_path))
        ids = [manifest.allocate_run_id() for _ in range(3)]
        for run_id in ids:
            manifest.add_run(run_id, 0, (f"{run_id:08d}.run",))
        output = manifest.allocate_run_id()
        manifest.replace_runs(ids[:2], [(output, 1, (f"{output:08d}.run",))])
        runs = manifest.live_runs()
        assert {r.run_id for r in runs} == {ids[2], output}
        assert [r for r in runs if r.run_id == output][0].level == 1
        manifest.close()


class TestRecovery:
    def test_reopen_restores_state(self, tmp_path):
        manifest = Manifest(str(tmp_path))
        a = manifest.allocate_run_id()
        manifest.add_run(a, 0, ("a.run",))
        b = manifest.allocate_run_id()
        manifest.add_run(b, 1, ("b.run",))
        manifest.close()

        recovered = Manifest(str(tmp_path))
        runs = recovered.live_runs()
        assert {(r.run_id, r.level) for r in runs} == {(a, 0), (b, 1)}
        # id allocation continues past recovered ids
        assert recovered.allocate_run_id() > b
        recovered.close()

    def test_removals_survive_reopen(self, tmp_path):
        manifest = Manifest(str(tmp_path))
        a = manifest.allocate_run_id()
        manifest.add_run(a, 0, ("a.run",))
        manifest.replace_runs([a], [])
        manifest.close()
        recovered = Manifest(str(tmp_path))
        assert recovered.live_runs() == []
        recovered.close()

    def test_torn_tail_line_tolerated(self, tmp_path):
        manifest = Manifest(str(tmp_path))
        a = manifest.allocate_run_id()
        manifest.add_run(a, 0, ("a.run",))
        manifest.close()
        with open(tmp_path / "MANIFEST", "a", encoding="utf-8") as damaged:
            damaged.write('{"op": "add", "run_id": 99, "lev')  # torn line
        recovered = Manifest(str(tmp_path))
        assert [r.run_id for r in recovered.live_runs()] == [a]
        recovered.close()

    def test_compact_rewrites_minimal_snapshot(self, tmp_path):
        manifest = Manifest(str(tmp_path))
        ids = [manifest.allocate_run_id() for _ in range(10)]
        for run_id in ids:
            manifest.add_run(run_id, 0, (f"{run_id}.run",))
        manifest.replace_runs(ids[:9], [])
        manifest.compact()
        manifest.close()
        lines = (tmp_path / "MANIFEST").read_text().strip().splitlines()
        assert len(lines) == 1
        recovered = Manifest(str(tmp_path))
        assert [r.run_id for r in recovered.live_runs()] == [ids[9]]
        recovered.close()

    def test_an_edit_is_one_line_and_a_failed_one_changes_nothing(
        self, tmp_path, monkeypatch
    ):
        manifest = Manifest(str(tmp_path))
        ids = [manifest.allocate_run_id() for _ in range(3)]
        for run_id in ids:
            manifest.add_run(run_id, 0, (f"{run_id}.run",))
        output = manifest.allocate_run_id()
        files = tuple(f"{run_id}.run" for run_id in ids)
        monkeypatch.setattr(
            manifest, "_append", lambda edit: (_ for _ in ()).throw(OSError)
        )
        with pytest.raises(OSError):
            manifest.replace_runs(ids, [(output, 1, files)], sequence=3)
        assert [r.run_id for r in manifest.live_runs()] == ids
        monkeypatch.undo()
        manifest.replace_runs(ids, [(output, 1, files)], sequence=3)
        manifest.close()
        lines = (tmp_path / "MANIFEST").read_text().splitlines()
        assert len(lines) == 4
        assert json.loads(lines[-1]) == {
            "op": "edit",
            "add": [
                {"run_id": output, "level": 1, "files": list(files),
                 "sequence": 3}
            ],
            "remove": ids,
        }
        reopened = Manifest(str(tmp_path))
        [record] = reopened.live_runs()
        reopened.close()
        assert (record.run_id, record.files) == (output, files)

    @pytest.mark.parametrize("kind", ["move", "rename"])
    def test_an_edit_nobody_writes_is_corruption(self, tmp_path, kind):
        """``move`` had a reader and never a writer; it now fails like
        any other line the manifest does not know."""
        manifest = Manifest(str(tmp_path))
        manifest.add_run(manifest.allocate_run_id(), 0, ("a.run",))
        manifest.close()
        with open(tmp_path / "MANIFEST", "a", encoding="utf-8") as log:
            log.write(json.dumps({"op": kind, "run_id": 1, "level": 2}) + "\n")
        with pytest.raises(CorruptionError, match=f"unknown edit '{kind}'"):
            Manifest(str(tmp_path))


class TestSnapshots:
    def test_add_compact_and_checkpoint_write_the_same_record(self, tmp_path):
        """One spelling of a run record: what an edit appends,
        ``compact()`` rewrites and a store checkpoint copies — a
        snapshot is one edit that adds every live run."""
        options = StoreOptions(policy="tiering", size_ratio=3)
        with LSMStore.open(str(tmp_path / "db"), options) as store:
            for index in range(200):  # two runs: no merge is due
                store.put(b"key-%04d" % index, b"v" * 64)
                if index % 100 == 99:
                    store.flush()
            appended = (tmp_path / "db" / "MANIFEST").read_text().splitlines()
            live = {record.run_id for record in store.live_runs()}
            assert store.checkpoint(str(tmp_path / "copy")) == len(live)
        copied = (tmp_path / "copy" / "MANIFEST").read_text().splitlines()
        compacted = (tmp_path / "db" / "MANIFEST").read_text().splitlines()
        assert copied == compacted[:-1]  # close() adds the position line
        assert json.loads(compacted[-1])["op"] == "position"
        [snapshot] = [json.loads(line) for line in copied]
        assert (snapshot["op"], snapshot["remove"]) == ("edit", [])
        assert snapshot["add"] == [
            record
            for line in appended
            for record in json.loads(line)["add"]
            if record["run_id"] in live
        ]
        with LSMStore.open(str(tmp_path / "copy"), options) as copy:
            assert len(list(copy.scan())) == 200

    def test_a_snapshot_is_renamed_into_place_and_its_directory_synced(
        self, tmp_path, monkeypatch
    ):
        synced = []
        monkeypatch.setattr(manifest_module, "fsync_dir", synced.append)
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        manifest = Manifest(str(tmp_path / "a"))
        manifest.add_run(manifest.allocate_run_id(), 0, ("a.run",))
        del synced[:]
        manifest.write_snapshot(str(tmp_path / "b" / "MANIFEST"))
        manifest.compact()
        manifest.close()
        assert synced == [str(tmp_path / "b"), str(tmp_path / "a")]
        assert not (tmp_path / "b" / "MANIFEST.new").exists()
        assert (tmp_path / "b" / "MANIFEST").read_text() == (
            tmp_path / "a" / "MANIFEST"
        ).read_text()



def test_a_run_file_is_in_its_directory_before_the_manifest_names_it(
    tmp_path, monkeypatch
):
    """A new file's directory entry is durable only once the directory
    is synced: a flush syncs the run file, then the directory, then the
    manifest line naming the run, so a crash between any two leaves at
    worst an orphan file, never a manifest naming a lost one."""
    directory = tmp_path / "db"
    synced = []
    fsync = os.fsync

    def recorded(fd):
        synced.append(os.fstat(fd).st_ino)
        fsync(fd)

    with LSMStore.open(str(directory), StoreOptions()) as store:
        store.put(b"k", b"v")
        monkeypatch.setattr(os, "fsync", recorded)
        store.flush()
        monkeypatch.setattr(os, "fsync", fsync)
        (record,) = store.live_runs()
        manifest_inode = os.stat(directory / "MANIFEST").st_ino
    run_inode = os.stat(directory / record.files[0]).st_ino
    after_run = synced[synced.index(run_inode) + 1:]
    before_manifest = after_run[: after_run.index(manifest_inode)]
    assert os.stat(directory).st_ino in before_manifest
