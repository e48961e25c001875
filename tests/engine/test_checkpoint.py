"""Tests for point-in-time store checkpoints."""

import os

import pytest

from repro.engine import LSMStore, StoreOptions, images, verify_store
from repro.errors import ConfigurationError, DataCorruptError

OPTIONS = StoreOptions(memtable_bytes=16 * 1024, levels=3)


class TestCheckpoint:
    def test_checkpoint_is_openable_and_complete(self, tmp_path):
        with LSMStore.open(str(tmp_path / "db"), OPTIONS) as store:
            for i in range(2000):
                store.put(f"user{i % 300:06d}".encode(), b"v" * 64)
            runs = store.checkpoint(str(tmp_path / "snap"))
            assert runs >= 1
            # source keeps working after the checkpoint
            store.put(b"after-snap", b"1")
        with LSMStore.open(str(tmp_path / "snap"), OPTIONS) as snapshot:
            assert len(list(snapshot.scan())) == 300
            assert snapshot.get(b"after-snap") is None  # post-snap write absent

    def test_checkpoint_includes_buffered_writes(self, tmp_path):
        with LSMStore.open(str(tmp_path / "db"), OPTIONS) as store:
            store.put(b"only-in-memtable", b"v")
            store.checkpoint(str(tmp_path / "snap"))
        with LSMStore.open(str(tmp_path / "snap"), OPTIONS) as snapshot:
            assert snapshot.get(b"only-in-memtable") == b"v"

    def test_checkpoint_passes_integrity_audit(self, tmp_path):
        with LSMStore.open(str(tmp_path / "db"), OPTIONS) as store:
            for i in range(3000):
                store.put(f"k{i % 500:06d}".encode(), b"x" * 50)
            store.checkpoint(str(tmp_path / "snap"))
        report = verify_store(str(tmp_path / "snap"))
        assert report.clean

    def test_a_file_that_cannot_be_linked_is_copied_through_its_reader(
        self, tmp_path, monkeypatch
    ):
        """Across filesystems (here: every link refused) each file is
        copied through the store's reader of it, byte for byte, in
        pieces smaller than the file."""
        monkeypatch.setattr(images, "SEQUENTIAL_IO_BYTES", 4096)

        def refused(*_args):
            raise OSError("cross-device link")

        monkeypatch.setattr(os, "link", refused)
        with LSMStore.open(str(tmp_path / "db"), OPTIONS) as store:
            for i in range(2000):
                store.put(f"user{i % 300:06d}".encode(), b"v" * 64)
            store.checkpoint(str(tmp_path / "snap"))
            names = [n for r in store.live_runs() for n in r.files]
            for name in names:
                source = (tmp_path / "db" / name).read_bytes()
                assert len(source) > 4096
                assert (tmp_path / "snap" / name).read_bytes() == source
        assert verify_store(str(tmp_path / "snap")).clean
        with LSMStore.open(str(tmp_path / "snap"), OPTIONS) as snapshot:
            assert len(list(snapshot.scan())) == 300

    def test_non_empty_target_rejected(self, tmp_path):
        (tmp_path / "snap").mkdir()
        (tmp_path / "snap" / "junk").write_text("x")
        with LSMStore.open(str(tmp_path / "db"), OPTIONS) as store:
            store.put(b"a", b"1")
            with pytest.raises(ConfigurationError):
                store.checkpoint(str(tmp_path / "snap"))

    def test_snapshots_diverge_independently(self, tmp_path):
        with LSMStore.open(str(tmp_path / "db"), OPTIONS) as store:
            store.put(b"shared", b"1")
            store.checkpoint(str(tmp_path / "snap"))
            store.put(b"shared", b"2")
        with LSMStore.open(str(tmp_path / "snap"), OPTIONS) as snapshot:
            snapshot.put(b"snap-only", b"3")
            assert snapshot.get(b"shared") == b"1"
        with LSMStore.open(str(tmp_path / "db"), OPTIONS) as original:
            assert original.get(b"shared") == b"2"
            assert original.get(b"snap-only") is None

    def test_a_quarantined_run_is_not_laundered_into_a_copy(self, tmp_path):
        # A copy of a quarantined run would open with no quarantine at
        # all, the damage found again only when a read hit the block.
        directory = str(tmp_path / "db")
        options = OPTIONS.with_(block_cache_bytes=0)
        with LSMStore.open(directory, options) as store:
            for i in range(100):
                store.put(b"k%04d" % i, b"v" * 64)
            store.flush()
            [record] = store.live_runs()
            path = os.path.join(directory, record.files[0])
            with open(path, "rb") as run_file:
                blob = bytearray(run_file.read())
            blob[16] ^= 0xFF
            with open(path, "wb") as damaged:
                damaged.write(bytes(blob))
            with pytest.raises(DataCorruptError):
                store.get(b"k0000")
            assert store.stats().quarantined_runs == 1
            with pytest.raises(DataCorruptError):
                store.checkpoint(str(tmp_path / "snap"))
        assert not (tmp_path / "snap" / "MANIFEST").exists()
