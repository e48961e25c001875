"""Mixed-format trees: pre-overhaul (version-1) runs living alongside
compressed version-2 runs in one store.

Old stores upgrade in place: the manifest does not know about formats,
readers dispatch on each file's footer magic, and merges rewrite
whatever they consume into the current format. These tests pin that
contract — serving, merging, scrubbing, and corruption containment all
work across a tree that mixes both formats.
"""

import os
import shutil

import pytest

from repro.engine import (
    LSMStore,
    Manifest,
    SSTableReader,
    StoreOptions,
    verify_store,
)
from repro.errors import DataCorruptError

from .legacy_runs import write_v1_run


def _install_legacy_run(directory, entries):
    """Hand-write a genuine version-absent run and register it, exactly
    as a pre-overhaul engine would have left it on disk."""
    os.makedirs(directory, exist_ok=True)
    manifest = Manifest(directory)
    try:
        run_id = manifest.allocate_run_id()
        filename = f"{run_id:08d}.run"
        write_v1_run(
            os.path.join(directory, filename), entries, block_bytes=512
        )
        manifest.add_run(run_id, 0, (filename,))
        return run_id
    finally:
        manifest.close()


OPTIONS = StoreOptions(block_codec="zlib", block_cache_bytes=0)


@pytest.fixture()
def mixed_tree(tmp_path):
    """A store directory holding one v1 run and one zlib v2 run with an
    overlapping key range (the v2 run shadows the overlap), plus the
    last-writer-wins model of its contents."""
    directory = str(tmp_path / "store")
    old = [
        (f"k{i:04d}".encode(), (f"old-{i:04d}-" * 4).encode())
        for i in range(120)
    ]
    legacy_id = _install_legacy_run(directory, old)
    new = {
        f"k{i:04d}".encode(): (f"new-{i:04d}-" * 4).encode()
        for i in range(60, 180)
    }
    with LSMStore.open(directory, OPTIONS) as store:
        for key, value in sorted(new.items()):
            store.put(key, value)
        store.flush()
    model = dict(old)
    model.update(new)
    return directory, model, legacy_id


class TestMixedTreeServing:
    def test_gets_and_scans_span_both_formats(self, mixed_tree):
        directory, model, _ = mixed_tree
        with LSMStore.open(directory, OPTIONS) as store:
            for key, value in model.items():
                assert store.get(key) == value
            assert store.get(b"k9999") is None
            assert dict(store.scan()) == model

    def test_tree_really_mixes_formats(self, mixed_tree):
        directory, _, _ = mixed_tree
        manifest = Manifest(directory)
        try:
            records = manifest.live_runs()
        finally:
            manifest.close()
        versions = {}
        for record in records:
            reader = SSTableReader(
                os.path.join(directory, record.files[0])
            )
            versions[record.run_id] = (
                reader.format_version, reader.codec
            )
            reader.close()
        assert sorted(v for v, _ in versions.values()) == [1, 2]
        assert ("none" in {c for _, c in versions.values()})
        assert ("zlib" in {c for _, c in versions.values()})

    def test_verify_store_audits_both_formats(self, mixed_tree):
        directory, _, _ = mixed_tree
        report = verify_store(directory)
        assert report.clean, report.summary()
        assert report.runs_checked == 2
        # The zlib run compresses, the v1 run counts 1:1 — so the tree
        # total must show logical >= physical with both contributing.
        assert report.logical_data_bytes > report.physical_data_bytes > 0


class TestMixedTreeMerge:
    def test_merge_rewrites_legacy_into_current_format(self, mixed_tree):
        directory, model, _ = mixed_tree
        with LSMStore.open(directory, OPTIONS) as store:
            # Enough extra flushed runs to trip the tiering policy's
            # size ratio at level 0, forcing a merge over the mixed set.
            for round_index in range(4):
                for i in range(40):
                    key = f"k{i + 40 * round_index:04d}".encode()
                    value = (f"merged-{round_index}-{i:04d}-" * 3).encode()
                    store.put(key, value)
                    model[key] = value
                store.flush()
            store.maintenance()
            stats = store.stats()
            assert stats.merges_completed >= 1
            for key, value in model.items():
                assert store.get(key) == value
        manifest = Manifest(directory)
        try:
            records = manifest.live_runs()
        finally:
            manifest.close()
        versions = set()
        for record in records:
            reader = SSTableReader(
                os.path.join(directory, record.files[0])
            )
            versions.add(reader.format_version)
            reader.close()
        # The legacy run was merge input, and merge outputs are always
        # written in the current format.
        assert versions == {2}
        with LSMStore.open(directory, OPTIONS) as store:
            assert dict(store.scan()) == model


class TestMixedTreeScrub:
    def test_scrub_passes_clean_mixed_tree(self, mixed_tree):
        directory, _, _ = mixed_tree
        with LSMStore.open(directory, OPTIONS) as store:
            store.scrub_pass()
            assert store.quarantined_entries() == []

    def test_scrub_quarantines_corrupt_legacy_run(self, mixed_tree):
        directory, _, legacy_id = mixed_tree
        path = os.path.join(directory, f"{legacy_id:08d}.run")
        with open(path, "r+b") as damaged:
            damaged.seek(10)
            original = damaged.read(1)
            damaged.seek(10)
            damaged.write(bytes([original[0] ^ 0xFF]))
        with LSMStore.open(directory, OPTIONS) as store:
            store.scrub_pass()
            quarantined = [e.run_id for e in store.quarantined_entries()]
        assert quarantined == [legacy_id]


class TestMixedTreeCorruptionSweep:
    def test_flip_sweep_never_serves_wrong_answers(self, mixed_tree, tmp_path):
        """Corrupt each run of the mixed tree in turn (inside block 0's
        payload) and require detect-or-correct on every key — the
        crashsim survival contract, across both formats."""
        directory, model, _ = mixed_tree
        manifest = Manifest(directory)
        try:
            records = manifest.live_runs()
        finally:
            manifest.close()
        assert len(records) == 2
        for case_index, record in enumerate(records):
            image = str(tmp_path / f"image-{case_index}")
            shutil.copytree(directory, image)
            run_path = os.path.join(image, record.files[0])
            reader = SSTableReader(run_path)
            offset, length = reader.block_span(0)
            skip = 6 if reader.format_version == 2 else 2
            reader.close()
            with open(run_path, "r+b") as damaged:
                damaged.seek(offset + skip)
                original = damaged.read(1)
                damaged.seek(offset + skip)
                damaged.write(bytes([original[0] ^ 0xFF]))
            detections = 0
            with LSMStore.open(image, OPTIONS) as store:
                for key, value in model.items():
                    try:
                        got = store.get(key)
                    except DataCorruptError:
                        detections += 1
                        continue
                    assert got == value, (
                        f"wrong answer for {key!r} with corrupt "
                        f"{record.files[0]}"
                    )
                assert detections > 0
                assert store.quarantined_entries() != []
