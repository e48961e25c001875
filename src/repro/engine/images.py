"""Whole-store images: the live runs frozen for a replication reset or a
checkpoint (:meth:`~repro.engine.LSMStore.run_image`), and the checks a
follower's received runs pass before the store installs them
(:meth:`~repro.engine.LSMStore.install_image`).

An image names the store's own readers of its run files, so nothing is
opened again: a run file is never rewritten, a merge only unlinks its
name, and a reader's descriptor closes once nothing holds it.
"""

from __future__ import annotations

import os
from typing import NamedTuple

from ..errors import CorruptionError
from .integrity import IntegrityReport, verify_files
from .sstable import SEQUENTIAL_IO_BYTES, SSTableReader
from .wal import fsync_dir


class RunImage(NamedTuple):
    """The live runs frozen at ``lsn`` (:meth:`LSMStore.run_image`):
    their records, oldest first, and ``(name, reader, size)`` of each
    file they name, in order. The store's own readers pin the bytes;
    dropping the image releases them."""

    lsn: int
    records: list
    files: tuple[tuple[str, SSTableReader, int], ...]


def freeze(records: list, compaction, lsn: int) -> RunImage:
    """The image of ``records``, the manifest's live runs, read off the
    compaction manager's current version (store lock held, memtables
    empty). Refuses (:class:`~repro.errors.DataCorruptError`) while a
    run is quarantined: no copy would be whole."""
    for entry in compaction.quarantine.entries():
        raise entry.fence(f"run {entry.run_id} is quarantined")
    runs = dict(compaction.version.plan)
    files = tuple(
        (name, reader, reader.file_bytes)
        for record in records
        for name, reader in zip(record.files, runs[record.run_id].files)
    )
    return RunImage(lsn, records, files)


def copy_files(image: RunImage, source: str, target: str) -> None:
    """Each of the image's files into ``target``: hard-linked by name,
    or copied through the image's reader across filesystems, or once a
    merge retired the name."""
    for name, reader, size in image.files:
        destination = os.path.join(target, name)
        try:
            os.link(os.path.join(source, name), destination)
        except OSError:
            with open(destination, "wb") as copy:
                for offset in range(0, size, SEQUENTIAL_IO_BYTES):
                    length = min(SEQUENTIAL_IO_BYTES, size - offset)
                    copy.write(reader.read_at(offset, length))


def stage(directory: str, runs: list[tuple[int, tuple[str, ...]]]) -> None:
    """Check the block CRCs of ``runs``' files (an edit names files
    before it opens them), then make them and their names durable."""
    report = IntegrityReport()
    for _level, files in runs:
        verify_files(directory, files, report)
    if report.problems:
        raise CorruptionError("; ".join(report.problems))
    for name in (name for _level, files in runs for name in files):
        with open(os.path.join(directory, name), "rb") as staged:
            os.fsync(staged.fileno())
    if runs:
        fsync_dir(directory)
