"""The manifest: durable record of which runs form the tree.

A JSON-lines log of version edits. Each run-set edit is one ``edit``
line: the runs it adds (level, age stamp and files) and the run ids it
removes (merged away), so a crash leaves an edit whole or not at all.
Compaction of the manifest itself happens by writing a fresh snapshot
file and atomically renaming it over the old one. Run files no recovered
run names are orphans from a crash mid-merge and are deleted on open.

One more record kind, ``position``, says where the write-ahead log
stood (:class:`LogPosition`). It is only ever the *last* line of the
snapshot a clean ``close()`` writes, and the next open voids it —
durably, before the log takes an append — so a position that is read
back proves the store was closed cleanly and not written since.

A store holding bytes in a format that nothing has written for many
versions — an ``add`` or ``remove`` line here, or a run file or filter
of an older layout (:class:`~repro.engine.sstable.SSTableReader`) — is
refused at open (:func:`legacy_format`) before anything is written to
it; it is not read as corruption.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from itertools import count, repeat

from ..errors import ConfigurationError, CorruptionError
from .wal import fsync_dir, fsync_file

#: The last commit whose engine reads the formats :func:`legacy_format`
#: refuses: a store that holds them opens there.
LAST_LEGACY_READER = "ed47c64"


def legacy_format(marker: str, path: str) -> ConfigurationError:
    """The refusal of a store that holds ``marker``, a format this
    engine no longer reads, in the file at ``path``."""
    return ConfigurationError(
        f"{path}: {marker} is an on-disk format this engine no longer "
        f"reads; commit {LAST_LEGACY_READER} is the last that does"
    )


@dataclass(frozen=True)
class RunRecord:
    """One live sorted run as the manifest sees it: its files are
    key-disjoint and listed in key order."""

    run_id: int
    level: int
    files: tuple[str, ...]
    sequence: int  # age stamp: larger = newer data

    def to_json(self) -> dict:
        return {
            "run_id": self.run_id,
            "level": self.level,
            "files": list(self.files),
            "sequence": self.sequence,
        }

    @classmethod
    def from_json(cls, fields: dict) -> "RunRecord":
        return cls(
            run_id=int(fields["run_id"]),
            level=int(fields["level"]),
            files=tuple(str(name) for name in fields["files"]),
            sequence=int(fields["sequence"]),
        )


def _edit(added: list[RunRecord], removed: list[int]) -> dict:
    """One run-set edit as its manifest line."""
    return {
        "op": "edit",
        "add": [record.to_json() for record in added],
        "remove": removed,
    }


@dataclass(frozen=True)
class LogPosition:
    """A cleanly closed store's place in log-sequence space.

    ``lineage`` names one unbroken history of the store's log and
    ``wal_base`` is the LSN of the log file's first byte, so ``wal_base
    + file size`` is the LSN the store closed at. ``upstream`` is a
    follower's replication cursor — ``(leader lineage, applied lsn,
    epoch)`` — or None for a store that follows nobody.
    """

    lineage: int
    wal_base: int
    upstream: tuple[int, int, int] | None = None

    def to_edit(self) -> dict:
        return {
            "op": "position",
            "lineage": self.lineage,
            "wal_base": self.wal_base,
            "upstream": None if self.upstream is None else list(self.upstream),
        }


class Manifest:
    """Versioned, crash-safe component bookkeeping."""

    def __init__(self, directory: str, fault_plan=None) -> None:
        self._path = os.path.join(directory, "MANIFEST")
        self._fault_plan = fault_plan
        self._runs: dict[int, RunRecord] = {}
        self._position: LogPosition | None = None
        self._next_run_id = 1
        self._next_sequence = 1
        self._file = None
        existed = os.path.exists(self._path)
        if existed:
            self._recover()
        self._file = self._wrap(open(self._path, "a", encoding="utf-8"))
        if not existed:
            fsync_dir(directory)

    def _wrap(self, file):
        if self._fault_plan is None:
            return file
        return self._fault_plan.wrap(file, "manifest")

    def _recover(self) -> None:
        # errors="replace": bit-rotted bytes decode to U+FFFD instead of
        # aborting recovery; the mangled line then fails JSON parsing
        # below and takes the torn-tail exit.
        with open(
            self._path, "r", encoding="utf-8", errors="replace"
        ) as manifest:
            for line_no, line in enumerate(manifest, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    edit = json.loads(line)
                except json.JSONDecodeError:
                    # A torn tail line is a crash artifact; everything
                    # before it is consistent. Anything after is lost.
                    break
                self._apply(edit, line_no)

    def _apply(self, edit: dict, line_no: int) -> None:
        kind = edit.get("op")
        if kind == "edit":
            self._install(
                [RunRecord.from_json(fields) for fields in edit["add"]],
                [int(run_id) for run_id in edit["remove"]],
            )
        elif kind in ("add", "remove"):
            raise legacy_format(f"manifest {kind!r} line {line_no}", self._path)
        elif kind == "position":
            upstream = edit.get("upstream")
            self._position = (
                None
                if edit.get("lineage") is None
                else LogPosition(
                    lineage=int(edit["lineage"]),
                    wal_base=int(edit["wal_base"]),
                    upstream=(
                        None
                        if upstream is None
                        else tuple(int(field) for field in upstream)
                    ),
                )
            )
        else:
            raise CorruptionError(
                f"manifest line {line_no}: unknown edit {kind!r}"
            )

    def _install(self, added: list[RunRecord], removed: list[int]) -> None:
        for record in added:
            self._runs[record.run_id] = record
            self._next_run_id = max(self._next_run_id, record.run_id + 1)
            self._next_sequence = max(self._next_sequence, record.sequence + 1)
        for run_id in removed:
            self._runs.pop(run_id, None)

    def _append(self, edit: dict) -> None:
        self._file.write(json.dumps(edit, sort_keys=True) + "\n")
        fsync_file(self._file)

    # -- public API ----------------------------------------------------

    def live_runs(self) -> list[RunRecord]:
        """All live runs, oldest (smallest sequence) first."""
        return sorted(self._runs.values(), key=lambda r: r.sequence)

    def take_position(self) -> LogPosition | None:
        """The position the last clean close recorded, voided as read.

        Called once per open, before the log takes an append: from here
        on the record on disk would be a lie, so it is overwritten (one
        fsynced line) and only the next clean close writes another. A
        crash, or a ``crash()``, therefore leaves none behind.
        """
        position, self._position = self._position, None
        if position is not None:
            self._append({"op": "position", "lineage": None})
        return position

    def allocate_run_id(self) -> int:
        """Reserve the next run id (not durable until an edit adds it)."""
        run_id = self._next_run_id
        self._next_run_id += 1
        return run_id

    def add_run(
        self,
        run_id: int,
        level: int,
        files: tuple[str, ...],
        sequence: int | None = None,
    ) -> RunRecord:
        """Durably register one run (an edit that adds it alone)."""
        return self.replace_runs([], [(run_id, level, files)], sequence)[0]

    def replace_runs(
        self,
        removed: list[int],
        added: list[tuple[int, int, tuple[str, ...]]],
        sequence: int | None = None,
    ) -> list[RunRecord]:
        """Swap merge inputs for outputs in one fsynced line.

        ``added`` lists ``(run_id, level, files)``. Flushes (and a
        reset's install) omit ``sequence``: each added run gets a fresh
        age stamp, newer in list order. Merge outputs MUST
        pass the maximum sequence of their inputs: the output's data is
        only as new as its newest input, and stamping it with creation
        time would let merged-away old values shadow tombstones flushed
        while the merge ran. Memory changes only once the line is
        durable: a failed write leaves the recorded runs as they were.
        """
        stamps = count(self._next_sequence) if sequence is None else (
            repeat(sequence)
        )
        records = [
            RunRecord(run_id, level, tuple(files), next(stamps))
            for run_id, level, files in added
        ]
        self._append(_edit(records, list(removed)))
        self._install(records, removed)
        return records

    def write_snapshot(
        self, path: str, position: LogPosition | None = None, records=None
    ) -> None:
        """Write ``records`` (default: the live runs) as a minimal
        manifest at ``path``.

        Durable and all-or-nothing: written beside ``path``, fsynced,
        renamed into place, the directory fsynced. :meth:`compact`
        rewrites this manifest with it; a store checkpoint writes its
        copy's. ``position``, when given, becomes the last line.
        """
        fresh_path = path + ".new"
        edits = [_edit(self.live_runs() if records is None else records, [])]
        if position is not None:
            edits.append(position.to_edit())
        with open(fresh_path, "w", encoding="utf-8") as fresh:
            for edit in edits:
                fresh.write(json.dumps(edit, sort_keys=True) + "\n")
            fresh.flush()
            os.fsync(fresh.fileno())
        os.replace(fresh_path, path)
        fsync_dir(os.path.dirname(path))

    def compact(self, position: LogPosition | None = None) -> None:
        """Rewrite the manifest as a minimal snapshot (atomic rename).

        ``position`` — given only by a clean close, once everything
        before it in the log is in fsynced runs — becomes the
        snapshot's last line (see :meth:`take_position`).
        """
        self.write_snapshot(self._path, position)
        self._file.close()
        self._file = self._wrap(open(self._path, "a", encoding="utf-8"))

    def close(self) -> None:
        """Close the manifest file."""
        if self._file is not None and not self._file.closed:
            self._file.close()
