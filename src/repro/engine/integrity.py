"""Offline integrity verification for a store directory.

A production storage engine needs a way to audit its on-disk state:
``verify_store`` walks the manifest, opens every file of every live run,
runs the scrubber's :class:`~repro.engine.scrub.BlockCheck` over it
(block checksums, key order, entry and tombstone counts and key bounds
against the meta block) and probes its point filter with every key,
checks key order across a run's files, and checks that every file
belongs to exactly one live run. Runs at one level may overlap: reads
probe every run newest first by sequence stamp. Returns a report rather
than raising on first error, so operators see the full damage picture
at once.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from ..errors import ConfigurationError, CorruptionError
from .manifest import Manifest
from .quarantine import QuarantineSet
from .scrub import BlockCheck
from .sstable import SSTableReader
from .wal import scan_wal


@dataclass
class IntegrityReport:
    """The result of a store audit."""

    runs_checked: int = 0
    entries_checked: int = 0
    problems: list[str] = field(default_factory=list)
    orphan_files: list[str] = field(default_factory=list)
    wal_bytes: int = 0
    #: ``clean`` | ``torn`` | ``corrupt`` — torn is a normal crash tail
    #: (replay stops at the prefix); corrupt means an *interior* frame
    #: is damaged and everything after it is unreachable.
    wal_state: str = "clean"
    components_per_level: dict[int, int] = field(default_factory=dict)
    #: Run ids the store has quarantined (informational: already
    #: contained, excluded from reads, awaiting repair).
    quarantined_runs: list[int] = field(default_factory=list)
    #: Data-block bytes as stored on disk (post-codec) across all
    #: checked runs.
    physical_data_bytes: int = 0
    #: Pre-compression data-block bytes across all checked runs; the
    #: physical/logical ratio is the store's space amplification from
    #: the block codec's point of view.
    logical_data_bytes: int = 0

    @property
    def clean(self) -> bool:
        """True when no problems were found (orphans are informational:
        they are crash leftovers the next open will clear)."""
        return not self.problems

    def summary(self) -> str:
        """One-paragraph human-readable result."""
        state = "CLEAN" if self.clean else f"{len(self.problems)} PROBLEM(S)"
        shape = ", ".join(
            f"L{level}:{count}"
            for level, count in sorted(self.components_per_level.items())
        ) or "empty"
        lines = [
            f"integrity: {state} — {self.runs_checked} runs, "
            f"{self.entries_checked} entries checked",
            f"  tree: {shape}; wal: {self.wal_bytes} bytes",
        ]
        if self.logical_data_bytes:
            ratio = self.physical_data_bytes / self.logical_data_bytes
            lines.append(
                f"  blocks: {self.physical_data_bytes} physical / "
                f"{self.logical_data_bytes} logical bytes "
                f"(space amp {ratio:.3f})"
            )
        lines += [f"  problem: {problem}" for problem in self.problems]
        lines += [f"  orphan:  {name}" for name in self.orphan_files]
        if self.quarantined_runs:
            lines.append(
                f"  quarantined: runs {self.quarantined_runs} "
                f"(excluded from reads, awaiting repair)"
            )
        return "\n".join(lines)


def verify_files(
    directory: str, files: tuple[str, ...], report: IntegrityReport
) -> bool:
    """Verify one run's files, in the run's order; True when every one
    checked clean."""
    bounds = []
    problems = len(report.problems)
    for name in files:
        path = os.path.join(directory, name)
        if not os.path.exists(path):
            report.problems.append(
                f"{name}: referenced by manifest but missing"
            )
            continue
        try:
            reader = SSTableReader(path)
        except CorruptionError as error:
            report.problems.append(f"{name}: {error}")
            continue
        try:
            check = BlockCheck(reader)
            while not check.done:
                for key in check.step():
                    if not reader.might_contain(key):
                        raise CorruptionError(
                            f"point filter false negative for {key!r}"
                        )
            check.finish()
            report.entries_checked += check.entries
            report.physical_data_bytes += reader.data_bytes
            report.logical_data_bytes += reader.logical_bytes
            if reader.entry_count:
                bounds.append((reader.min_key, reader.max_key, name))
        except CorruptionError as error:
            report.problems.append(f"{name}: {error}")
        finally:
            reader.close()
    for (_, lower_max, lower), (upper_min, _, upper) in zip(
        bounds, bounds[1:]
    ):
        if upper_min <= lower_max:
            report.problems.append(
                f"{upper}: starts at or below the end of {lower}, the "
                f"file before it in its run"
            )
    return len(report.problems) == problems


def require_store(directory: str) -> None:
    """Refuse a path with no store: opening one would create it empty."""
    if not os.path.isfile(os.path.join(directory, "MANIFEST")):
        raise ConfigurationError(f"no store at {directory}: no MANIFEST")


def verify_store(directory: str) -> IntegrityReport:
    """Audit every live run referenced by the store's manifest.

    Orphans are run files no live run names; a file two live runs name
    is a problem. A directory with no manifest is refused
    (:func:`require_store`).
    """
    require_store(directory)
    report = IntegrityReport()
    wal_path = os.path.join(directory, "wal.log")
    if os.path.exists(wal_path):
        report.wal_bytes = os.path.getsize(wal_path)
        wal_scan = scan_wal(wal_path)
        report.wal_state = wal_scan.state
        if wal_scan.state == "corrupt":
            report.problems.append(
                f"wal.log: interior frame corrupt after "
                f"{wal_scan.valid_bytes} bytes "
                f"({wal_scan.remaining_bytes} bytes unreachable)"
            )
    manifest = Manifest(directory)
    try:
        live = manifest.live_runs()
        owners: dict[str, int] = {}
        for record in live:
            for name in record.files:
                if name in owners:
                    report.problems.append(
                        f"{name}: named by live runs {owners[name]} and "
                        f"{record.run_id}"
                    )
                owners.setdefault(name, record.run_id)
        for name in sorted(os.listdir(directory)):
            if name.endswith(".run") and name not in owners:
                report.orphan_files.append(name)
        for record in live:
            report.components_per_level[record.level] = (
                report.components_per_level.get(record.level, 0) + 1
            )
            if verify_files(directory, record.files, report):
                report.runs_checked += 1
        report.quarantined_runs = [
            entry.run_id for entry in QuarantineSet(directory).entries()
        ]
    finally:
        manifest.close()
    return report
