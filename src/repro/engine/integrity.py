"""Offline integrity verification for a store directory.

A production storage engine needs a way to audit its on-disk state:
``verify_store`` walks the manifest, opens every file of every live run,
checks all block checksums, validates key ordering inside each file and
across a run's files, confirms per-file metadata (entry counts, key
bounds) against the actual contents, checks that every file belongs to
exactly one live run, and cross-checks level invariants (partitioned
levels must not have overlapping runs). Returns a report rather than
raising on first error, so operators see the full damage picture at
once.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from ..errors import CorruptionError
from .manifest import Manifest
from .quarantine import QuarantineSet
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


def _verify_run(reader: SSTableReader, report: IntegrityReport, name: str) -> None:
    previous = None
    count = 0
    tombstones = 0
    first = last = None
    for key, value in reader.items():
        if previous is not None and key <= previous:
            report.problems.append(
                f"{name}: keys out of order at {key!r}"
            )
            return
        previous = key
        if first is None:
            first = key
        last = key
        count += 1
        if value is None:
            tombstones += 1
        if not reader.might_contain(key):
            report.problems.append(
                f"{name}: point filter false negative for {key!r}"
            )
            return
    report.entries_checked += count
    if count != reader.entry_count:
        report.problems.append(
            f"{name}: metadata says {reader.entry_count} entries, "
            f"found {count}"
        )
    if tombstones != reader.tombstone_count:
        report.problems.append(
            f"{name}: metadata says {reader.tombstone_count} tombstones, "
            f"found {tombstones}"
        )
    if count and (first != reader.min_key or last != reader.max_key):
        report.problems.append(f"{name}: key bounds do not match metadata")


def _check_partitioned_levels(
    by_level: dict[int, list], report: IntegrityReport
) -> None:
    """Flag overlapping runs inside partitioned levels.

    Under the leveling policy every level >= 1 is a sorted partition of
    the keyspace: runs must cover disjoint key ranges, or reads would
    consult the wrong run and merges would silently drop entries.
    Level 0 is exempt (freshly flushed runs legitimately overlap).
    """
    for level, spans in sorted(by_level.items()):
        if level == 0 or len(spans) < 2:
            continue
        ordered = sorted(spans)
        for (_, prev_max, prev_name), (next_min, _, next_name) in zip(
            ordered, ordered[1:]
        ):
            if next_min <= prev_max:
                report.problems.append(
                    f"level {level}: {prev_name} (max {prev_max!r}) overlaps "
                    f"{next_name} (min {next_min!r}) in a partitioned level"
                )


def verify_files(
    directory: str, files: tuple[str, ...], report: IntegrityReport
) -> list[tuple[bytes, bytes, str]] | None:
    """Verify one run's files; ``(min, max, name)`` of each non-empty
    one, in the run's order — None if any file could not be checked."""
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
            _verify_run(reader, report, name)
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
    return bounds if len(report.problems) == problems else None


def verify_store(directory: str, policy: str | None = None) -> IntegrityReport:
    """Audit every live run referenced by the store's manifest.

    ``policy`` is the merge policy the store was run with; when it is
    ``"leveling"`` the audit additionally enforces the partitioned-level
    invariant (no overlapping runs within a level >= 1). Tiering
    policies legitimately stack overlapping runs per level, so the check
    is skipped unless the caller asserts the policy. Orphans are run
    files no live run names; a file two live runs name is a problem.
    """
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
        by_level: dict[int, list] = {}
        for record in live:
            report.components_per_level[record.level] = (
                report.components_per_level.get(record.level, 0) + 1
            )
            bounds = verify_files(directory, record.files, report)
            if bounds is None:
                continue
            if bounds:
                by_level.setdefault(record.level, []).append(
                    (bounds[0][0], bounds[-1][1], f"run {record.run_id}")
                )
            report.runs_checked += 1
        if policy == "leveling":
            _check_partitioned_levels(by_level, report)
        report.quarantined_runs = [
            entry.run_id for entry in QuarantineSet(directory).entries()
        ]
    finally:
        manifest.close()
    return report
