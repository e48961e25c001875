"""Quarantine registry: corrupt runs fenced off from the read path.

When a run fails its checksum twice (once to detect, once to rule out a
transient read error) the store *quarantines* it rather than crashing:
the run stays in the manifest — its data may still be recoverable from a
replica — but is excluded from reads and from merge scheduling, and
every read whose answer could depend on it fails fast with
:class:`~repro.errors.DataCorruptError` instead of silently skipping it.

The registry persists as ``quarantine.json`` next to the MANIFEST
(atomic tmp-write + rename + directory fsync, the same durability
discipline the manifest uses), so a restart cannot forget that a run is
poisoned. Entries for runs the manifest no longer references are dropped
at load — a merge or repair that retired the file also retired the
quarantine.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from ..errors import DataCorruptError
from .wal import fsync_dir

_FILENAME = "quarantine.json"


@dataclass(frozen=True)
class QuarantineEntry:
    """One fenced-off run: identity, key bounds, and why it is here."""

    run_id: int
    filename: str
    level: int
    min_key: bytes
    max_key: bytes
    reason: str
    source: str  # "read", "scrub" or "merge"

    def covers(self, key: bytes) -> bool:
        """True when ``key`` falls inside this run's key bounds — the
        read cannot be answered soundly without the run."""
        return self.min_key <= key <= self.max_key

    def fence(self, message: str) -> DataCorruptError:
        """The error a read that depends on this run fails with."""
        return DataCorruptError(
            message,
            run_id=self.run_id,
            min_key=self.min_key,
            max_key=self.max_key,
        )

    def overlaps(self, lo: bytes | None, hi: bytes | None) -> bool:
        """True when the half-open scan range ``[lo, hi)`` intersects
        this run's (inclusive) key bounds."""
        if hi is not None and self.min_key >= hi:
            return False
        if lo is not None and self.max_key < lo:
            return False
        return True

    def to_wire(self) -> dict:
        return {
            "run_id": self.run_id,
            "filename": self.filename,
            "level": self.level,
            "min_key": self.min_key.hex(),
            "max_key": self.max_key.hex(),
            "reason": self.reason,
            "source": self.source,
        }

    @classmethod
    def from_wire(cls, payload: dict) -> "QuarantineEntry":
        return cls(
            run_id=int(payload["run_id"]),
            filename=str(payload["filename"]),
            level=int(payload["level"]),
            min_key=bytes.fromhex(payload["min_key"]),
            max_key=bytes.fromhex(payload["max_key"]),
            reason=str(payload["reason"]),
            source=str(payload.get("source", "read")),
        )


class QuarantineSet:
    """The store's persisted set of quarantined runs.

    Not thread-safe on its own: every mutation happens under the store
    lock, the same discipline the manifest follows.
    """

    def __init__(self, directory: str) -> None:
        self._directory = directory
        self._path = os.path.join(directory, _FILENAME)
        self._entries: dict[int, QuarantineEntry] = {}
        self._load()

    def _load(self) -> None:
        if not os.path.exists(self._path):
            return
        try:
            with open(self._path, "r", encoding="utf-8") as handle:
                raw = json.load(handle)
        except (ValueError, OSError):
            # An unreadable registry must not take the store down with
            # it; treat it as empty (the scrubber will re-detect).
            return
        for payload in raw.get("entries", []):
            entry = QuarantineEntry.from_wire(payload)
            self._entries[entry.run_id] = entry

    def _persist(self) -> None:
        tmp = self._path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "entries": [
                        entry.to_wire()
                        for entry in sorted(
                            self._entries.values(),
                            key=lambda e: e.run_id,
                        )
                    ]
                },
                handle,
            )
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self._path)
        fsync_dir(self._directory)

    # -- queries -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, run_id: int) -> bool:
        return run_id in self._entries

    def entries(self) -> list[QuarantineEntry]:
        """All quarantined runs, stable order (for status/reporting)."""
        return sorted(self._entries.values(), key=lambda e: e.run_id)

    def get(self, run_id: int) -> QuarantineEntry | None:
        return self._entries.get(run_id)

    # -- mutations (call under the store lock) -------------------------

    def add(self, entry: QuarantineEntry) -> None:
        """Quarantine a run (idempotent) and persist the registry."""
        self._entries[entry.run_id] = entry
        self._persist()

    def remove(self, run_id: int) -> bool:
        """Lift a quarantine (repair completed or run retired)."""
        if self._entries.pop(run_id, None) is None:
            return False
        self._persist()
        return True

    def retain(self, live_run_ids: set[int]) -> None:
        """Drop entries for runs the manifest no longer references."""
        stale = [rid for rid in self._entries if rid not in live_run_ids]
        if stale:
            for rid in stale:
                del self._entries[rid]
            self._persist()
