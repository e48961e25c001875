"""YCSB-style record generation for the real storage engine.

The simulator never materializes records, but the storage engine examples
and integration tests ingest real key/value pairs. This module generates
them the way YCSB does: fixed-width zero-padded keys with a common prefix,
and records composed of a configurable number of fields with deterministic
pseudo-random payloads. Secondary-index experiments attach extra integer
fields drawn uniformly over the keyspace, matching Section 7's setup.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigurationError
from .distributions import KeyDistribution


def encode_key(key: int, width: int = 12, prefix: str = "user") -> bytes:
    """Encode an integer key as a YCSB-style fixed-width byte string.

    Fixed-width zero padding makes the lexicographic byte order equal to
    the numeric order, which the sorted-run format relies on.
    """
    if key < 0:
        raise ConfigurationError("keys must be non-negative integers")
    text = f"{prefix}{key:0{width}d}"
    return text.encode("ascii")


@dataclass(frozen=True)
class GeneratedRecord:
    """One generated record: primary key bytes, value bytes, and the
    integer secondary-field values used to maintain secondary indexes."""

    key: bytes
    value: bytes
    secondary: tuple[int, ...] = field(default=())


class RecordGenerator:
    """Generates update streams of YCSB-style records.

    Parameters
    ----------
    distribution:
        Key-choice distribution (uniform or Zipf in the paper).
    value_size:
        Payload bytes per record (paper: 1 KB records).
    secondary_fields:
        Number of secondary-index fields; each is drawn uniformly over the
        keyspace per Section 7 ("each secondary field value randomly
        following a uniform distribution based on the total number of base
        records").
    seed:
        Seed for the internal generator; identical seeds give identical
        streams.
    """

    def __init__(
        self,
        distribution: KeyDistribution,
        value_size: int = 1024,
        secondary_fields: int = 0,
        seed: int = 0,
    ) -> None:
        if value_size <= 0:
            raise ConfigurationError("value_size must be positive")
        if secondary_fields < 0:
            raise ConfigurationError("secondary_fields must be >= 0")
        self._distribution = distribution
        self._value_size = value_size
        self._secondary_fields = secondary_fields
        self._rng = np.random.default_rng(seed)

    @property
    def value_size(self) -> int:
        """Bytes of payload per record."""
        return self._value_size

    def _value_for(self, key: int, version: int) -> bytes:
        """Deterministic payload so tests can verify read-your-writes."""
        stamp = f"v{version}:k{key}:".encode("ascii")
        filler = b"x" * max(0, self._value_size - len(stamp))
        return (stamp + filler)[: self._value_size]

    def batch(self, count: int) -> list[GeneratedRecord]:
        """Generate ``count`` update records."""
        keys = self._distribution.sample(self._rng, count)
        if self._secondary_fields:
            fields = self._rng.integers(
                0,
                self._distribution.keyspace,
                size=(count, self._secondary_fields),
                dtype=np.int64,
            )
        records = []
        for row, key in enumerate(keys):
            secondary = (
                tuple(int(v) for v in fields[row]) if self._secondary_fields else ()
            )
            records.append(
                GeneratedRecord(
                    key=encode_key(int(key)),
                    value=self._value_for(int(key), row),
                    secondary=secondary,
                )
            )
        return records

    def load_sequence(self, count: int) -> list[GeneratedRecord]:
        """Initial-load records: each key 0..count-1 exactly once, in a
        random order (the paper loads 100M records in random key order)."""
        order = self._rng.permutation(count)
        records = []
        for key in order:
            secondary = tuple(
                int(v)
                for v in self._rng.integers(0, count, size=self._secondary_fields)
            )
            records.append(
                GeneratedRecord(
                    key=encode_key(int(key)),
                    value=self._value_for(int(key), 0),
                    secondary=secondary,
                )
            )
        return records
