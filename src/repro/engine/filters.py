"""The point-filter protocol for sorted runs.

Every run embeds a serialized filter so point lookups can skip runs
that provably do not hold the key. There is one kind, ``bloom`` — the
paper's configuration and the standard LSM point filter: a
double-hashing :class:`~repro.engine.bloom.BloomFilter`, which the run
writer builds directly. The run reader knows only the
:class:`PointFilter` protocol.

A filter serializes behind a 4-byte magic that :func:`load_filter`
checks — so version-1 files (always Bloom) load through the same path,
and a blob with any other magic is corruption. Run files that earlier
merges wrote by appending their inputs hold those filters end to end
(``BLP1``, :class:`~repro.engine.bloom.PartitionedBloom`): still the
``bloom`` kind, loaded by the same dispatch, and only ever probed.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from ..errors import CorruptionError
from .bloom import BloomFilter, PartitionedBloom

_BLOOM_MAGIC = b"BLM1"
_PARTITIONED_MAGIC = b"BLP1"


@runtime_checkable
class PointFilter(Protocol):
    """What the run writer and reader require of a point filter."""

    def add(self, key: bytes) -> None:
        """Insert a key."""

    def add_many(self, keys: list[bytes]) -> None:
        """Insert keys in order; same result as :meth:`add` on each."""

    def might_contain(self, key: bytes) -> bool:
        """False means definitely absent; True means probably present."""

    def to_bytes(self) -> bytes:
        """Serialize; must start with the kind's magic."""


def available_filters() -> tuple[str, ...]:
    """The filter kind names ``filter_kind`` accepts."""
    return ("bloom",)


def load_filter(data: bytes) -> PointFilter | PartitionedBloom:
    """Deserialize a filter blob, checking its magic prefix.

    Version-1 run files always carry Bloom blobs, so they resolve here
    with no format bit — the magic *is* the format bit.
    """
    if len(data) < 4:
        raise CorruptionError("filter blob truncated")
    magic = bytes(data[:4])
    if magic == _BLOOM_MAGIC:
        return BloomFilter.from_bytes(data)
    if magic == _PARTITIONED_MAGIC:
        return PartitionedBloom.from_bytes(data)
    raise CorruptionError(f"unknown filter magic {magic!r}")
