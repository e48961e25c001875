"""Pluggable point filters for sorted runs.

Every run embeds a serialized filter so point lookups can skip runs
that provably do not hold the key. Historically that filter was always
a :class:`~repro.engine.bloom.BloomFilter`; this module makes the
choice pluggable behind the :class:`PointFilter` protocol:

* ``bloom`` (default) — the paper's configuration: double-hashing
  Bloom filter at ``bloom_bits_per_key`` bits per key.
* ``cuckoo`` — a bucketed cuckoo filter (Fan et al., CoNEXT'14):
  16-bit fingerprints, four slots per bucket, two candidate buckets
  per key via partial-key cuckoo hashing. Same no-false-negative
  guarantee, comparable space at ~1% FPR, and — unlike Bloom —
  supports :meth:`CuckooFilter.remove`, which future merge paths can
  use to age tombstoned keys out of a cached filter instead of
  rebuilding it.

Each filter kind serializes behind a distinct 4-byte magic, and
:func:`load_filter` dispatches on it — so a reader never needs to be
told which filter a run carries, and version-1 files (always Bloom)
load through the same path.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from typing import Callable, Protocol, runtime_checkable

from ..errors import ConfigurationError, CorruptionError
from .bloom import BloomFilter


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
        """Serialize; must start with the kind's registered magic."""


# -- cuckoo filter -----------------------------------------------------

_CUCKOO_HEADER = struct.Struct("<4sQQQ")
_CUCKOO_MAGIC = b"CKF1"
_SLOTS_PER_BUCKET = 4
_FINGERPRINT = struct.Struct("<H")
_MAX_KICKS = 500
#: Knuth multiplicative constant: spreads a fingerprint into an index
#: delta so the partner bucket is ``i ^ spread(fp)`` (partial-key
#: cuckoo hashing — the partner is computable from fp + index alone).
_SPREAD = 0x5BD1E995


def _fingerprint_and_bucket(key: bytes) -> tuple[int, int]:
    digest = hashlib.blake2b(key, digest_size=16).digest()
    h1, h2 = struct.unpack("<QQ", digest)
    fingerprint = (h1 % 0xFFFF) + 1  # 1..65535; 0 marks an empty slot
    return fingerprint, h2


class CuckooFilter:
    """A bucketed cuckoo filter with a deterministic eviction path.

    Displacement order is a function of insertion history alone (no
    randomness), so a filter rebuilt from the same key sequence is
    byte-identical — the property the run format's checksums and the
    crash harness rely on everywhere else.

    Keys that still cannot be placed after the kick budget land in an
    overflow stash that membership checks always consult, preserving
    the no-false-negative guarantee even past the design load factor.
    """

    def __init__(self, expected_keys: int, bits_per_key: int = 10) -> None:
        if expected_keys < 0:
            raise ConfigurationError("expected key count cannot be negative")
        # Four 16-bit slots per bucket at a 0.95 design load factor.
        needed = max(expected_keys, 64) / (_SLOTS_PER_BUCKET * 0.95)
        buckets = 1
        while buckets < needed:
            buckets *= 2
        self._buckets = buckets
        self._table = bytearray(buckets * _SLOTS_PER_BUCKET * 2)
        self._added = 0
        self._kicks = 0
        self._stash: list[int] = []

    @property
    def bucket_count(self) -> int:
        """Number of buckets (always a power of two)."""
        return self._buckets

    @property
    def added(self) -> int:
        """Keys currently held (inserts minus removals)."""
        return self._added

    @property
    def stash_size(self) -> int:
        """Keys parked in the overflow stash."""
        return len(self._stash)

    def _indices(self, key: bytes) -> tuple[int, int, int]:
        fingerprint, h2 = _fingerprint_and_bucket(key)
        mask = self._buckets - 1
        i1 = h2 & mask
        i2 = i1 ^ ((fingerprint * _SPREAD) & mask)
        return fingerprint, i1, i2

    def _slot(self, bucket: int, slot: int) -> int:
        offset = (bucket * _SLOTS_PER_BUCKET + slot) * 2
        return _FINGERPRINT.unpack_from(self._table, offset)[0]

    def _set_slot(self, bucket: int, slot: int, fingerprint: int) -> None:
        offset = (bucket * _SLOTS_PER_BUCKET + slot) * 2
        _FINGERPRINT.pack_into(self._table, offset, fingerprint)

    def _try_insert(self, bucket: int, fingerprint: int) -> bool:
        for slot in range(_SLOTS_PER_BUCKET):
            if self._slot(bucket, slot) == 0:
                self._set_slot(bucket, slot, fingerprint)
                return True
        return False

    def add(self, key: bytes) -> None:
        """Insert a key."""
        fingerprint, i1, i2 = self._indices(key)
        self._added += 1
        if self._try_insert(i1, fingerprint) or self._try_insert(
            i2, fingerprint
        ):
            return
        mask = self._buckets - 1
        bucket = i2 if self._kicks % 2 else i1
        for _ in range(_MAX_KICKS):
            slot = self._kicks % _SLOTS_PER_BUCKET
            self._kicks += 1
            evicted = self._slot(bucket, slot)
            self._set_slot(bucket, slot, fingerprint)
            fingerprint = evicted
            bucket ^= (fingerprint * _SPREAD) & mask
            if self._try_insert(bucket, fingerprint):
                return
        self._stash.append(fingerprint)

    def add_many(self, keys: list[bytes]) -> None:
        """Insert keys in order (displacement depends on that order)."""
        for key in keys:
            self.add(key)

    def might_contain(self, key: bytes) -> bool:
        """False means definitely absent; True means probably present."""
        fingerprint, i1, i2 = self._indices(key)
        for bucket in (i1, i2):
            for slot in range(_SLOTS_PER_BUCKET):
                if self._slot(bucket, slot) == fingerprint:
                    return True
        return fingerprint in self._stash

    def remove(self, key: bytes) -> bool:
        """Delete one copy of a key's fingerprint; True if one was found.

        Only call for keys that were actually added — removing an
        absent key can evict another key's colliding fingerprint (the
        standard cuckoo-filter deletion contract).
        """
        fingerprint, i1, i2 = self._indices(key)
        for bucket in (i1, i2):
            for slot in range(_SLOTS_PER_BUCKET):
                if self._slot(bucket, slot) == fingerprint:
                    self._set_slot(bucket, slot, 0)
                    self._added -= 1
                    return True
        if fingerprint in self._stash:
            self._stash.remove(fingerprint)
            self._added -= 1
            return True
        return False

    def to_bytes(self) -> bytes:
        """Serialize (header + slot table + stash)."""
        header = _CUCKOO_HEADER.pack(
            _CUCKOO_MAGIC, self._buckets, self._added, len(self._stash)
        )
        stash = b"".join(_FINGERPRINT.pack(fp) for fp in self._stash)
        return header + bytes(self._table) + stash

    @classmethod
    def from_bytes(cls, data: bytes) -> "CuckooFilter":
        """Deserialize; raises :class:`CorruptionError` on bad input."""
        if len(data) < _CUCKOO_HEADER.size:
            raise CorruptionError("cuckoo filter blob truncated")
        magic, buckets, added, stash_count = _CUCKOO_HEADER.unpack_from(data)
        if magic != _CUCKOO_MAGIC:
            raise CorruptionError("cuckoo filter magic mismatch")
        if buckets < 1 or buckets & (buckets - 1):
            raise CorruptionError(
                "cuckoo filter header: bucket count not a power of two"
            )
        table_len = buckets * _SLOTS_PER_BUCKET * 2
        body = data[_CUCKOO_HEADER.size:]
        if len(body) != table_len + stash_count * _FINGERPRINT.size:
            raise CorruptionError("cuckoo filter body size mismatch")
        filt = cls.__new__(cls)
        filt._buckets = buckets
        filt._table = bytearray(body[:table_len])
        filt._added = added
        filt._kicks = 0
        filt._stash = [
            _FINGERPRINT.unpack_from(body, table_len + i * 2)[0]
            for i in range(stash_count)
        ]
        return filt


# -- registry ----------------------------------------------------------


@dataclass(frozen=True)
class FilterSpec:
    """One registered filter kind: how to build it and how to load it."""

    kind: str
    magic: bytes
    build: Callable[[int, int], PointFilter] = field(repr=False)
    load: Callable[[bytes], PointFilter] = field(repr=False)


_REGISTRY: dict[str, FilterSpec] = {}


def register_filter(spec: FilterSpec) -> FilterSpec:
    """Add a filter kind; kind name and serialization magic must be new."""
    if len(spec.magic) != 4:
        raise ConfigurationError("filter magic must be exactly 4 bytes")
    if spec.kind in _REGISTRY:
        raise ConfigurationError(
            f"filter kind {spec.kind!r} already registered"
        )
    if any(spec.magic == other.magic for other in _REGISTRY.values()):
        raise ConfigurationError(
            f"filter magic {spec.magic!r} already registered"
        )
    _REGISTRY[spec.kind] = spec
    return spec


def available_filters() -> tuple[str, ...]:
    """Registered filter kind names, registration order."""
    return tuple(_REGISTRY)


def build_filter(
    kind: str, expected_keys: int, bits_per_key: int
) -> PointFilter:
    """Construct an empty filter of the configured kind."""
    try:
        spec = _REGISTRY[kind]
    except KeyError:
        raise ConfigurationError(
            f"unknown filter kind {kind!r}; "
            f"available: {', '.join(_REGISTRY)}"
        ) from None
    return spec.build(expected_keys, bits_per_key)


def filter_kind_of(filt: PointFilter) -> str:
    """The registered kind name of a live filter instance."""
    magic = filt.to_bytes()[:4]
    for spec in _REGISTRY.values():
        if spec.magic == magic:
            return spec.kind
    raise ConfigurationError("filter instance is not a registered kind")


def load_filter(data: bytes) -> PointFilter:
    """Deserialize a filter blob, dispatching on its magic prefix.

    Version-1 run files always carry Bloom blobs, so they resolve here
    with no format bit — the magic *is* the format bit.
    """
    if len(data) < 4:
        raise CorruptionError("filter blob truncated")
    magic = bytes(data[:4])
    for spec in _REGISTRY.values():
        if spec.magic == magic:
            return spec.load(data)
    raise CorruptionError(f"unknown filter magic {magic!r}")


register_filter(
    FilterSpec(
        kind="bloom",
        magic=b"BLM1",
        build=lambda expected_keys, bits_per_key: BloomFilter(
            expected_keys, bits_per_key
        ),
        load=BloomFilter.from_bytes,
    )
)
register_filter(
    FilterSpec(
        kind="cuckoo",
        magic=_CUCKOO_MAGIC,
        build=lambda expected_keys, bits_per_key: CuckooFilter(
            expected_keys, bits_per_key
        ),
        load=CuckooFilter.from_bytes,
    )
)
