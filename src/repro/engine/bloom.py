"""Bloom filters over sorted-run key sets (Section 2.1).

Disk components carry a Bloom filter so point lookups can skip components
that cannot contain the key. The implementation uses the standard
double-hashing scheme (Kirsch & Mitzenmacher): two independent 64-bit
hashes ``h1, h2`` derived from one blake2b digest, probing
``h1 + i * h2`` for ``i in range(k)``. Filters serialize to bytes for
embedding in the sorted-run file format.
"""

from __future__ import annotations

import hashlib
import math
import struct

import numpy as np

from ..errors import ConfigurationError, CorruptionError

_HEADER = struct.Struct("<4sIIQ")
_MAGIC = b"BLM1"
#: Most keys one vectorized build step hashes at a time. A step's
#: scratch arrays hold ``hash_count`` 8-byte probes per key, so this
#: bounds a build's transient memory whatever the run's size (about
#: 110 KiB per array at 7 probes); larger batches measured no faster.
BATCH_KEYS = 2048


def _hash_pair(key: bytes) -> tuple[int, int]:
    digest = hashlib.blake2b(key, digest_size=16).digest()
    h1, h2 = struct.unpack("<QQ", digest)
    return h1, h2 | 1  # odd h2 so probes cycle through all bits


def optimal_hash_count(bits_per_key: float) -> int:
    """The FPR-minimizing number of probes: ``k = ln2 * bits/key``."""
    return max(1, int(round(bits_per_key * math.log(2))))


class BloomFilter:
    """A fixed-size Bloom filter built over a known key count."""

    def __init__(self, expected_keys: int, bits_per_key: int = 10) -> None:
        if expected_keys < 0:
            raise ConfigurationError("expected key count cannot be negative")
        if bits_per_key < 1:
            raise ConfigurationError("need at least one bit per key")
        bits = max(64, expected_keys * bits_per_key)
        self._bits = bits
        self._hashes = optimal_hash_count(bits_per_key)
        self._array = bytearray((bits + 7) // 8)
        self._added = 0

    @property
    def bit_size(self) -> int:
        """Number of filter bits."""
        return self._bits

    @property
    def hash_count(self) -> int:
        """Number of probes per key."""
        return self._hashes

    @property
    def added(self) -> int:
        """Keys inserted so far."""
        return self._added

    def add(self, key: bytes) -> None:
        """Insert a key."""
        h1, h2 = _hash_pair(key)
        for i in range(self._hashes):
            bit = (h1 + i * h2) % self._bits
            self._array[bit >> 3] |= 1 << (bit & 7)
        self._added += 1

    def add_many(self, keys: list[bytes]) -> None:
        """Insert many keys; same bits as calling :meth:`add` on each.

        The probes of a batch are computed in numpy. ``h1 + i * h2``
        can pass 2**64, where fixed-width integers would wrap and
        Python's do not, so both hashes are reduced modulo the bit
        count first: the count fits 32 bits (see the header), hence
        every intermediate stays far below the wrap and the residues —
        the bits set — are the ones :meth:`add` computes.
        """
        bits = np.uint64(self._bits)
        steps = np.arange(self._hashes, dtype=np.uint64)
        array = np.frombuffer(self._array, dtype=np.uint8)
        blake2b = hashlib.blake2b
        for start in range(0, len(keys), BATCH_KEYS):
            digests = b"".join(
                [
                    blake2b(key, digest_size=16).digest()
                    for key in keys[start : start + BATCH_KEYS]
                ]
            )
            pairs = np.frombuffer(digests, dtype="<u8").reshape(-1, 2)
            first = pairs[:, 0] % bits
            stride = (pairs[:, 1] | np.uint64(1)) % bits
            probes = ((first[:, None] + steps * stride[:, None]) % bits).ravel()
            np.bitwise_or.at(
                array,
                probes >> np.uint64(3),
                (1 << (probes & np.uint64(7))).astype(np.uint8),
            )
        self._added += len(keys)

    def might_contain(self, key: bytes) -> bool:
        """False means definitely absent; True means probably present."""
        h1, h2 = _hash_pair(key)
        for i in range(self._hashes):
            bit = (h1 + i * h2) % self._bits
            if not self._array[bit >> 3] & (1 << (bit & 7)):
                return False
        return True

    def expected_false_positive_rate(self) -> float:
        """The analytic FPR given the current fill."""
        if self._added == 0:
            return 0.0
        fill = 1.0 - math.exp(-self._hashes * self._added / self._bits)
        return fill**self._hashes

    def to_bytes(self) -> bytes:
        """Serialize (header + bit array)."""
        header = _HEADER.pack(_MAGIC, self._bits, self._hashes, self._added)
        return header + bytes(self._array)

    @classmethod
    def from_bytes(cls, data: bytes) -> "BloomFilter":
        """Deserialize; raises :class:`CorruptionError` on bad input."""
        if len(data) < _HEADER.size:
            raise CorruptionError("bloom filter blob truncated")
        magic, bits, hashes, added = _HEADER.unpack_from(data)
        if magic != _MAGIC:
            raise CorruptionError("bloom filter magic mismatch")
        # A corrupt header can zero these fields while the size check
        # below still passes (0 bits needs 0 body bytes): bits=0 turns
        # every later probe into a modulo-by-zero crash, hashes=0 into a
        # filter that never excludes anything. Both are corruption, not
        # valid filters — a real writer always emits >= 64 bits and one
        # probe (see ``__init__``).
        if bits < 1:
            raise CorruptionError("bloom filter header: zero bit count")
        if hashes < 1:
            raise CorruptionError("bloom filter header: zero hash count")
        body = data[_HEADER.size:]
        if len(body) != (bits + 7) // 8:
            raise CorruptionError("bloom filter bit array size mismatch")
        filt = cls.__new__(cls)
        filt._bits = bits
        filt._hashes = hashes
        filt._array = bytearray(body)
        filt._added = added
        return filt
