"""Bloom filters over sorted-run key sets (Section 2.1).

Disk components carry a Bloom filter so point lookups can skip components
that cannot contain the key. The implementation uses the standard
double-hashing scheme (Kirsch & Mitzenmacher): two independent 64-bit
hashes ``h1, h2`` derived from one blake2b digest, probing
``h1 + i * h2`` for ``i in range(k)``. Filters serialize to bytes
behind the magic ``BLM1`` for embedding in the sorted-run file format.
"""

from __future__ import annotations

import hashlib
import math
import struct

from ..errors import ConfigurationError, CorruptionError

_HEADER = struct.Struct("<4sIIQ")
_MAGIC = b"BLM1"
#: Most keys one step of :meth:`BloomFilter.add_many` hashes at a time:
#: its digests and lanes cost tens of bytes per key, so this bounds
#: them whatever the run's size; larger batches measured no faster.
BATCH_KEYS = 2048
#: Probes and strides stay below ``2**32`` (the header's bit count),
#: their sum below ``2**33``: bit 40 of ``lane + 2**40 - bits`` says
#: whether a 64-bit lane reached ``bits``, and no carry leaves a lane.
_CARRY_BIT = 40


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

    @property
    def feed_keys(self) -> int:
        """Keys worth one :meth:`add_many` call: a call costs O(bits)
        on top of its keys, so a writer buffers one key per 64 bits
        (at least :data:`BATCH_KEYS`) between calls."""
        return max(BATCH_KEYS, self._bits // 64)

    def add(self, key: bytes) -> None:
        """Insert a key."""
        h1, h2 = _hash_pair(key)
        for i in range(self._hashes):
            bit = (h1 + i * h2) % self._bits
            self._array[bit >> 3] |= 1 << (bit & 7)
        self._added += 1

    def add_many(self, keys: list[bytes]) -> None:
        """Insert many keys; same bits as calling :meth:`add` on each.

        A batch's probes are lanes of one integer, 64 bits per key,
        little-endian: ``h1 % bits`` to start; each further probe adds
        ``(h2 | 1) % bits`` lane-wise and subtracts ``bits`` from the
        lanes that reached it, so every residue is the one :meth:`add`
        computes. Probes are marked in a scratch of one ASCII digit per
        filter bit, read as one base-2 integer and ORed into the bit
        array once per call.
        """
        bits = self._bits
        blake2b = hashlib.blake2b
        marks = bytearray(b"0") * bits
        for start in range(0, len(keys), BATCH_KEYS):
            batch = keys[start : start + BATCH_KEYS]
            lanes = struct.Struct(f"<{len(batch)}Q")
            words = struct.unpack(
                f"<{2 * len(batch)}Q",
                b"".join([blake2b(k, digest_size=16).digest() for k in batch]),
            )
            probe, stride, ones = (
                int.from_bytes(lanes.pack(*column), "little")
                for column in (
                    [h % bits for h in words[0::2]],
                    [(h | 1) % bits for h in words[1::2]],
                    [1] * len(batch),
                )
            )
            bias = ones * ((1 << _CARRY_BIT) - bits)
            for step in range(self._hashes):
                if step:
                    probe += stride
                    probe -= ((probe + bias) >> _CARRY_BIT & ones) * bits
                for bit in lanes.unpack(probe.to_bytes(lanes.size, "little")):
                    marks[bit] = 49  # b"1"
        marks.reverse()  # int() reads the most significant digit first
        merged = int(marks, 2) | int.from_bytes(self._array, "little")
        self._array[:] = merged.to_bytes(len(self._array), "little")
        self._added += len(keys)

    def might_contain(self, key: bytes) -> bool:
        """False means definitely absent; True means probably present."""
        h1, h2 = _hash_pair(key)
        for i in range(self._hashes):
            bit = (h1 + i * h2) % self._bits
            if not self._array[bit >> 3] & (1 << (bit & 7)):
                return False
        return True

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

