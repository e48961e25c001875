"""Immutable sorted-run files (the engine's disk components).

File layout::

    [data block]* [index block] [filter block] [meta block] [footer]

* **Data blocks** hold length-prefixed key/value entries in key order and
  close at the configured block size (paper: 4 KB, matching the SSD page).
  Each block is framed as ``[codec id u8][logical length u32][payload,
  possibly compressed]`` and ends with a CRC32 of everything before it —
  for compressed blocks the CRC covers the *compressed* bytes, so
  corruption is detected before any decompression is attempted. Codecs
  are resolved through the pluggable registry in
  :mod:`repro.engine.blockcodec`.
* The **index block** maps each data block's first key to its (offset,
  stored length), enabling a single-block read per point lookup.
* The **filter block** is a serialized
  :class:`~repro.engine.bloom.BloomFilter` (magic ``BLM1``).
* The **meta block** is JSON: entry/tombstone counts, key bounds, the
  physical data byte count (what merge accounting bills against the I/O
  budget), the codec name, and the pre-compression (logical) byte count
  for space-amp reporting.
* The fixed-size **footer** locates the three auxiliary blocks and carries
  the format magic ``LSMRUN02``.

There is one format: a reader reads what the writer writes. A footer or
filter in a format no writer has produced for many versions is refused
(:func:`~repro.engine.manifest.legacy_format`), not read as corruption.

Writers stream through the shared :class:`~repro.engine.ratelimiter.RateLimiter`
and issue periodic forces per the :class:`~repro.engine.ratelimiter.SyncPolicy`,
reproducing the paper's two I/O optimizations on the real write path.
"""

from __future__ import annotations

import copy
import json
import os
import struct
import weakref
import zlib
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

from ..errors import ConfigurationError, CorruptionError
from .blockcodec import NONE_CODEC_ID, codec_by_id, get_codec
from .bloom import BloomFilter
from .manifest import legacy_format
from .options import TOMBSTONE
from .ratelimiter import RateLimiter, SyncPolicy
from .wal import fsync_dir, fsync_file

_LEN = struct.Struct("<I")
#: Every data-block entry starts with its key and value lengths.
_ENTRY_HEADER = struct.Struct("<II")
_INDEX_ENTRY = struct.Struct("<QI")
_FOOTER = struct.Struct("<QIQIQI8s")
_MAGIC = b"LSMRUN02"
_TOMBSTONE_LEN = 0xFFFFFFFF
_CRC_LEN = 4
#: Per-block header: codec id, decompressed payload length.
_BLOCK_HEADER = struct.Struct("<BI")

#: File buffer of a run that is written, or read front to back by a
#: merge: one system call per 256 KiB instead of one per 8 KiB. Each
#: call releases the interpreter lock, and a maintenance thread that
#: gives it up beside a busy foreground thread waits up to a switch
#: interval (5 ms) to get it back — with the default buffer those waits,
#: not the merge's own work, were most of a merge's wall time.
SEQUENTIAL_IO_BYTES = 1 << 18

#: Fewest keys a writer sizes its Bloom filter for, however few it holds.
MIN_FILTER_KEYS = 1024


@dataclass(frozen=True)
class RunStats:
    """Summary of a finished sorted run.

    ``data_bytes`` is physical (post-codec, as stored on disk);
    ``logical_bytes`` is the pre-compression entry payload size — the
    two together are the run's space-amplification numerator and
    denominator.
    """

    path: str
    entry_count: int
    tombstone_count: int
    data_bytes: int
    file_bytes: int
    min_key: bytes
    max_key: bytes
    logical_bytes: int = 0
    codec: str = "none"


def _crc(payload: bytes) -> bytes:
    return _LEN.pack(zlib.crc32(payload) & 0xFFFFFFFF)


def _check_crc(blob: bytes, context: str) -> bytes:
    if len(blob) < _CRC_LEN:
        raise CorruptionError(f"{context}: block truncated")
    payload, crc = blob[:-_CRC_LEN], blob[-_CRC_LEN:]
    if _crc(payload) != crc:
        raise CorruptionError(f"{context}: checksum mismatch")
    return payload


class DataBlock(NamedTuple):
    """One data block as a merge or a scrub reads it: keys walked,
    values left in place.

    ``stored`` is the block exactly as the file holds it, CRC trailer
    included — what a verbatim copy appends. ``codec_id`` is the id in
    its header.
    ``payload`` is the decoded entry bytes: entry ``i`` occupies
    ``payload[ends[i - 1]:ends[i]]`` (from 0 for the first), and
    ``tombstones`` holds the positions of the deleted keys.
    """

    stored: bytes
    codec_id: int
    payload: bytes
    keys: list[bytes]
    ends: list[int]
    tombstones: list[int]


def _walk_block(
    payload: bytes, stop_at: bytes | None = None
) -> tuple[list[bytes], list[int], list[int]]:
    """Keys-first walk of a block's entry payload; slices no value.

    Returns ``(keys, ends, tombstones)`` as :class:`DataBlock` holds
    them. With ``stop_at`` the walk ends at the first key that is not
    below it — a point lookup needs nothing beyond that entry.
    """
    keys: list[bytes] = []
    ends: list[int] = []
    tombstones: list[int] = []
    unpack = _ENTRY_HEADER.unpack_from
    size = len(payload)
    pos = 0
    while pos < size:
        if pos + 8 > size:
            raise CorruptionError("data block entry header truncated")
        key_len, val_len = unpack(payload, pos)
        end = pos + 8 + key_len
        # A declared length that overruns the payload is corruption;
        # Python slicing would silently hand back the short remainder.
        if end > size:
            raise CorruptionError("data block entry key truncated")
        key = payload[pos + 8 : end]
        if val_len == _TOMBSTONE_LEN:
            tombstones.append(len(keys))
        else:
            end += val_len
            if end > size:
                raise CorruptionError("data block entry value truncated")
        keys.append(key)
        ends.append(end)
        if stop_at is not None and key >= stop_at:
            break
        pos = end
    return keys, ends, tombstones


def _decode_block(payload: bytes) -> list[tuple[bytes, bytes | None]]:
    keys, ends, tombstones = _walk_block(payload)
    entries = [
        (key, payload[start + 8 + len(key) : end])
        for key, start, end in zip(keys, [0, *ends], ends)
    ]
    for position in tombstones:
        entries[position] = (keys[position], TOMBSTONE)
    return entries


def _closed_when_full(ends: list[int], block_bytes: int) -> bool:
    """Whether a block whose entries end at ``ends`` is what a writer at
    ``block_bytes`` makes of them: closed by the entry that filled it,
    not earlier (a short tail) and not later (a larger block size).
    """
    return ends[-1] >= block_bytes and (
        len(ends) == 1 or ends[-2] < block_bytes
    )


class SSTableWriter:
    """Streams sorted key/value (or tombstone) entries into a run file.

    Entries arrive one at a time (:meth:`add`), as an iterable
    (:meth:`add_many`, what a memtable flush feeds), or block-wise from
    a merge's inputs: :meth:`add_entries` moves a range of a decoded
    block's entries as encoded bytes, and :meth:`add_block` appends a
    whole input block verbatim when it is what this writer would have
    produced anyway.
    """

    def __init__(
        self,
        path: str,
        block_bytes: int = 4096,
        bloom_bits_per_key: int = 10,
        expected_keys: int = 0,
        rate_limiter: RateLimiter | None = None,
        sync_policy: SyncPolicy | None = None,
        fault_plan=None,
        block_codec: str = "none",
    ) -> None:
        if block_bytes < 128:
            raise ConfigurationError("block size too small")
        self._path = path
        self._block_bytes = block_bytes
        self._codec = get_codec(block_codec)
        self._filter = BloomFilter(
            max(expected_keys, MIN_FILTER_KEYS), bloom_bits_per_key
        )
        # Every argument is validated by now: a rejected configuration
        # must not leave an open handle or an empty run file behind.
        self._file = open(path, "wb", buffering=SEQUENTIAL_IO_BYTES)
        if fault_plan is not None:
            self._file = fault_plan.wrap(self._file, "sstable")
        self._rate = rate_limiter or RateLimiter(0)
        self._sync = sync_policy or SyncPolicy(0)
        #: Keys written but not yet in the filter; handed over
        #: ``feed_keys`` at a time, since each hand-over costs O(bits).
        self._filter_keys: list[bytes] = []
        self._block = bytearray()
        self._block_first_key: bytes | None = None
        self._index: list[tuple[bytes, int, int]] = []
        self._offset = 0
        self._entries = 0
        self._tombstones = 0
        self._logical_bytes = 0
        self._last_key: bytes | None = None
        self._min_key: bytes | None = None
        self._finished = False
        self._published = False

    def _write_raw(self, payload: bytes) -> None:
        self._rate.acquire(len(payload))
        self._file.write(payload)
        self._offset += len(payload)
        if self._sync.note_write(len(payload)):
            fsync_file(self._file)

    def _flush_block(self) -> None:
        if not self._block:
            return
        payload = bytes(self._block)
        self._logical_bytes += len(payload)
        stored = self._codec.compress(payload)
        codec_id = self._codec.codec_id
        if len(stored) >= len(payload):
            # Incompressible block: store raw under the none codec;
            # the per-block header, not the run default, is
            # authoritative on read.
            stored = payload
            codec_id = NONE_CODEC_ID
        record = _BLOCK_HEADER.pack(codec_id, len(payload)) + stored
        start = self._offset
        self._write_raw(record + _crc(record))
        self._index.append(
            (self._block_first_key, start, len(record) + _CRC_LEN)
        )
        self._block.clear()
        self._feed_filter(self._filter.feed_keys)

    def _feed_filter(self, at_least: int) -> None:
        """Hand the pending keys to the filter once ``at_least`` wait."""
        if len(self._filter_keys) >= at_least:
            self._filter.add_many(self._filter_keys)
            self._filter_keys.clear()

    def _begin(self, first_key: bytes) -> None:
        """Checks ahead of an append whose smallest key is given."""
        if self._finished:
            raise ConfigurationError("writer already finished")
        if self._last_key is None:
            self._min_key = first_key
        elif first_key <= self._last_key:
            raise ConfigurationError(
                f"keys out of order: {first_key!r} after {self._last_key!r}"
            )

    def add(self, key: bytes, value: bytes | None) -> None:
        """Append one entry; keys must arrive in strictly ascending order."""
        self.add_many(((key, value),))

    def add_many(
        self, items: Iterable[tuple[bytes, bytes | None]]
    ) -> None:
        """Append entries in strictly ascending key order."""
        if self._finished:
            raise ConfigurationError("writer already finished")
        block = self._block
        block_bytes = self._block_bytes
        pack = _ENTRY_HEADER.pack
        note_key = self._filter_keys.append
        last_key = self._last_key
        for key, value in items:
            if last_key is None or key <= last_key:
                self._begin(key)
            last_key = self._last_key = key
            if not block:
                self._block_first_key = key
            if value is TOMBSTONE:
                block += pack(len(key), _TOMBSTONE_LEN) + key
                self._tombstones += 1
            else:
                block += pack(len(key), len(value)) + key + value
            note_key(key)
            self._entries += 1
            if len(block) >= block_bytes:
                self._flush_block()

    def add_entries(self, source: DataBlock, lo: int, hi: int) -> None:
        """Append entries ``lo:hi`` of a decoded input block.

        The entries' encoding does not depend on the block's codec, so
        the range moves as encoded bytes — one slice per output block it
        touches — and closes output blocks exactly where :meth:`add`
        would have.
        """
        if lo >= hi:
            return
        keys, ends, payload = source.keys, source.ends, source.payload
        self._begin(keys[lo])
        self._last_key = keys[hi - 1]
        self._filter_keys += keys[lo:hi]
        self._entries += hi - lo
        if source.tombstones:
            self._tombstones += sum(
                lo <= position < hi for position in source.tombstones
            )
        block = self._block
        start = ends[lo - 1] if lo else 0
        while lo < hi:
            if not block:
                self._block_first_key = keys[lo]
            # The entry whose end fills the output block closes it.
            room = self._block_bytes - len(block)
            closing = bisect_left(ends, start + room, lo, hi)
            if closing == hi:
                block += payload[start : ends[hi - 1]]
                break
            block += payload[start : ends[closing]]
            start = ends[closing]
            lo = closing + 1
            self._flush_block()

    def add_block(self, source: DataBlock) -> bool:
        """Append a whole decoded input block; True if copied verbatim.

        The stored bytes go out untouched — no recompression, no new
        CRC — when they are what this writer would emit for these
        entries anyway: a current-format block under this writer's
        codec id that closed because it filled, at this writer's block
        size. Anything else is re-packed through :meth:`add_entries`:
        blocks under another codec id (including raw fallbacks under a
        compressing writer, which deserve another attempt), and short
        blocks — a run's tail, or a
        block closed early ahead of an earlier copy — so that they can
        coalesce with their neighbours instead of persisting through
        every later merge.
        """
        keys = source.keys
        if source.codec_id != self._codec.codec_id or not _closed_when_full(
            source.ends, self._block_bytes
        ):
            self.add_entries(source, 0, len(keys))
            return False
        self._begin(keys[0])
        # Close the partial output block first: the copy must start on
        # a block boundary of its own.
        self._flush_block()
        self._index.append((keys[0], self._offset, len(source.stored)))
        self._write_raw(source.stored)
        self._logical_bytes += len(source.payload)
        self._last_key = keys[-1]
        self._entries += len(keys)
        self._tombstones += len(source.tombstones)
        self._filter_keys += keys
        self._feed_filter(self._filter.feed_keys)
        return True

    def finish(self) -> RunStats:
        """Flush everything, write the footer, fsync, close, and fsync
        the directory: a manifest edit may name the file from here."""
        if self._finished:
            raise ConfigurationError("writer already finished")
        self._finished = True
        self._flush_block()
        self._feed_filter(1)
        data_bytes = self._offset

        index_payload = bytearray()
        for first_key, offset, length in self._index:
            index_payload += _LEN.pack(len(first_key)) + first_key
            index_payload += _INDEX_ENTRY.pack(offset, length)
        index_off = self._offset
        self._write_raw(bytes(index_payload) + _crc(bytes(index_payload)))
        index_len = self._offset - index_off

        filter_payload = self._filter.to_bytes()
        filter_off = self._offset
        self._write_raw(filter_payload + _crc(filter_payload))
        filter_len = self._offset - filter_off

        meta = {
            "entries": self._entries,
            "tombstones": self._tombstones,
            "data_bytes": data_bytes,
            "min_key": (self._min_key or b"").hex(),
            "max_key": (self._last_key or b"").hex(),
            "codec": self._codec.name,
            "logical_bytes": self._logical_bytes,
        }
        meta_payload = json.dumps(meta).encode("utf-8")
        meta_off = self._offset
        self._write_raw(meta_payload + _crc(meta_payload))
        meta_len = self._offset - meta_off

        # The footer too is rate-limited and counted by the sync policy.
        self._write_raw(
            _FOOTER.pack(
                index_off, index_len, filter_off, filter_len,
                meta_off, meta_len, _MAGIC,
            )
        )
        fsync_file(self._file)
        self._file.close()
        fsync_dir(os.path.dirname(self._path))
        self._published = True
        return RunStats(
            path=self._path,
            entry_count=self._entries,
            tombstone_count=self._tombstones,
            data_bytes=data_bytes,
            file_bytes=os.path.getsize(self._path),
            min_key=self._min_key or b"",
            max_key=self._last_key or b"",
            logical_bytes=self._logical_bytes,
            codec=self._codec.name,
        )

    def abandon(self) -> None:
        """Close and delete a partially written run (merge aborted).

        A no-op once :meth:`finish` has completed: the file is a
        published run by then, and deleting it out from under the
        manifest would take live data with it.
        """
        if self._published:
            return
        if not self._file.closed:
            self._file.close()
        if os.path.exists(self._path):
            os.remove(self._path)


def _decode_stored_block(record: bytes, context: str) -> bytes:
    """CRC-stripped stored block -> logical (decompressed) entry payload.

    The caller has already verified the CRC, which covers the stored
    (compressed) bytes — so a failure past this point means the header
    or the codec stream itself is inconsistent, which is corruption the
    CRC could not see only if it was written that way.
    """
    if len(record) < _BLOCK_HEADER.size:
        raise CorruptionError(f"{context}: block header truncated")
    codec_id, logical_len = _BLOCK_HEADER.unpack_from(record)
    stored = record[_BLOCK_HEADER.size:]
    try:
        codec = codec_by_id(codec_id)
        payload = codec.decompress(stored)
    except CorruptionError as exc:
        raise CorruptionError(f"{context}: {exc}") from None
    except Exception as exc:
        raise CorruptionError(
            f"{context}: block decompression failed ({exc})"
        ) from None
    if len(payload) != logical_len:
        raise CorruptionError(
            f"{context}: decompressed length {len(payload)} != "
            f"declared {logical_len}"
        )
    return payload


def _no_count() -> None:
    """A reader's block count outside a store: none."""


class SSTableReader:
    """Random and sequential access to one sorted-run file.

    The index, filter and meta blocks are held in memory; every data
    block is read from the file when it is needed, and checksum-verified
    before it is decoded. Each block a query reads (:meth:`get`,
    :meth:`walk_block`, :meth:`items`) calls ``count_block_read`` — in
    a store, :meth:`BlockCache.count_block_read`: those block lookups
    are what read amplification counts.

    Reads are ``os.pread`` calls on one descriptor, so concurrent
    readers share no file offset and need no lock. The descriptor is
    closed by :meth:`close` or, failing that, once nothing refers to the
    reader: the store never closes a live run's reader, it lets go, so a
    read that still holds the run keeps reading the file it opened.
    """

    def __init__(self, path: str, count_block_read=_no_count) -> None:
        self.path = path
        self._count_block_read = count_block_read
        self._fd = os.open(path, os.O_RDONLY)
        #: A sequential handle's own buffered file (None: pread).
        self._file = None
        self._closed = False
        self._release = weakref.finalize(self, os.close, self._fd)
        try:
            self._load()
        except BaseException:
            self.close()
            raise

    def _load(self) -> None:
        """Parse and verify the footer, index, filter and meta blocks."""
        path = self.path
        #: The file's size, as its descriptor sees it.
        self.file_bytes = size = os.fstat(self._fd).st_size
        if size < _FOOTER.size:
            raise CorruptionError(f"{path}: file smaller than footer")
        footer = self.read_at(size - _FOOTER.size, _FOOTER.size)
        (index_off, index_len, filter_off, filter_len, meta_off, meta_len,
         magic) = _FOOTER.unpack(footer)
        if magic == b"LSMRUN01":
            raise legacy_format("LSMRUN01 run file", path)
        if magic != _MAGIC:
            raise CorruptionError(f"{path}: bad magic {magic!r}")
        index_payload = _check_crc(
            self.read_at(index_off, index_len),
            f"{path}: index block at offset {index_off} ({index_len} bytes)",
        )
        #: The block index, one list per column.
        self._first_keys: list[bytes] = []
        self._offsets: list[int] = []
        self._lengths: list[int] = []
        pos = 0
        while pos < len(index_payload):
            key_len = _LEN.unpack_from(index_payload, pos)[0]
            pos += 4
            self._first_keys.append(index_payload[pos : pos + key_len])
            pos += key_len
            offset, length = _INDEX_ENTRY.unpack_from(index_payload, pos)
            pos += _INDEX_ENTRY.size
            self._offsets.append(offset)
            self._lengths.append(length)
        filter_blob = _check_crc(
            self.read_at(filter_off, filter_len),
            f"{path}: filter block at offset {filter_off} "
            f"({filter_len} bytes)",
        )
        if filter_blob[:4] == b"BLP1":
            raise legacy_format("BLP1 filter", path)
        self._filter = BloomFilter.from_bytes(filter_blob)
        meta = json.loads(
            _check_crc(
                self.read_at(meta_off, meta_len),
                f"{path}: meta block at offset {meta_off} "
                f"({meta_len} bytes)",
            ).decode("utf-8")
        )
        #: The meta block: entries (tombstones included), tombstones,
        #: physical data-block bytes as stored (the merge-costing size,
        #: post-codec), pre-compression payload bytes (the space-amp
        #: denominator), the run-level default codec and the key bounds.
        self.entry_count = int(meta["entries"])
        self.tombstone_count = int(meta["tombstones"])
        self.data_bytes = int(meta["data_bytes"])
        self.logical_bytes = int(meta["logical_bytes"])
        self.codec = str(meta["codec"])
        self.min_key = bytes.fromhex(meta["min_key"])
        self.max_key = bytes.fromhex(meta["max_key"])

    def sequential_handle(self) -> SSTableReader:
        """A reader of the same run for one front-to-back walk (a
        merge's): a buffered file over a dup of this reader's descriptor
        (whose offset no ``pread`` moves), read in
        :data:`SEQUENTIAL_IO_BYTES` units. The index, filter and meta
        parsed and verified at open are shared, not read again: they are
        immutable, as the run is."""
        handle = copy.copy(self)
        handle._file = os.fdopen(
            os.dup(self._fd), "rb", buffering=SEQUENTIAL_IO_BYTES
        )
        handle._release = handle._file.close
        return handle

    def reopened(self) -> SSTableReader:
        """This file parsed afresh through the same descriptor: the
        footer, index, filter and meta blocks read from disk again and
        checked by the code an open runs (:class:`CorruptionError` if
        one fails) — what a scrub pass walks. It holds this reader, so
        the descriptor stays open while it lives."""
        fresh = copy.copy(self)
        fresh._pinned = self
        fresh._release = lambda: None  # the descriptor is this reader's
        fresh._load()
        return fresh

    # -- metadata ------------------------------------------------------

    @property
    def point_filter(self) -> BloomFilter:
        """The run's point filter as parsed at open (immutable, shared
        with every :meth:`sequential_handle`)."""
        return self._filter

    # -- access --------------------------------------------------------

    def read_at(self, offset: int, length: int) -> bytes:
        """``length`` bytes at ``offset`` as the file holds them: what a
        reset ships and a checkpoint copies of a live run."""
        if self._file is None:
            blob = os.pread(self._fd, length, offset)
        else:
            self._file.seek(offset)
            blob = self._file.read(length)
        if len(blob) != length:
            raise CorruptionError(f"{self.path}: short read")
        return blob

    def _read_block(self, block_idx: int, count=_no_count):
        """One data block, counted by ``count`` once the reader is known
        open, as ``(stored, payload)``: the bytes as held, and the entries
        decoded once their checksum holds, so a :class:`CorruptionError`
        — naming the file path, offset and length — reflects the disk."""
        if self._closed:
            raise ConfigurationError("reader is closed")
        count()
        offset, length = self._offsets[block_idx], self._lengths[block_idx]
        context = (
            f"{self.path}: data block at offset {offset} ({length} bytes)"
        )
        stored = self.read_at(offset, length)
        record = _check_crc(stored, context)
        return stored, _decode_stored_block(record, context)

    def _query_block(self, block_idx: int) -> bytes:
        """A data block's payload for a query: one counted block lookup."""
        return self._read_block(block_idx, self._count_block_read)[1]

    @property
    def block_count(self) -> int:
        return len(self._offsets)

    def block_span(self, block_idx: int) -> tuple[int, int]:
        """``(offset, length)`` of one data block: what a scrub pass
        bills against the rate limiter before it reads the block."""
        return self._offsets[block_idx], self._lengths[block_idx]

    def read_data_block(self, block_idx: int) -> DataBlock:
        """Read, checksum-verify and walk one data block: the block read
        a merge and a scrub pass share, not counted as a query's lookup.
        Values stay in the payload until somebody moves them."""
        stored, payload = self._read_block(block_idx)
        return DataBlock(stored, stored[0], payload, *_walk_block(payload))

    def _block_for(self, key: bytes) -> int:
        return bisect_right(self._first_keys, key) - 1

    def seek_block(self, key: bytes | None) -> int:
        """The block an ordered read from ``key`` on starts in: the one
        whose first key is the last at or below it, block 0 for a key
        below the run (or None)."""
        return 0 if key is None else max(self._block_for(key), 0)

    def first_key(self, block_idx: int) -> bytes:
        """A data block's first key, from the index: what a scan learns
        about a block without reading it."""
        return self._first_keys[block_idx]

    def walk_block(
        self, block_idx: int
    ) -> tuple[bytes, list[bytes], list[int], list[int]]:
        """One data block as a query reads it: ``(payload, keys, ends,
        tombstones)``, laid out as in :class:`DataBlock`.

        The query-side twin of :meth:`read_data_block`: one counted
        block lookup, keys walked and no value sliced.
        """
        payload = self._query_block(block_idx)
        return (payload, *_walk_block(payload))

    def might_contain(self, key: bytes) -> bool:
        """Key-bounds then point-filter check (False = definitely absent).
        The bounds go first: an order of magnitude cheaper than hashing
        the key, they dismiss most runs of a range-partitioned store."""
        if not self._offsets or key < self.min_key or key > self.max_key:
            return False
        return self._filter.might_contain(key)

    def get(self, key: bytes) -> tuple[bool, bytes | None]:
        """Point lookup: ``(found, value)``; found tombstone = (True, None).

        Reads the one block that could hold ``key``, if in bounds. The
        point filter is not asked: a caller that would skip the read of
        an absent key asks :meth:`might_contain` first (the store's
        probe does), so the key is hashed once per run, not twice."""
        if self._closed:
            raise ConfigurationError("reader is closed")
        block_idx = self._block_for(key)
        if block_idx < 0 or key > self.max_key:
            return False, None
        payload = self._query_block(block_idx)
        keys, ends, tombstones = _walk_block(payload, stop_at=key)
        if not keys or keys[-1] != key:
            return False, None
        last = len(keys) - 1
        if tombstones and tombstones[-1] == last:
            return True, TOMBSTONE
        start = ends[last - 1] if last else 0
        return True, payload[start + 8 + len(key) : ends[last]]

    def items(
        self, lo: bytes | None = None, hi: bytes | None = None
    ) -> Iterator[tuple[bytes, bytes | None]]:
        """Ordered iteration over ``[lo, hi)``, tombstones included."""
        if self._closed:
            raise ConfigurationError("reader is closed")
        for block_idx in range(self.seek_block(lo), len(self._offsets)):
            payload = self._query_block(block_idx)
            for key, value in _decode_block(payload):
                if lo is not None and key < lo:
                    continue
                if hi is not None and key >= hi:
                    return
                yield key, value

    def close(self) -> None:
        """Release the file handle now (idempotent)."""
        self._closed = True
        self._release()
