"""Write-ahead log: durability for the memory components.

Records are length-prefixed, CRC-protected frames, each carrying one
commit batch of operations (put or delete). Replay stops cleanly at the
first torn or corrupt frame — a crash mid-append must not poison the
recovered prefix. The paper logs to a separate spindle; here the WAL path
is simply a separate file, and fsync behaviour is the caller's choice
(``sync=True`` per batch for durability, or buffered for speed).
"""

from __future__ import annotations

import io
import os
import struct
import zlib
from dataclasses import dataclass
from typing import Iterator

from ..errors import ConfigurationError, CorruptionError, WalFailedError
from .options import TOMBSTONE

_FRAME_HEADER = struct.Struct("<II")  # payload length, crc32
_OP = struct.Struct("<BII")  # opcode, key length, value length
_OP_PUT = 1
_OP_DELETE = 2
_FRAME_HEADER_ROOM = bytes(_FRAME_HEADER.size)


@dataclass(frozen=True)
class WalScan:
    """Why (and where) a WAL replay stops.

    ``replay`` silently yields the intact prefix; this companion makes
    the stop *observable*: ``state`` is ``"clean"`` (every byte parsed),
    ``"torn"`` (a partial frame at the tail — the expected crash shape),
    or ``"corrupt"`` (a CRC or decode failure with more bytes after it —
    an interior frame was damaged and ``remaining_bytes`` of log after
    ``valid_bytes`` are unrecoverable). Integrity audits report the
    corrupt case as a problem; a torn tail is normal crash residue.
    """

    state: str
    frames: int
    valid_bytes: int
    total_bytes: int

    @property
    def remaining_bytes(self) -> int:
        """Bytes after the last intact frame that replay cannot reach."""
        return self.total_bytes - self.valid_bytes


def _walk_frames(log, position: int, total: int):
    """Walk frames from ``position``: the one shared parser.

    Yields ``("frame", start, end, ops)`` for every intact frame, then
    exactly one terminator ``(state, pos, pos, None)`` where ``state``
    is ``"clean"`` (every byte parsed), ``"torn"`` (partial or damaged
    *final* frame — normal crash residue), or ``"corrupt"`` (a CRC or
    decode failure with more log after it). :func:`scan_wal`,
    :meth:`WriteAheadLog.stream_frames` and
    :meth:`WriteAheadLog.decode_span` all consume this walker, so a
    frame classifies identically in a file and in a shipped span.
    """
    while True:
        header = log.read(_FRAME_HEADER.size)
        if len(header) < _FRAME_HEADER.size:
            yield ("clean" if not header else "torn"), position, position, None
            return
        length, crc = _FRAME_HEADER.unpack(header)
        payload = log.read(length)
        if len(payload) < length:
            yield "torn", position, position, None
            return
        ops = None
        if zlib.crc32(payload) & 0xFFFFFFFF == crc:
            ops = _decode_ops(payload)
        if ops is None:
            # A bad *last* frame is indistinguishable from a torn
            # append racing a crash; only damage followed by more
            # log proves an interior frame rotted.
            frame_end = position + _FRAME_HEADER.size + length
            state = "corrupt" if frame_end < total else "torn"
            yield state, position, position, None
            return
        end = position + _FRAME_HEADER.size + length
        yield "frame", position, end, ops
        position = end


def scan_wal(path: str) -> WalScan:
    """Classify a WAL file's replayable prefix (see :class:`WalScan`)."""
    if not os.path.exists(path):
        return WalScan(state="clean", frames=0, valid_bytes=0, total_bytes=0)
    total = os.path.getsize(path)
    frames = 0
    position = 0
    state = "clean"
    with open(path, "rb") as log:
        for kind, _start, end, _ops in _walk_frames(log, 0, total):
            if kind == "frame":
                frames += 1
                position = end
            else:
                state = kind
    return WalScan(
        state=state, frames=frames, valid_bytes=position, total_bytes=total
    )


def fsync_file(file) -> None:
    """Flush and fsync ``file``, honouring fault-injection wrappers.

    A :class:`~repro.faults.FaultyFile` exposes its own ``fsync`` so the
    fault plan can observe (and fail) the sync; plain files fall back to
    ``os.fsync`` on the descriptor.
    """
    sync = getattr(file, "fsync", None)
    if callable(sync):
        sync()
        return
    file.flush()
    os.fsync(file.fileno())


def fsync_dir(directory: str) -> None:
    """fsync a directory so file creations/renames inside it are durable.

    POSIX only makes a new directory entry durable once the *directory*
    is synced; without this, a freshly created (or truncated-and-
    recreated) WAL can vanish wholesale on power loss. Platforms that
    cannot open directories simply skip the sync.
    """
    try:
        fd = os.open(directory or ".", os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


class WriteAheadLog:
    """Append-only redo log of commit batches."""

    def __init__(
        self, path: str, sync: bool = False, fault_plan=None
    ) -> None:
        self._path = path
        self._sync = sync
        self._fault_plan = fault_plan
        self._failed = False
        existed = os.path.exists(path)
        self._file = self._wrap(open(path, "ab"))
        self._bytes = os.path.getsize(path)
        if not existed:
            fsync_dir(os.path.dirname(path))

    def _wrap(self, file):
        if self._fault_plan is None:
            return file
        return self._fault_plan.wrap(file, "wal")

    @property
    def path(self) -> str:
        """Backing file path."""
        return self._path

    @property
    def size_bytes(self) -> int:
        """Current log size."""
        return self._bytes

    @staticmethod
    def encode_frame(batch: list[tuple[bytes, bytes | None]]) -> bytearray:
        """Encode one commit batch as a self-delimiting CRC frame.

        The frame is assembled by one ``join`` — behind room for the
        header, which is filled in once the payload's CRC is known — so
        a record's bytes are copied once on their way to the log.
        """
        if not batch:
            raise ConfigurationError("empty commit batch")
        pack = _OP.pack
        parts = [_FRAME_HEADER_ROOM]
        for key, value in batch:
            if value is TOMBSTONE:
                parts += (pack(_OP_DELETE, len(key), 0), key)
            else:
                parts += (pack(_OP_PUT, len(key), len(value)), key, value)
        frame = bytearray().join(parts)
        with memoryview(frame) as view:
            crc = zlib.crc32(view[_FRAME_HEADER.size :])
        _FRAME_HEADER.pack_into(
            frame, 0, len(frame) - _FRAME_HEADER.size, crc
        )
        return frame

    @staticmethod
    def frame_bytes(batch: list[tuple[bytes, bytes | None]]) -> int:
        """Size of the frame :meth:`encode_frame` makes of ``batch``."""
        return _FRAME_HEADER.size + sum(
            _OP.size + len(key) + (0 if value is TOMBSTONE else len(value))
            for key, value in batch
        )

    def _check_usable(self) -> None:
        if self._failed:
            raise WalFailedError(
                f"write-ahead log {self._path!r} is failed closed after an "
                "unrecoverable append error"
            )

    def _restore_cursor(self) -> None:
        """Drop any partially appended bytes after a failed write/fsync.

        The cursor (``self._bytes``) is only advanced once the whole
        append succeeded, so on error the physical file may hold torn or
        even complete-but-unsynced frames past it. Nothing beyond the
        cursor was acked or applied, so truncating back to it keeps the
        log and the cursor agreeing. If even that fails, the log fails
        closed rather than hand out offsets that lie.
        """
        try:
            try:
                self._file.flush()
            except OSError:
                pass
            os.ftruncate(self._file.fileno(), self._bytes)
        except OSError:
            self._failed = True

    def append(
        self, batch: list[tuple[bytes, bytes | None]]
    ) -> tuple[int, int]:
        """Durably record one commit batch of (key, value-or-None) ops.

        Returns the ``(offset, length)`` of the appended frame so callers
        (replication shipping, incremental tooling) can address it later
        via :meth:`replay_from` or :meth:`stream_frames`.
        """
        self._check_usable()
        frame = self.encode_frame(batch)
        try:
            self._file.write(frame)
            self._file.flush()
            if self._sync:
                fsync_file(self._file)
        except Exception:
            self._restore_cursor()
            raise
        offset = self._bytes
        length = len(frame)
        self._bytes = offset + length
        return offset, length

    def append_group(
        self, batches: list[list[tuple[bytes, bytes | None]]]
    ) -> list[tuple[int, int]]:
        """Append several batches as consecutive frames in one write.

        Each batch keeps its own frame (so per-batch offsets stay
        addressable for replication cursors), but the group lands with a
        single ``write``+``flush`` and **no** fsync — the group-commit
        leader syncs once for the whole group via :meth:`sync`. Returns
        one ``(offset, length)`` per batch, in order.
        """
        self._check_usable()
        frames = [self.encode_frame(batch) for batch in batches]
        try:
            self._file.write(b"".join(frames))
            self._file.flush()
        except Exception:
            self._restore_cursor()
            raise
        spans: list[tuple[int, int]] = []
        offset = self._bytes
        for frame in frames:
            spans.append((offset, len(frame)))
            offset += len(frame)
        self._bytes = offset
        return spans

    def sync(self) -> None:
        """fsync everything appended so far (group-commit leader sync)."""
        self._check_usable()
        fsync_file(self._file)

    def rollback(self, offset: int) -> None:
        """Physically discard unacked bytes back to ``offset``.

        Used when a group's fsync failed and nothing past ``offset`` was
        applied or acked; fails the log closed if the truncate itself
        fails.
        """
        try:
            os.ftruncate(self._file.fileno(), offset)
        except OSError:
            self._failed = True
            raise
        self._bytes = offset

    def fail_closed(self) -> None:
        """Mark the log unusable: every later append raises."""
        self._failed = True

    def truncate(self) -> None:
        """Discard the log (all buffered state reached durable runs).

        Offsets restart at 0; a caller that hands out positions across
        truncations keeps its own base (``LSMStore``'s ``wal_base``).
        """
        self._file.close()
        self._file = open(self._path, "wb")
        self._file.close()
        self._file = self._wrap(open(self._path, "ab"))
        self._bytes = 0
        fsync_dir(os.path.dirname(self._path))

    def close(self) -> None:
        """Close the log file."""
        if not self._file.closed:
            self._file.close()

    @staticmethod
    def stream_frames(
        path: str, offset: int = 0
    ) -> Iterator[tuple[int, int, list[tuple[bytes, bytes | None]]]]:
        """Yield ``(frame_offset, frame_end, ops)`` for every intact frame
        starting at byte ``offset``, stopping at the first torn or corrupt
        frame (crash-consistent prefix streaming).

        ``offset`` must land on a frame boundary — replication cursors
        only ever hold values returned by :meth:`append` or yielded here,
        so a misaligned offset simply reads as a corrupt frame and stops.
        """
        if offset < 0:
            raise ConfigurationError("wal offset must be non-negative")
        if not os.path.exists(path):
            return
        total = os.path.getsize(path)
        with open(path, "rb") as log:
            if offset:
                log.seek(offset)
            for kind, start, end, ops in _walk_frames(log, offset, total):
                if kind != "frame":
                    return  # clean end, torn tail, or corrupt frame
                yield start, end, ops

    @staticmethod
    def read_span(path: str, offset: int, limit: int) -> tuple[bytes, int]:
        """The raw bytes of the whole frames at ``offset``, for shipping.

        Returns ``(span, frames)``: the longest run of complete,
        CRC-valid frames starting at byte ``offset`` that fits in
        ``limit`` bytes — but never less than one frame, so a frame
        larger than ``limit`` still travels, alone. Only headers are
        walked and payloads checksummed; no operation is decoded, the
        receiver does that (:meth:`decode_span`). An empty span means
        the bytes at ``offset`` are not (yet) a whole valid frame.
        """
        header_size = _FRAME_HEADER.size
        with open(path, "rb") as log:
            log.seek(offset)
            data = log.read(max(limit, header_size))
            end = frames = 0
            while end + header_size <= len(data):
                length, crc = _FRAME_HEADER.unpack_from(data, end)
                frame_end = end + header_size + length
                if frame_end > len(data):
                    if frames:
                        break  # the next read starts here
                    data += log.read(frame_end - len(data))
                    if frame_end > len(data):
                        break  # torn
                with memoryview(data) as view:
                    if zlib.crc32(view[end + header_size : frame_end]) != crc:
                        break
                end = frame_end
                frames += 1
        return data[:end], frames

    @staticmethod
    def decode_span(span: bytes) -> list[list[tuple[bytes, bytes | None]]]:
        """The commit batches of a span of frames, one list per frame.

        All or nothing: a span that is not whole, CRC-valid, decodable
        frames from its first byte to its last raises
        :class:`~repro.errors.CorruptionError`, so a receiver never
        applies the readable prefix of a damaged message.
        """
        batches = []
        for kind, start, _end, ops in _walk_frames(
            io.BytesIO(span), 0, len(span)
        ):
            if kind == "frame":
                batches.append(ops)
            elif kind != "clean":
                raise CorruptionError(
                    f"span of {len(span)} bytes has a {kind} frame at "
                    f"byte {start}"
                )
        return batches

    @staticmethod
    def replay_from(
        path: str, offset: int
    ) -> Iterator[tuple[bytes, bytes | None]]:
        """Yield every operation from intact frames at byte ``offset``
        onwards, with the same torn-tail tolerance as :meth:`replay`."""
        for _start, _end, ops in WriteAheadLog.stream_frames(path, offset):
            yield from ops

    @staticmethod
    def replay(path: str) -> Iterator[tuple[bytes, bytes | None]]:
        """Yield every operation from intact frames, stopping at the
        first torn or corrupt frame (crash-consistent prefix replay)."""
        yield from WriteAheadLog.replay_from(path, 0)


def _decode_ops(payload: bytes) -> list[tuple[bytes, bytes | None]] | None:
    """Decode one frame payload into ops; ``None`` if malformed."""
    pos = 0
    length = len(payload)
    ops: list[tuple[bytes, bytes | None]] = []
    while pos < length:
        if pos + _OP.size > length:
            return None
        opcode, key_len, val_len = _OP.unpack_from(payload, pos)
        pos += _OP.size
        key = payload[pos : pos + key_len]
        pos += key_len
        if opcode == _OP_PUT:
            value = payload[pos : pos + val_len]
            pos += val_len
            ops.append((key, value))
        elif opcode == _OP_DELETE:
            ops.append((key, TOMBSTONE))
        else:
            return None
    return ops
