"""Tests for the write-ahead log."""

import pytest

from repro.engine import TOMBSTONE, WriteAheadLog, scan_wal
from repro.errors import ConfigurationError, CorruptionError


class TestAppendReplay:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "wal.log")
        log = WriteAheadLog(path)
        log.append([(b"a", b"1"), (b"b", b"2")])
        log.append([(b"c", TOMBSTONE)])
        log.close()
        ops = list(WriteAheadLog.replay(path))
        assert ops == [(b"a", b"1"), (b"b", b"2"), (b"c", TOMBSTONE)]

    def test_empty_batch_rejected(self, tmp_path):
        log = WriteAheadLog(str(tmp_path / "wal.log"))
        with pytest.raises(ConfigurationError):
            log.append([])
        log.close()

    def test_replay_of_missing_file_is_empty(self, tmp_path):
        assert list(WriteAheadLog.replay(str(tmp_path / "nope.log"))) == []

    def test_truncate_resets(self, tmp_path):
        path = str(tmp_path / "wal.log")
        log = WriteAheadLog(path)
        log.append([(b"a", b"1")])
        log.truncate()
        log.append([(b"b", b"2")])
        log.close()
        assert list(WriteAheadLog.replay(path)) == [(b"b", b"2")]

    def test_size_accounting(self, tmp_path):
        path = str(tmp_path / "wal.log")
        log = WriteAheadLog(path)
        assert log.size_bytes == 0
        log.append([(b"key", b"value")])
        assert log.size_bytes > 0
        log.close()


class TestOffsetsAndStreaming:
    def test_append_returns_byte_range(self, tmp_path):
        path = str(tmp_path / "wal.log")
        log = WriteAheadLog(path)
        offset_a, length_a = log.append([(b"a", b"1")])
        offset_b, length_b = log.append([(b"b", b"22")])
        log.close()
        assert offset_a == 0 and length_a > 0
        assert offset_b == length_a
        assert offset_b + length_b == log.size_bytes

    def test_offsets_restart_at_zero_after_truncate(self, tmp_path):
        # The log itself numbers nothing across a truncation (there is
        # no generation to tell two logs apart): the store that owns it
        # keeps the base that makes offsets into LSNs.
        log = WriteAheadLog(str(tmp_path / "wal.log"))
        first = log.append([(b"a", b"1")])
        log.truncate()
        assert log.size_bytes == 0
        assert log.append([(b"a", b"1")]) == first
        log.close()

    def test_stream_frames_yields_ranges(self, tmp_path):
        path = str(tmp_path / "wal.log")
        log = WriteAheadLog(path)
        ranges = [log.append([(b"k%d" % i, b"v%d" % i)]) for i in range(3)]
        log.close()
        frames = list(WriteAheadLog.stream_frames(path))
        assert [(f[0], f[1] - f[0]) for f in frames] == ranges
        assert [f[2] for f in frames] == [
            [(b"k0", b"v0")], [(b"k1", b"v1")], [(b"k2", b"v2")]
        ]

    def test_stream_frames_from_mid_offset(self, tmp_path):
        path = str(tmp_path / "wal.log")
        log = WriteAheadLog(path)
        log.append([(b"a", b"1")])
        cut, _ = log.append([(b"b", b"2")])
        log.append([(b"c", b"3")])
        log.close()
        frames = list(WriteAheadLog.stream_frames(path, cut))
        assert [f[2] for f in frames] == [[(b"b", b"2")], [(b"c", b"3")]]

    def test_replay_from_offset(self, tmp_path):
        path = str(tmp_path / "wal.log")
        log = WriteAheadLog(path)
        log.append([(b"a", b"1")])
        cut, _ = log.append([(b"b", b"2"), (b"c", TOMBSTONE)])
        log.close()
        assert list(WriteAheadLog.replay_from(path, cut)) == [
            (b"b", b"2"), (b"c", TOMBSTONE)
        ]
        # replay is replay_from(0)
        assert list(WriteAheadLog.replay_from(path, 0)) == list(
            WriteAheadLog.replay(path)
        )

    def test_negative_offset_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            list(
                WriteAheadLog.stream_frames(
                    str(tmp_path / "wal.log"), -1
                )
            )

    def test_stream_tolerates_torn_tail(self, tmp_path):
        path = str(tmp_path / "wal.log")
        log = WriteAheadLog(path)
        first, length = log.append([(b"a", b"1")])
        log.append([(b"b", b"2")])
        log.close()
        with open(path, "r+b") as damaged:
            damaged.truncate(log.size_bytes - 3)
        frames = list(WriteAheadLog.stream_frames(path))
        assert [f[2] for f in frames] == [[(b"a", b"1")]]
        assert frames[0][1] == first + length


class TestCrashConsistency:
    def test_torn_tail_frame_ignored(self, tmp_path):
        path = str(tmp_path / "wal.log")
        log = WriteAheadLog(path)
        log.append([(b"a", b"1")])
        log.append([(b"b", b"2")])
        log.close()
        # simulate a crash mid-append: chop bytes off the end
        with open(path, "r+b") as damaged:
            damaged.truncate(log.size_bytes - 3)
        ops = list(WriteAheadLog.replay(path))
        assert ops == [(b"a", b"1")]

    def test_corrupt_middle_frame_stops_replay(self, tmp_path):
        path = str(tmp_path / "wal.log")
        log = WriteAheadLog(path)
        log.append([(b"a", b"1")])
        first_frame_end = log.size_bytes
        log.append([(b"b", b"2")])
        log.close()
        with open(path, "r+b") as damaged:
            damaged.seek(first_frame_end + 12)
            damaged.write(b"\xff")
        ops = list(WriteAheadLog.replay(path))
        assert ops == [(b"a", b"1")]

    def test_interior_corruption_stops_replay_at_frame_boundary(
        self, tmp_path
    ):
        # The replayed prefix must be deterministic: exactly the frames
        # before the damaged one, no matter where inside the frame —
        # header, CRC, or payload — the damage landed.
        path = str(tmp_path / "wal.log")
        log = WriteAheadLog(path)
        log.append([(b"a", b"1")])
        first_frame_end = log.size_bytes
        log.append([(b"b", b"2")])
        second_frame_end = log.size_bytes
        log.append([(b"c", b"3")])
        log.close()
        with open(path, "rb") as log_file:
            pristine = log_file.read()
        for offset in range(first_frame_end, second_frame_end):
            blob = bytearray(pristine)
            blob[offset] ^= 0xFF
            with open(path, "wb") as damaged:
                damaged.write(bytes(blob))
            assert list(WriteAheadLog.replay(path)) == [(b"a", b"1")], (
                f"replay prefix changed with damage at byte {offset}"
            )

    def test_append_after_reopen(self, tmp_path):
        path = str(tmp_path / "wal.log")
        log = WriteAheadLog(path)
        log.append([(b"a", b"1")])
        log.close()
        log = WriteAheadLog(path)
        log.append([(b"b", b"2")])
        log.close()
        assert list(WriteAheadLog.replay(path)) == [(b"a", b"1"), (b"b", b"2")]


class TestScanWal:
    def _three_frames(self, tmp_path):
        path = str(tmp_path / "wal.log")
        log = WriteAheadLog(path)
        boundaries = []
        for key in (b"a", b"b", b"c"):
            log.append([(key, key * 2)])
            boundaries.append(log.size_bytes)
        log.close()
        return path, boundaries

    def test_clean_log(self, tmp_path):
        path, boundaries = self._three_frames(tmp_path)
        scan = scan_wal(path)
        assert scan.state == "clean"
        assert scan.frames == 3
        assert scan.valid_bytes == scan.total_bytes == boundaries[-1]
        assert scan.remaining_bytes == 0

    def test_missing_log_is_clean(self, tmp_path):
        scan = scan_wal(str(tmp_path / "absent.log"))
        assert scan.state == "clean"
        assert scan.frames == 0

    def test_torn_tail(self, tmp_path):
        path, boundaries = self._three_frames(tmp_path)
        with open(path, "r+b") as damaged:
            damaged.truncate(boundaries[-1] - 3)
        scan = scan_wal(path)
        assert scan.state == "torn"
        assert scan.frames == 2
        assert scan.valid_bytes == boundaries[1]
        assert scan.remaining_bytes > 0

    def test_interior_corruption(self, tmp_path):
        path, boundaries = self._three_frames(tmp_path)
        with open(path, "r+b") as damaged:
            damaged.seek(boundaries[0] + 10)
            damaged.write(b"\xff")
        scan = scan_wal(path)
        assert scan.state == "corrupt"
        assert scan.frames == 1
        assert scan.valid_bytes == boundaries[0]
        assert scan.remaining_bytes == boundaries[-1] - boundaries[0]
        # Replay's stop point agrees with the scan's verdict.
        assert list(WriteAheadLog.replay(path)) == [(b"a", b"aa")]

    def test_damaged_final_frame_reads_as_torn(self, tmp_path):
        # A bad *last* frame is indistinguishable from a torn append;
        # only damage with more log after it proves interior rot.
        path, boundaries = self._three_frames(tmp_path)
        with open(path, "r+b") as damaged:
            damaged.seek(boundaries[2] - 2)
            damaged.write(b"\xff")
        scan = scan_wal(path)
        assert scan.state == "torn"
        assert scan.frames == 2


class TestFrameBytes:
    """The frame format is fixed: these are the bytes ``encode_frame``
    produced before it was rebuilt around a single join (captured from
    commit 48bbd93), so logs written by either side replay on the other."""

    GOLDEN = {
        "puts": (
            [(b"alpha", b"one"), (b"beta", b""), (b"gamma", bytes(range(7)))],
            "33000000a175740d010500000003000000616c7068616f6e65010400000000"
            "0000006265746101050000000700000067616d6d6100010203040506",
        ),
        "deletes": (
            [(b"alpha", TOMBSTONE), (b"\x00\xff", TOMBSTONE)],
            "19000000db3f9b7d020500000000000000616c706861020200000000000000"
            "00ff",
        ),
        "mixed": (
            [
                (b"k1", b"v1"),
                (b"k2", TOMBSTONE),
                (b"k3", b"\x00" * 5),
                (b"k1", TOMBSTONE),
            ],
            "330000008cc83a2a0102000000020000006b3176310202000000000000006b"
            "320102000000050000006b3300000000000202000000000000006b31",
        ),
        "single": (
            [(b"key-0000000005", b"x" * 20)],
            "2b000000e7c2552f010e000000140000006b65792d30303030303030303035"
            "7878787878787878787878787878787878787878",
        ),
    }

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_frames_match_the_recorded_bytes(self, name):
        batch, expected = self.GOLDEN[name]
        assert WriteAheadLog.encode_frame(batch) == bytes.fromhex(expected)

    def test_a_group_is_its_frames_back_to_back(self, tmp_path):
        path = str(tmp_path / "wal.log")
        log = WriteAheadLog(path)
        batches = [self.GOLDEN[name][0] for name in sorted(self.GOLDEN)]
        spans = log.append_group(batches)
        log.close()
        with open(path, "rb") as handle:
            written = handle.read()
        assert written == b"".join(
            bytes.fromhex(self.GOLDEN[name][1]) for name in sorted(self.GOLDEN)
        )
        assert [written[o : o + n] for o, n in spans] == [
            bytes.fromhex(self.GOLDEN[name][1]) for name in sorted(self.GOLDEN)
        ]


class TestSpans:
    """Raw runs of frames: what replication ships instead of ops."""

    BATCHES = [
        [(b"a", b"1")],
        [(b"b", b"22"), (b"c", TOMBSTONE)],
        [(b"d", b"x" * 100)],
    ]

    def log(self, tmp_path):
        path = str(tmp_path / "wal.log")
        log = WriteAheadLog(path)
        ranges = [log.append(batch) for batch in self.BATCHES]
        log.close()
        return path, ranges

    def test_a_span_is_the_files_own_bytes(self, tmp_path):
        path, ranges = self.log(tmp_path)
        with open(path, "rb") as raw:
            everything = raw.read()
        assert WriteAheadLog.read_span(path, 0, 1 << 20) == (everything, 3)
        cut = ranges[1][0]
        assert WriteAheadLog.read_span(path, cut, 1 << 20) == (
            everything[cut:], 2,
        )
        assert WriteAheadLog.decode_span(everything) == self.BATCHES

    def test_limit_cuts_on_a_frame_boundary_but_never_below_one_frame(
        self, tmp_path
    ):
        path, ranges = self.log(tmp_path)
        two = ranges[2][0]
        for limit, frames, length in (
            (two, 2, two),
            (two + 5, 2, two),  # the third frame does not fit: not sent
            (two - 1, 1, ranges[0][1]),
            (1, 1, ranges[0][1]),  # smaller than a header, still a frame
        ):
            span, count = WriteAheadLog.read_span(path, 0, limit)
            assert (count, len(span)) == (frames, length), limit
        big, _ = WriteAheadLog.read_span(path, two, 10)
        assert WriteAheadLog.decode_span(big) == self.BATCHES[2:]

    def test_span_stops_before_a_torn_or_damaged_frame(self, tmp_path):
        path, ranges = self.log(tmp_path)
        two = ranges[2][0]
        with open(path, "r+b") as damaged:
            damaged.truncate(two + ranges[2][1] - 1)
        assert WriteAheadLog.read_span(path, 0, 1 << 20)[1] == 2
        assert WriteAheadLog.read_span(path, two, 1 << 20) == (b"", 0)
        with open(path, "r+b") as damaged:
            damaged.seek(ranges[1][0] + 10)
            damaged.write(b"\xff")
        span, frames = WriteAheadLog.read_span(path, 0, 1 << 20)
        assert (len(span), frames) == (ranges[0][1], 1)
        # at the end of the log there is nothing, which is not an error
        assert WriteAheadLog.read_span(path, two + 500, 64) == (b"", 0)

    def test_decode_is_all_or_nothing(self, tmp_path):
        path, ranges = self.log(tmp_path)
        span, _ = WriteAheadLog.read_span(path, 0, 1 << 20)
        assert WriteAheadLog.decode_span(b"") == []
        for damaged in (
            span[:-1],  # torn last frame
            span[:5],  # not even a header
            span[: ranges[1][0]] + b"\x00" + span[ranges[1][0] + 1 :],
            span + b"\x01",  # trailing junk
        ):
            with pytest.raises(CorruptionError):
                WriteAheadLog.decode_span(damaged)
