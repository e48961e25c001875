"""Tests for the sorted-run file format."""

import gc
import os
import struct
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import RateLimiter, SSTableReader, SSTableWriter, SyncPolicy, TOMBSTONE
from repro.engine.bloom import BloomFilter
from repro.engine.sstable import _decode_block, _walk_block
from repro.errors import ConfigurationError, CorruptionError
from tests.faketime import FakeTime


_LEN = struct.Struct("<I")


def write_run(path, entries, block_bytes=512, **writer_kwargs):
    writer = SSTableWriter(str(path), block_bytes=block_bytes, **writer_kwargs)
    for key, value in entries:
        writer.add(key, value)
    return writer.finish()


class TestWriteRead:
    def test_roundtrip_small(self, tmp_path):
        entries = [(f"k{i:04d}".encode(), f"v{i}".encode()) for i in range(100)]
        stats = write_run(tmp_path / "a.run", entries)
        assert stats.entry_count == 100
        reader = SSTableReader(stats.path)
        for key, value in entries:
            assert reader.get(key) == (True, value)
        assert reader.get(b"missing") == (False, None)
        reader.close()

    def test_multi_block_lookups(self, tmp_path):
        entries = [
            (f"k{i:06d}".encode(), b"x" * 100) for i in range(2000)
        ]
        stats = write_run(tmp_path / "b.run", entries, block_bytes=1024)
        reader = SSTableReader(stats.path)
        assert reader.get(b"k000000")[0]
        assert reader.get(b"k001999")[0]
        assert reader.get(b"k001000")[0]
        assert not reader.get(b"k002000")[0]
        reader.close()

    def test_tombstones_roundtrip(self, tmp_path):
        entries = [(b"alive", b"v"), (b"dead", TOMBSTONE)]
        stats = write_run(tmp_path / "c.run", sorted(entries))
        assert stats.tombstone_count == 1
        reader = SSTableReader(stats.path)
        assert reader.get(b"dead") == (True, TOMBSTONE)
        assert reader.get(b"alive") == (True, b"v")
        reader.close()

    def test_metadata(self, tmp_path):
        entries = [(b"aaa", b"1"), (b"zzz", b"2")]
        stats = write_run(tmp_path / "d.run", entries)
        reader = SSTableReader(stats.path)
        assert reader.min_key == b"aaa"
        assert reader.max_key == b"zzz"
        assert reader.entry_count == 2
        assert reader.data_bytes > 0
        reader.close()

    def test_range_iteration(self, tmp_path):
        entries = [(f"k{i:03d}".encode(), str(i).encode()) for i in range(50)]
        stats = write_run(tmp_path / "e.run", entries, block_bytes=256)
        reader = SSTableReader(stats.path)
        subset = list(reader.items(b"k010", b"k020"))
        assert [k for k, _ in subset] == [f"k{i:03d}".encode() for i in range(10, 20)]
        everything = list(reader.items())
        assert len(everything) == 50
        reader.close()

    def test_sequential_handle_shares_the_parsed_run(self, tmp_path):
        """A merge's handle reuses the index, filter and meta the query
        reader parsed, reads through its own file, and closing it leaves
        the query reader alone."""
        entries = [(f"k{i:04d}".encode(), b"x" * 50) for i in range(300)]
        stats = write_run(tmp_path / "s.run", entries)
        reader = SSTableReader(stats.path)
        assert reader.get(b"k0100") == (True, b"x" * 50)
        handle = reader.sequential_handle()
        assert handle._first_keys is reader._first_keys
        assert handle._filter is reader._filter
        assert handle._file is not reader._file
        walked = [
            key
            for index in range(handle.block_count)
            for key in handle.read_data_block(index).keys
        ]
        assert walked == [key for key, _ in entries]
        handle.close()
        assert reader.get(b"k0100") == (True, b"x" * 50)
        reader.close()

    def test_empty_value_supported(self, tmp_path):
        stats = write_run(tmp_path / "f.run", [(b"k", b"")])
        reader = SSTableReader(stats.path)
        assert reader.get(b"k") == (True, b"")
        reader.close()


class TestKeyBoundsPruning:
    def test_out_of_range_keys_skip_the_bloom_filter(self, tmp_path):
        """Keys outside [min_key, max_key] must be dismissed before the
        Bloom filter is even consulted — the bounds comparison is the
        cheap first line of defence on multi-run lookups."""
        entries = [(f"m{i:04d}".encode(), b"v") for i in range(50)]
        stats = write_run(tmp_path / "p.run", entries)
        reader = SSTableReader(stats.path)

        class AlwaysYes:
            def might_contain(self, key):
                return True

        reader._filter = AlwaysYes()
        assert not reader.might_contain(b"a-below-range")
        assert not reader.might_contain(b"z-above-range")
        assert reader.might_contain(b"m0025")
        assert reader.get(b"a-below-range") == (False, None)
        assert reader.get(b"m0025") == (True, b"v")
        reader.close()


class TestBlockReads:
    """A query's block reads are counted, one per block, every time (no
    block is cached); a merge's and a scrub's are not; the descriptor
    lives as long as the reader does."""

    ENTRIES = [(f"k{i:04d}".encode(), b"x" * 40) for i in range(200)]

    def counted_reader(self, tmp_path):
        stats = write_run(tmp_path / "c.run", self.ENTRIES, block_bytes=512)
        reads = []
        reader = SSTableReader(stats.path, lambda: reads.append(1))
        assert reader.block_count > 4
        return reader, reads

    def test_a_get_counts_the_one_block_it_reads(self, tmp_path):
        reader, reads = self.counted_reader(tmp_path)
        assert reader.get(b"k0100") == (True, b"x" * 40)
        assert len(reads) == 1
        assert reader.get(b"k0100a") == (False, None)  # in bounds, absent
        assert len(reads) == 2
        reader.close()

    def test_a_key_outside_the_run_reads_no_block(self, tmp_path):
        reader, reads = self.counted_reader(tmp_path)
        assert reader.get(b"a") == (False, None)
        assert reader.get(b"z") == (False, None)
        assert reads == []
        reader.close()

    def test_a_block_read_twice_is_counted_twice(self, tmp_path):
        reader, reads = self.counted_reader(tmp_path)
        first = reader.walk_block(2)
        assert reader.walk_block(2) == first
        assert len(reads) == 2
        reader.close()

    def test_items_count_each_block_they_read(self, tmp_path):
        reader, reads = self.counted_reader(tmp_path)
        assert list(reader.items()) == self.ENTRIES
        assert len(reads) == reader.block_count
        del reads[:]
        lo, hi = b"k0050", b"k0120"
        assert list(reader.items(lo, hi)) == self.ENTRIES[50:120]
        # from the block holding lo through the one holding hi
        assert len(reads) == reader.seek_block(hi) - reader.seek_block(lo) + 1
        reader.close()

    def test_merge_and_scrub_reads_are_not_counted(self, tmp_path):
        reader, reads = self.counted_reader(tmp_path)
        handle, fresh = reader.sequential_handle(), reader.reopened()
        for source in (reader, handle, fresh):
            keys = [
                key
                for index in range(source.block_count)
                for key in source.read_data_block(index).keys
            ]
            assert keys == [key for key, _ in self.ENTRIES]
        assert reads == []
        handle.close()
        fresh.close()
        reader.close()

    def test_a_closed_reader_refuses_every_block_read(self, tmp_path):
        reader, reads = self.counted_reader(tmp_path)
        reader.close()
        with pytest.raises(ConfigurationError):
            reader.walk_block(0)
        with pytest.raises(ConfigurationError):
            reader.read_data_block(0)
        with pytest.raises(ConfigurationError):
            list(reader.items())
        # A refused read is no block lookup.
        assert reads == []

    def test_close_releases_the_descriptor(self, tmp_path):
        reader, _ = self.counted_reader(tmp_path)
        fd = reader._fd
        os.fstat(fd)
        reader.close()
        with pytest.raises(OSError):
            os.fstat(fd)

    def test_letting_go_of_the_reader_releases_the_descriptor(self, tmp_path):
        reader, _ = self.counted_reader(tmp_path)
        fd = reader._fd
        del reader
        gc.collect()
        with pytest.raises(OSError):
            os.fstat(fd)

    def test_a_scrub_view_keeps_the_descriptor_open(self, tmp_path):
        """Closing what :meth:`reopened` returned, or letting it go,
        leaves the reader it came from reading."""
        reader, reads = self.counted_reader(tmp_path)
        fresh = reader.reopened()
        fresh.close()
        del fresh
        gc.collect()
        os.fstat(reader._fd)
        assert reader.get(b"k0007") == (True, b"x" * 40)
        assert len(reads) == 1
        reader.close()


class TestWriterDiscipline:
    def test_out_of_order_keys_rejected(self, tmp_path):
        writer = SSTableWriter(str(tmp_path / "g.run"))
        writer.add(b"b", b"1")
        with pytest.raises(ConfigurationError):
            writer.add(b"a", b"2")
        writer.abandon()

    def test_duplicate_key_rejected(self, tmp_path):
        writer = SSTableWriter(str(tmp_path / "h.run"))
        writer.add(b"a", b"1")
        with pytest.raises(ConfigurationError):
            writer.add(b"a", b"2")
        writer.abandon()

    @pytest.mark.parametrize(
        "bad", [{"bloom_bits_per_key": 0}, {"block_codec": "lz4"}]
    )
    def test_rejected_configuration_leaves_no_file(self, tmp_path, bad):
        """Regression: the output file used to be opened before the
        configuration was validated, so a bad one left an open handle
        and an orphan 0-byte run behind."""
        with pytest.raises(ConfigurationError):
            SSTableWriter(str(tmp_path / "bad.run"), **bad)
        assert os.listdir(tmp_path) == []

    def test_add_many_writes_what_add_writes(self, tmp_path):
        entries = [
            (f"k{i:05d}".encode(), TOMBSTONE if i % 7 == 0 else b"v" * (i % 90))
            for i in range(400)
        ]
        write_run(tmp_path / "one.run", entries, block_bytes=256)
        writer = SSTableWriter(str(tmp_path / "many.run"), block_bytes=256)
        writer.add_many(iter(entries[:150]))
        writer.add_many(entries[150:])
        writer.finish()
        assert (tmp_path / "many.run").read_bytes() == (
            tmp_path / "one.run"
        ).read_bytes()

    def test_filter_is_fed_in_feed_sized_calls(self, tmp_path):
        """The writer hands keys to the filter ``feed_keys`` or more at a
        time (each call costs O(bits)), and the filter it stores is the
        one a key-by-key build gives."""
        keys = [f"k{i:05d}".encode() for i in range(5000)]
        writer = SSTableWriter(str(tmp_path / "fed.run"), expected_keys=3000)
        fed = []
        add_many = writer._filter.add_many
        writer._filter.add_many = lambda batch: (
            fed.append(len(batch)), add_many(batch)
        )
        writer.add_many((key, b"v") for key in keys)
        writer.finish()
        assert len(fed) > 2 and sum(fed) == len(keys)
        assert min(fed[:-1]) >= writer._filter.feed_keys
        reference = BloomFilter(3000, 10)
        for key in keys:
            reference.add(key)
        reader = SSTableReader(str(tmp_path / "fed.run"))
        assert reader._filter.to_bytes() == reference.to_bytes()
        reader.close()

    def test_add_many_rejects_out_of_order_and_finished(self, tmp_path):
        writer = SSTableWriter(str(tmp_path / "m.run"))
        with pytest.raises(ConfigurationError):
            writer.add_many([(b"b", b"1"), (b"a", b"2")])
        writer.add_many([(b"c", b"3")])
        writer.finish()
        with pytest.raises(ConfigurationError):
            writer.add_many([(b"d", b"4")])

    def test_double_finish_rejected(self, tmp_path):
        writer = SSTableWriter(str(tmp_path / "i.run"))
        writer.add(b"a", b"1")
        writer.finish()
        with pytest.raises(ConfigurationError):
            writer.finish()

    def test_abandon_removes_file(self, tmp_path):
        path = tmp_path / "j.run"
        writer = SSTableWriter(str(path))
        writer.add(b"a", b"1")
        writer.abandon()
        assert not path.exists()

    def test_abandon_after_finish_keeps_published_run(self, tmp_path):
        """Regression: abandon() on a finished writer used to delete
        the published run file out from under the manifest."""
        path = tmp_path / "j2.run"
        writer = SSTableWriter(str(path))
        writer.add(b"a", b"1")
        writer.finish()
        writer.abandon()
        assert path.exists()
        reader = SSTableReader(str(path))
        assert reader.get(b"a") == (True, b"1")
        reader.close()

    def test_abandon_still_cleans_up_after_failed_finish(self, tmp_path):
        """A finish() that dies mid-write has not published anything —
        abandon() must still remove the partial file."""
        path = tmp_path / "j3.run"
        writer = SSTableWriter(str(path))
        writer.add(b"a", b"1")
        writer._file.close()  # force finish() to fail on the next write
        with pytest.raises(Exception):
            writer.finish()
        writer.abandon()
        assert not path.exists()

    def test_rate_limiter_accounts_every_byte_including_footer(
        self, tmp_path
    ):
        """Regression: the footer used to be written via a raw
        file.write, slipping past the rate limiter's debit and the sync
        policy's byte count — admitted bytes must equal the file size."""
        limiter = RateLimiter(10**9, FakeTime())
        sync = SyncPolicy(interval_bytes=1 << 30)
        path = tmp_path / "k2.run"
        writer = SSTableWriter(
            str(path),
            block_bytes=512,
            rate_limiter=limiter,
            sync_policy=sync,
        )
        for i in range(200):
            writer.add(f"k{i:05d}".encode(), b"x" * 64)
        stats = writer.finish()
        assert stats.file_bytes == os.path.getsize(str(path))
        assert limiter.total_admitted_bytes == stats.file_bytes
        assert sync.bytes_noted == stats.file_bytes

    def test_rate_limiter_and_sync_policy_exercised(self, tmp_path):
        limiter = RateLimiter(1024 * 1024, FakeTime())
        sync = SyncPolicy(interval_bytes=4096)
        writer = SSTableWriter(
            str(tmp_path / "k.run"),
            block_bytes=512,
            rate_limiter=limiter,
            sync_policy=sync,
        )
        for i in range(3000):
            writer.add(f"k{i:06d}".encode(), b"x" * 512)
        writer.finish()
        assert limiter.total_sleep_seconds > 0
        assert sync.forces_issued > 10


class TestCorruptionDetection:
    def test_flipped_data_byte_detected(self, tmp_path):
        entries = [(f"k{i:03d}".encode(), b"value") for i in range(100)]
        stats = write_run(tmp_path / "l.run", entries, block_bytes=256)
        with open(stats.path, "r+b") as damaged:
            damaged.seek(10)
            original = damaged.read(1)
            damaged.seek(10)
            damaged.write(bytes([original[0] ^ 0xFF]))
        reader = SSTableReader(stats.path)
        with pytest.raises(CorruptionError):
            list(reader.items())
        reader.close()

    def test_truncated_file_detected(self, tmp_path):
        path = tmp_path / "m.run"
        write_run(path, [(b"a", b"1")])
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CorruptionError):
            SSTableReader(str(path))

    def test_tiny_file_rejected(self, tmp_path):
        path = tmp_path / "n.run"
        path.write_bytes(b"short")
        with pytest.raises(CorruptionError):
            SSTableReader(str(path))

    def test_closed_reader_rejects_access(self, tmp_path):
        stats = write_run(tmp_path / "o.run", [(b"a", b"1")])
        reader = SSTableReader(stats.path)
        reader.close()
        with pytest.raises(ConfigurationError):
            reader.get(b"a")
        reader.close()  # idempotent

    def test_block_walk_stops_at_the_first_key_not_below_the_target(self):
        payload = b"".join(
            _LEN.pack(1) + _LEN.pack(2) + key + b"vv"
            for key in (b"a", b"c", b"e")
        )
        assert _walk_block(payload)[0] == [b"a", b"c", b"e"]
        assert _walk_block(payload, stop_at=b"c")[0] == [b"a", b"c"]
        assert _walk_block(payload, stop_at=b"b")[0] == [b"a", b"c"]
        # The walk really ends there: a torn last entry is never reached.
        torn = payload[:-1]
        assert _walk_block(torn, stop_at=b"b")[0] == [b"a", b"c"]
        with pytest.raises(CorruptionError):
            _walk_block(torn)

    def test_decode_block_rejects_truncated_key(self):
        """Regression: a declared key length past the payload end used
        to slice short bytes silently instead of raising."""
        payload = _LEN.pack(100) + _LEN.pack(1) + b"short"
        with pytest.raises(CorruptionError):
            _decode_block(payload)

    def test_decode_block_rejects_truncated_value(self):
        payload = _LEN.pack(3) + _LEN.pack(100) + b"key" + b"tiny"
        with pytest.raises(CorruptionError):
            _decode_block(payload)

    def _corrupt_first_entry_length(self, path, field_offset):
        """Hand-truncate a block: overwrite a length field of the first
        entry with an overrunning value and re-seal the block's CRC, so
        only entry-level validation can catch it."""
        reader = SSTableReader(str(path))
        offset, length = reader.block_span(0)
        reader.close()
        data = bytearray(path.read_bytes())
        # v2 block: 5-byte codec header, then the entry payload.
        field_at = offset + 5 + field_offset
        data[field_at : field_at + 4] = _LEN.pack(0x00FFFFFF)
        record = bytes(data[offset : offset + length - 4])
        data[offset + length - 4 : offset + length] = _LEN.pack(
            zlib.crc32(record) & 0xFFFFFFFF
        )
        path.write_bytes(bytes(data))

    def test_hand_truncated_block_entry_detected(self, tmp_path):
        path = tmp_path / "trunc.run"
        write_run(path, [(b"aaa", b"val-1"), (b"bbb", b"val-2")])
        self._corrupt_first_entry_length(path, field_offset=0)  # key len
        reader = SSTableReader(str(path))
        with pytest.raises(CorruptionError):
            reader.get(b"aaa")
        reader.close()

    def test_hand_truncated_block_value_detected(self, tmp_path):
        path = tmp_path / "truncv.run"
        write_run(path, [(b"aaa", b"val-1"), (b"bbb", b"val-2")])
        self._corrupt_first_entry_length(path, field_offset=4)  # val len
        reader = SSTableReader(str(path))
        with pytest.raises(CorruptionError):
            list(reader.items())
        reader.close()


class TestBlockFormat:
    def test_zlib_run_compresses_and_roundtrips(self, tmp_path):
        entries = [
            (f"k{i:05d}".encode(), (f"payload-{i:05d}:" * 8).encode())
            for i in range(500)
        ]
        stats = write_run(
            tmp_path / "z.run", entries, block_bytes=4096,
            block_codec="zlib",
        )
        assert stats.codec == "zlib"
        assert stats.logical_bytes > stats.data_bytes > 0
        reader = SSTableReader(stats.path)
        assert reader.codec == "zlib"
        assert reader.logical_bytes == stats.logical_bytes
        assert reader.data_bytes == stats.data_bytes
        assert list(reader.items()) == entries
        for key, value in entries[::37]:
            assert reader.get(key) == (True, value)
        reader.close()

    def test_incompressible_blocks_fall_back_to_raw(self, tmp_path):
        import random

        rng = random.Random(7)
        entries = sorted(
            (f"k{i:04d}".encode(), rng.randbytes(64)) for i in range(200)
        )
        stats = write_run(
            tmp_path / "r.run", entries, block_codec="zlib"
        )
        # Random values do not compress: every block stores raw, so the
        # physical size is the logical size plus the 5-byte headers.
        assert stats.data_bytes < stats.logical_bytes * 1.1
        reader = SSTableReader(stats.path)
        assert list(reader.items()) == entries
        reader.close()

    def test_corrupt_compressed_block_detected(self, tmp_path):
        entries = [
            (f"k{i:05d}".encode(), (f"value-{i:05d}-" * 6).encode())
            for i in range(300)
        ]
        stats = write_run(
            tmp_path / "c.run", entries, block_bytes=2048,
            block_codec="zlib",
        )
        reader = SSTableReader(stats.path)
        offset, length = reader.block_span(0)
        reader.close()
        with open(stats.path, "r+b") as damaged:
            # Flip a byte inside the compressed payload (past the
            # 5-byte header, short of the CRC) — the CRC over the
            # compressed bytes must fence it before decompression.
            damaged.seek(offset + 5 + (length - 9) // 2)
            original = damaged.read(1)
            damaged.seek(offset + 5 + (length - 9) // 2)
            damaged.write(bytes([original[0] ^ 0xFF]))
        reader = SSTableReader(stats.path)
        with pytest.raises(CorruptionError):
            list(reader.items())
        reader.close()

    def test_unknown_codec_name_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            SSTableWriter(str(tmp_path / "bad4.run"), block_codec="lz4")

    def test_unknown_codec_id_on_disk_is_corruption(self, tmp_path):
        stats = write_run(tmp_path / "cid.run", [(b"a", b"1")])
        reader = SSTableReader(stats.path)
        offset, length = reader.block_span(0)
        reader.close()
        data = bytearray((tmp_path / "cid.run").read_bytes())
        data[offset] = 250  # unregistered codec id
        record = bytes(data[offset : offset + length - 4])
        data[offset + length - 4 : offset + length] = _LEN.pack(
            zlib.crc32(record) & 0xFFFFFFFF
        )
        (tmp_path / "cid.run").write_bytes(bytes(data))
        reader = SSTableReader(stats.path)
        with pytest.raises(CorruptionError):
            reader.get(b"a")
        reader.close()


class TestPropertyBased:
    @given(
        contents=st.dictionaries(
            st.binary(min_size=1, max_size=16),
            st.one_of(st.none(), st.binary(max_size=64)),
            min_size=1,
            max_size=200,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_any_contents(self, tmp_path_factory, contents):
        path = tmp_path_factory.mktemp("runs") / "prop.run"
        entries = sorted(contents.items())
        stats = write_run(path, entries, block_bytes=256)
        reader = SSTableReader(stats.path)
        assert list(reader.items()) == entries
        for key, value in entries:
            assert reader.get(key) == (True, value)
        reader.close()
        os.remove(stats.path)
