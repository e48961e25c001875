"""A sorted run as the store reads it: one or more run files.

A merge whose inputs' key ranges are disjoint *links* them — the output
run names their files, in key order, and no byte moves — so a run is an
ordered tuple of key-disjoint :class:`~repro.engine.sstable.SSTableReader`
files. :class:`Run` reads across them with the interface of one reader:
a point lookup asks the one file whose range holds the key, and blocks
are numbered across the files, so a scan cursor or a merge cursor walks
a run of many files exactly as it walks a run of one.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from typing import Iterator

from .sstable import SSTableReader


class Run:
    """Key-disjoint run files in key order, read as one sorted run."""

    __slots__ = ("files", "_mins", "_starts")

    def __init__(self, files: tuple[SSTableReader, ...]) -> None:
        self.files = files
        self._mins = [reader.min_key for reader in files]
        #: Global number of each file's first block, then the total.
        self._starts = [0, *accumulate(r.block_count for r in files)]

    def _file_for(self, key: bytes) -> SSTableReader | None:
        """The one file whose key range could hold ``key``."""
        index = bisect_right(self._mins, key) - 1
        return self.files[index] if index >= 0 else None

    def locate(self, block_idx: int) -> tuple[SSTableReader, int]:
        """``(file, block in that file)`` of a run-wide block number."""
        index = bisect_right(self._starts, block_idx) - 1
        return self.files[index], block_idx - self._starts[index]

    # -- what the run holds, summed over its files -----------------------

    @property
    def min_key(self) -> bytes:
        return self.files[0].min_key

    @property
    def max_key(self) -> bytes:
        return self.files[-1].max_key

    @property
    def entry_count(self) -> int:
        return sum(reader.entry_count for reader in self.files)

    @property
    def tombstone_count(self) -> int:
        return sum(reader.tombstone_count for reader in self.files)

    @property
    def data_bytes(self) -> int:
        return sum(reader.data_bytes for reader in self.files)

    @property
    def logical_bytes(self) -> int:
        return sum(reader.logical_bytes for reader in self.files)

    @property
    def block_count(self) -> int:
        return self._starts[-1]

    # -- reads: SSTableReader's, across the files ------------------------

    def might_contain(self, key: bytes) -> bool:
        reader = self._file_for(key)
        return reader is not None and reader.might_contain(key)

    def get(self, key: bytes) -> tuple[bool, bytes | None]:
        reader = self._file_for(key)
        return (False, None) if reader is None else reader.get(key)

    def seek_block(self, key: bytes | None) -> int:
        if key is None or key < self._mins[0]:
            return 0
        index = bisect_right(self._mins, key) - 1
        return self._starts[index] + self.files[index].seek_block(key)

    def first_key(self, block_idx: int) -> bytes:
        reader, index = self.locate(block_idx)
        return reader.first_key(index)

    def walk_block(self, block_idx: int):
        reader, index = self.locate(block_idx)
        return reader.walk_block(index)

    def items(
        self, lo: bytes | None = None, hi: bytes | None = None
    ) -> Iterator[tuple[bytes, bytes | None]]:
        for reader in self.files:
            if hi is not None and reader.min_key >= hi:
                return
            if lo is None or reader.max_key >= lo:
                yield from reader.items(lo, hi)
