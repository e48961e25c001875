"""A real, embeddable LSM key-value storage engine.

Built from scratch on the substrates the paper's testbed assumes:
hash-map memory components with a sorted key index, immutable sorted-run
files with Bloom filters and block indexes, a CRC-framed write-ahead
log, a crash-safe manifest, reconciling merge iterators, an I/O rate
limiter with periodic forces, and a compaction driver that executes the
*same* merge policies and schedulers as the simulator.
"""

from .blockcache import BlockCache
from .blockcodec import BlockCodec, available_codecs, get_codec, register_codec
from .bloom import BloomFilter
from .compaction import CompactionManager
from .integrity import IntegrityReport, verify_store
from .datastore import (
    LSMStore,
    StoreStats,
    WalPosition,
    WriteTiming,
)
from .iterators import reconciling_iterator
from .manifest import LogPosition, Manifest, RunRecord
from .memtable import MemTable
from .merge import MergeJob
from .options import StoreOptions, TOMBSTONE
from .quarantine import QuarantineEntry, QuarantineSet
from .ratelimiter import RateLimiter, SyncPolicy
from .secondary import IndexedStore, decode_secondary_key, encode_secondary_key
from .sstable import RunStats, SSTableReader, SSTableWriter
from .version import Version
from .wal import WalScan, WriteAheadLog, scan_wal

__all__ = [
    "BlockCache",
    "BlockCodec",
    "BloomFilter",
    "CompactionManager",
    "IntegrityReport",
    "IndexedStore",
    "LSMStore",
    "LogPosition",
    "Manifest",
    "MemTable",
    "MergeJob",
    "QuarantineEntry",
    "QuarantineSet",
    "RateLimiter",
    "RunRecord",
    "RunStats",
    "SSTableReader",
    "SSTableWriter",
    "StoreOptions",
    "StoreStats",
    "SyncPolicy",
    "TOMBSTONE",
    "Version",
    "WalPosition",
    "WalScan",
    "WriteAheadLog",
    "WriteTiming",
    "scan_wal",
    "available_codecs",
    "get_codec",
    "register_codec",
    "verify_store",
    "decode_secondary_key",
    "encode_secondary_key",
    "reconciling_iterator",
]
