"""Online shard migration: move a shard to a new engine under live writes.

The protocol is the classic dual-write-then-copy dance:

1. **Attach** a fresh engine as the shard's *mirror*: from this moment
   every mutation routed to the shard is applied to both the primary
   and the mirror (:meth:`~repro.cluster.sharded.ShardedStore._apply`).
2. **Copy** the primary's live records page by page into the mirror.
   Each page is read and written under the shard's write lock, so a
   page is internally consistent; between pages writes flow freely.
   Because the primary keeps receiving every write during the
   migration, a page read from it is always current — a key mutated
   after the copier passed its position is caught by the dual-write,
   and a key mutated before is re-read at its new value. Deleted keys
   simply never appear in a page, and the mirror saw their tombstones.
3. **Cut over** under the shard lock: the mirror becomes the primary,
   and the old engine is closed (after an optional full-scan
   equivalence check).

The mirror is opened with ``stall_mode="block"`` regardless of the
cluster's serving options: a migration target that rejected writes
would push its stalls into the *live* write path through the
dual-write, which is exactly what a rebalance must not do — the copy
loop simply slows down while the mirror's maintenance catches up (the
paper's graceful interaction, applied to migration traffic). It keeps
the source's drive mode, so a shard with workers is promoted with
workers.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from ..engine.datastore import LSMStore
from ..engine.options import StoreOptions
from ..errors import ConfigurationError
from .sharded import ShardedStore

#: Records copied per locked page; small pages bound write-path latency
#: during migration, large pages finish the copy in fewer lock grabs.
DEFAULT_PAGE_SIZE = 256


@dataclass(frozen=True)
class MigrationReport:
    """Outcome of one :func:`migrate_shard` run."""

    shard: int
    target_directory: str
    records_copied: int
    pages: int
    verified: bool

    def summary(self) -> str:
        """One-line human-readable result."""
        checked = "verified" if self.verified else "unverified"
        return (
            f"shard {self.shard} -> {self.target_directory}: "
            f"{self.records_copied} records in {self.pages} pages "
            f"({checked})"
        )


def _next_page_start(last_key: bytes) -> bytes:
    """The smallest key strictly greater than ``last_key``."""
    return last_key + b"\x00"


def migrate_shard(
    store: ShardedStore,
    shard: int,
    target_directory: str,
    options: StoreOptions | None = None,
    page_size: int = DEFAULT_PAGE_SIZE,
    verify: bool = False,
) -> MigrationReport:
    """Stream one shard's records to a new engine while writes flow.

    Returns after the cutover: the shard's primary engine now lives in
    ``target_directory`` and the old engine is closed. With ``verify``
    the full scans of old and new engines are compared under the final
    lock before cutting over (test-scale safety net).
    """
    if not 0 <= shard < store.num_shards:
        raise ConfigurationError(f"shard {shard} out of range")
    if page_size < 1:
        raise ConfigurationError("page size must be positive")
    if os.path.exists(target_directory) and os.listdir(target_directory):
        raise ConfigurationError(
            f"migration target {target_directory!r} is not empty"
        )
    mirror_options = (options or store.options).with_(stall_mode="block")
    mirror = LSMStore.open(target_directory, mirror_options)
    store.attach_mirror(shard, mirror)
    source = store.engine(shard)
    records_copied = 0
    pages = 0
    try:
        lo: bytes | None = None
        while True:
            with store.shard_lock(shard):
                page = list(source.scan(lo=lo, limit=page_size))
                if page:
                    mirror.write_batch(page)
            if not page:
                break
            records_copied += len(page)
            pages += 1
            lo = _next_page_start(page[-1][0])
            if len(page) < page_size:
                break
        with store.shard_lock(shard):
            if verify:
                source_items = list(source.scan())
                mirror_items = list(mirror.scan())
                if source_items != mirror_items:
                    raise ConfigurationError(
                        f"migration of shard {shard} diverged: "
                        f"{len(source_items)} source records vs "
                        f"{len(mirror_items)} in the target"
                    )
            old = store.promote_mirror(shard)
        old.close()
    except BaseException:
        abandoned = store.abandon_mirror(shard)
        if abandoned is not None:
            abandoned.close()
        raise
    return MigrationReport(
        shard=shard,
        target_directory=target_directory,
        records_copied=records_copied,
        pages=pages,
        verified=verify,
    )
