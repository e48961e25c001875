"""The four workloads: settings, generated inputs, and the model they are checked against.

Everything a run feeds the system comes from here and depends only on
``(workload, seed, worker)``: the program under test sees generated
operations, never the seed. Sizes are chosen so that one run — set-up
repeated :data:`SETUP_REPEATS` times, a measured window of
``--seconds``, quiesce, reopen and verify — ends within about 30 s on
the 2-core box the benchmark was sized on (see ``README.md``).
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from typing import Iterator

#: The flush policy and every other engine setting, stated once. fsync is
#: off on purpose (``engine.wal.sync_us`` carries its cost): on the
#: sizing box fsync-per-commit throughput swung 821 -> 1328 ops/s
#: between identical runs, which no bound could hold.
STORE_OPTIONS = {
    "memtable_bytes": 1 << 20,
    "num_memtables": 2,
    "policy": "tiering",
    "size_ratio": 3,
    "scheduler": "greedy",
    "background_maintenance": True,
    "maintenance_threads": 1,
    "block_cache_bytes": 8 << 20,
    "block_codec": "none",
    "filter_kind": "bloom",
    "sync_writes": False,
    "group_commit": False,
}

VALUE_BYTES = 1024
SCAN_LIMIT = 50
#: Share of each measured window that is warm-up (not timed into any
#: percentile or rate).
WARMUP_SHARE = 0.10
#: Keys read back after quiesce -> close -> reopen.
VERIFY_KEYS = 2000
#: How often a run repeats its set-up; ``setup_s`` is the median.
SETUP_REPEATS = 3
#: Load-generating connections on the sizing box: ``min(nproc, 4)`` with
#: nproc = 2. Fixed, not probed, so that every box runs the same
#: per-worker operation streams for a seed.
CONNECTIONS = 2
CLUSTER_SHARDS = 3
CLUSTER_REPLICAS = 1

_FILLER = (bytes(range(256)) * (VALUE_BYTES // 256 + 1))[:VALUE_BYTES]


def key_for(index: int) -> bytes:
    return b"key-%010d" % index


def value_for(index: int, version: int) -> bytes:
    """The only value ``(key, version)`` may ever carry, so any read can be checked."""
    head = b"%010d:%08d:" % (index, version)
    return head + _FILLER[len(head):]


@dataclass(frozen=True)
class Workload:
    """One workload's inputs; why each exists is told in BENCHMARK.json and README.md."""

    name: str
    #: ``engine`` (LSMStore in this process), ``single`` (one KVServer
    #: child) or ``cluster`` (one LocalCluster child).
    topology: str
    #: Keys bulk-loaded at version 0 during set-up (0 = empty store).
    preload: int
    keyspace: int
    #: ``uniform`` or ``zipf`` (scrambled, theta 0.99).
    distribution: str
    #: ``(kind, share)`` pairs; shares sum to 1.
    mix: tuple[tuple[str, float], ...]
    workers: int
    #: Closed-loop operations sent per second of ``--seconds``: about the
    #: rate of the seed commit on the sizing box, so a run lasts roughly
    #: ``--seconds`` there. The *count* is what is fixed — not the
    #: duration — so that both sides of a comparison do the same
    #: flushes and merges.
    closed_ops_per_second: float
    #: Share of ``--seconds`` spent in the closed loop; the rest is an
    #: open loop of puts at ``open_rate`` (0 = no open-loop phase).
    closed_share: float = 1.0
    #: Fixed open-loop arrival rate, ops/s. A constant — never derived
    #: from the closed-loop result — so parent and change face the same
    #: load (about 40% of the closed-loop rate at the seed commit).
    open_rate: float = 0.0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="wire-write",
            topology="single",
            preload=0,
            keyspace=200_000,
            distribution="uniform",
            mix=(("put", 1.0),),
            workers=CONNECTIONS,
            closed_ops_per_second=2400.0,
            closed_share=0.6,
            open_rate=1000.0,
        ),
        Workload(
            name="wire-read",
            topology="single",
            preload=40_000,
            keyspace=40_000,
            distribution="zipf",
            mix=(("get", 0.95), ("scan", 0.05)),
            workers=CONNECTIONS,
            closed_ops_per_second=2800.0,
        ),
        Workload(
            name="engine-mixed",
            topology="engine",
            preload=40_000,
            keyspace=40_000,
            distribution="zipf",
            mix=(("put", 0.50), ("get", 0.45), ("scan", 0.05)),
            workers=1,
            closed_ops_per_second=10000.0,
        ),
        Workload(
            name="cluster-mixed",
            topology="cluster",
            preload=0,
            keyspace=200_000,
            distribution="uniform",
            mix=(("put", 0.5), ("get", 0.5)),
            workers=CONNECTIONS,
            closed_ops_per_second=700.0,
        ),
    )
}


@dataclass(frozen=True)
class Op:
    kind: str
    index: int
    #: The version a put writes; unused for reads.
    version: int = 0


class _Zipf:
    """Scrambled Zipfian ranks over ``n`` keys (theta 0.99, YCSB-style).

    The scramble is a fixed permutation of the keyspace, so hot keys are
    spread over the key order (and over data blocks) instead of sitting
    in the first few.
    """

    def __init__(self, n: int, theta: float = 0.99) -> None:
        total = 0.0
        self._cdf = []
        for rank in range(1, n + 1):
            total += 1.0 / rank**theta
            self._cdf.append(total)
        self._total = total
        self._scramble = list(range(n))
        random.Random(0x5CA1AB1E).shuffle(self._scramble)

    def draw(self, rng: random.Random) -> int:
        rank = bisect.bisect_left(self._cdf, rng.random() * self._total)
        return self._scramble[min(rank, len(self._scramble) - 1)]


_ZIPF_CACHE: dict[int, _Zipf] = {}


def op_stream(workload: Workload, seed: int, worker: int) -> Iterator[Op]:
    """The endless, deterministic operation stream of one worker.

    With several workers, worker ``w`` only ever writes keys whose index
    is ``w`` modulo the worker count, and reads only keys it wrote (or
    preloaded keys, which nobody else overwrites concurrently with a
    differing expectation): operations on one key are therefore strictly
    sequential, and every read has exactly one right answer.
    """
    rng = random.Random(f"{workload.name}:{seed}:{worker}")
    workers = workload.workers
    mix = workload.mix
    zipf = None
    if workload.distribution == "zipf":
        zipf = _ZIPF_CACHE.get(workload.keyspace)
        if zipf is None:
            zipf = _ZIPF_CACHE[workload.keyspace] = _Zipf(workload.keyspace)
    preloaded = workload.preload > 0
    versions: dict[int, int] = {}
    written: list[int] = []
    owned = workload.keyspace // workers

    def draw_index() -> int:
        if zipf is not None:
            return zipf.draw(rng)
        return rng.randrange(owned) * workers + worker

    while True:
        pick = rng.random()
        kind = mix[-1][0]
        for name, share in mix:
            if pick < share:
                kind = name
                break
            pick -= share
        if kind == "put" or (kind == "get" and not preloaded and not written):
            index = draw_index()
            version = versions.get(index, 0 if preloaded else -1) + 1
            versions[index] = version
            if not preloaded and version == 0:
                written.append(index)
            yield Op("put", index, version)
        elif kind == "get":
            if preloaded:
                yield Op("get", draw_index())
            else:
                yield Op("get", written[rng.randrange(len(written))])
        else:
            yield Op("scan", draw_index())


def op_list(workload: Workload, seed: int, worker: int, count: int) -> list[Op]:
    stream = op_stream(workload, seed, worker)
    return [next(stream) for _ in range(count)]


class Model:
    """``key index -> last acknowledged version``; the oracle for every read.

    Preloaded keys start at version 0; other keys are absent until their
    first acknowledged put.
    """

    def __init__(self, workload: Workload) -> None:
        self._preload = workload.preload
        self._versions: dict[int, int] = {}

    def acknowledge(self, op: Op) -> None:
        self._versions[op.index] = op.version

    def expected(self, index: int) -> bytes | None:
        version = self._versions.get(index, 0 if index < self._preload else -1)
        return None if version < 0 else value_for(index, version)

    def check_get(self, op: Op, value: bytes | None) -> bool:
        return value == self.expected(op.index)

    def check_scan(self, op: Op, rows: list[tuple[bytes, bytes]]) -> bool:
        """Rows must be sorted, start at the bound, and carry the model's values.

        Scans only run on fully preloaded keyspaces, so the right answer
        is the next ``SCAN_LIMIT`` consecutive keys.
        """
        stop = min(op.index + SCAN_LIMIT, self._preload)
        if len(rows) != stop - op.index:
            return False
        for offset, (key, value) in enumerate(rows):
            index = op.index + offset
            if key != key_for(index) or value != self.expected(index):
                return False
        return True

    def sample(self, seed: int, count: int) -> list[int]:
        """Key indices to read back after reopen, chosen by the seed."""
        keys = sorted(set(self._versions) | set(range(self._preload)))
        rng = random.Random(f"verify:{seed}")
        if len(keys) <= count:
            return keys
        return rng.sample(keys, count)

    def live_user_bytes(self) -> int:
        keys = len(set(self._versions) | set(range(self._preload)))
        return keys * (len(key_for(0)) + VALUE_BYTES)
