"""Engine microbenchmarks: the real storage engine's operation costs.

Not a paper figure — this benchmark keeps the storage engine honest as a
library artifact: sustained put throughput through WAL + memtable +
flush + policy-driven compaction, point-lookup and scan costs across
multiple components, and the relative overhead of eager secondary-index
maintenance (Section 7's trade-off at engine level).
"""

import struct

from repro.engine import IndexedStore, LSMStore, StoreOptions

from _common import banner, show, table_block

OPTIONS = StoreOptions(
    memtable_bytes=256 * 1024,
    policy="tiering",
    size_ratio=3,
    scheduler="greedy",
    levels=4,
)

N_WRITES = 20_000
KEYSPACE = 4_000


def _fill(store, count=N_WRITES):
    for i in range(count):
        store.put(f"user{i % KEYSPACE:08d}".encode(), b"v" * 100)


def test_engine_put_throughput(benchmark, tmp_path, capsys):
    with LSMStore.open(str(tmp_path / "db"), OPTIONS) as store:
        benchmark.pedantic(_fill, args=(store,), rounds=1, iterations=1)
        stats = store.stats()
        text = "\n".join(
            [
                banner("Engine", "sustained put throughput (real I/O path)"),
                table_block(
                    [
                        {
                            "writes": N_WRITES,
                            "components": stats.disk_components,
                            "merges": stats.merges_completed,
                            "stalls": stats.write_stalls,
                        }
                    ]
                ),
            ]
        )
        show(capsys, text, "engine_put_throughput.txt")
        assert stats.merges_completed >= 1
        assert store.get(b"user00000000") is not None


def test_engine_point_lookups(benchmark, tmp_path, capsys):
    with LSMStore.open(str(tmp_path / "db"), OPTIONS) as store:
        _fill(store)
        store.maintenance()
        keys = [f"user{i:08d}".encode() for i in range(0, KEYSPACE, 7)]

        def lookups():
            hits = 0
            for key in keys:
                if store.get(key) is not None:
                    hits += 1
            return hits

        hits = benchmark.pedantic(lookups, rounds=1, iterations=1)
        show(
            capsys,
            banner("Engine", "point lookups across merged components")
            + f"\nlookups={len(keys)} hits={hits}",
            "engine_point_lookups.txt",
        )
        assert hits == len(keys)


def test_engine_eager_vs_lazy_ingest(benchmark, tmp_path, capsys):
    def extract(value: bytes) -> int:
        return struct.unpack_from("<I", value, 0)[0]

    def ingest(strategy):
        with IndexedStore(
            str(tmp_path / strategy),
            extractors={"field": extract},
            strategy=strategy,
            options=OPTIONS,
        ) as store:
            for i in range(6_000):
                store.put(
                    f"user{i % 1500:08d}".encode(),
                    struct.pack("<I", i % 97) + b"#" * 96,
                )
        return strategy

    import time

    timings = {}

    def both():
        for strategy in ("lazy", "eager"):
            started = time.perf_counter()
            ingest(strategy)
            timings[strategy] = time.perf_counter() - started
        return timings

    benchmark.pedantic(both, rounds=1, iterations=1)
    rows = [
        {"strategy": strategy, "seconds": seconds,
         "writes_per_s": 6_000 / seconds}
        for strategy, seconds in timings.items()
    ]
    show(
        capsys,
        banner("Engine", "secondary-index maintenance cost "
                         "(Section 7 at engine level)")
        + "\n" + table_block(rows),
        "engine_secondary_ingest.txt",
    )
    # eager pays a point lookup per write: it must be slower
    assert timings["eager"] > timings["lazy"]
