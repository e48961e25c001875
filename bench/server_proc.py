"""The child process that holds the store: one KVServer or one LocalCluster.

Protocol with the parent (``run.py``), one JSON object per line:

* on start, after preload and quiesce, stdout gets ``{"port": N}``;
* stdin ``quiesce`` -> record replication lag, wait for followers, run
  ``flush()`` + ``maintenance()`` on every store, snapshot the counters,
  reply ``{"ok": true}``;
* stdin ``reopen`` -> close servers and stores, open them again from the
  same directory, reply ``{"port": N}``;
* stdin closes -> close everything, write the report (the counters as
  they stood after set-up, at the last quiesce and at the end,
  ``ru_maxrss``) and the spans of a traced run, exit 0.

The parent owns the directory and removes it; this process only ever
writes inside it.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import resource
import sys
import time
from dataclasses import asdict

import trace as spans
from workloads import (
    CLUSTER_REPLICAS,
    CLUSTER_SHARDS,
    STORE_OPTIONS,
    key_for,
    value_for,
)

from repro.cluster import LocalCluster
from repro.engine import LSMStore, StoreOptions
from repro.server import KVServer

PRELOAD_BATCH = 500


def directory_bytes(root: str) -> int:
    total = 0
    for folder, _dirs, files in os.walk(root):
        for name in files:
            total += os.path.getsize(os.path.join(folder, name))
    return total


def preload(store: LSMStore, count: int) -> None:
    """Bulk-load ``count`` keys at version 0 and settle the tree."""
    for start in range(0, count, PRELOAD_BATCH):
        stop = min(count, start + PRELOAD_BATCH)
        store.write_batch([(key_for(i), value_for(i, 0)) for i in range(start, stop)])
    store.flush()
    store.maintenance()


def store_snapshot(store: LSMStore) -> dict:
    """Counters of one store, all from its public surface."""
    signals = store.memory_signals()
    return {
        "stats": asdict(store.stats()),
        "registry": store.obs.registry.snapshot(),
        "cache_hits": signals.cache_hits,
        "cache_misses": signals.cache_misses,
        "cache_evictions": signals.cache_evictions,
        "maintenance_bytes_written": store.rate_limiter.total_admitted_bytes,
    }


class SingleHost:
    """One store behind one KVServer."""

    def __init__(self, directory: str, preload_keys: int) -> None:
        self._directory = os.path.join(directory, "store")
        self._options = StoreOptions(**STORE_OPTIONS)
        self._store = LSMStore.open(self._directory, self._options)
        preload(self._store, preload_keys)
        self._server: KVServer | None = None

    async def start(self) -> int:
        self._server = KVServer(self._store, wire="binary")
        _host, port = await self._server.start()
        return port

    async def counters(self) -> dict:
        return {
            "stores": [store_snapshot(self._store)],
            "server": self._server.metrics.snapshot(),
            "server_registry": await self._server.metrics_snapshot(),
            "directory_bytes": directory_bytes(self._directory),
        }

    async def quiesce(self) -> dict:
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self._store.flush)
        await loop.run_in_executor(None, self._store.maintenance)
        return await self.counters()

    async def reopen(self) -> int:
        await self.close()
        self._store = LSMStore.open(self._directory, self._options)
        return await self.start()

    async def close(self) -> None:
        if self._server is not None:
            await self._server.aclose()
            self._server = None
        self._store.close()


class ClusterHost:
    """A LocalCluster: router, leaders, followers, all in this process."""

    def __init__(self, directory: str, preload_keys: int) -> None:
        if preload_keys:
            raise SystemExit("the cluster topology starts empty")
        self._directory = os.path.join(directory, "cluster")
        self._cluster: LocalCluster | None = None

    async def start(self) -> int:
        self._cluster = LocalCluster(
            self._directory,
            num_shards=CLUSTER_SHARDS,
            options=StoreOptions(**STORE_OPTIONS),
            replicas=CLUSTER_REPLICAS,
            ack_policy="leader_only",
            wire="binary",
        )
        _host, port = await self._cluster.start()
        return port

    def _stores(self) -> list[LSMStore]:
        followers = [s for group in self._cluster.replica_stores for s in group]
        return list(self._cluster.store.engines()) + followers

    def _lag_bytes(self) -> int:
        return sum(
            follower["lag_bytes"]
            for backend in self._cluster.backends
            for follower in backend.shipper.status()["followers"]
        )

    async def counters(self) -> dict:
        return {
            "stores": [store_snapshot(store) for store in self._stores()],
            "router": self._cluster.router.metrics.snapshot(),
            "leader_registries": [
                backend.obs.registry.snapshot() for backend in self._cluster.backends
            ],
            "lag_bytes": self._lag_bytes(),
            "directory_bytes": directory_bytes(self._directory),
        }

    async def quiesce(self) -> dict:
        lag_at_end = self._lag_bytes()
        deadline = time.monotonic() + 30.0
        while self._lag_bytes() > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        loop = asyncio.get_running_loop()
        for store in self._stores():
            await loop.run_in_executor(None, store.flush)
            await loop.run_in_executor(None, store.maintenance)
        return dict(await self.counters(), lag_bytes_end=lag_at_end)

    async def reopen(self) -> int:
        await self.close()
        return await self.start()

    async def close(self) -> None:
        if self._cluster is not None:
            await self._cluster.aclose()
            self._cluster = None


async def serve(args) -> dict:
    host_class = ClusterHost if args.topology == "cluster" else SingleHost
    host = host_class(args.dir, args.preload)
    report: dict = {}
    try:
        port = await host.start()
        report["baseline"] = await host.counters()
        print(json.dumps({"port": port}), flush=True)
        loop = asyncio.get_running_loop()
        while True:
            line = await loop.run_in_executor(None, sys.stdin.readline)
            command = line.strip()
            if not line:
                break
            if command == "quiesce":
                report["quiesce"] = await host.quiesce()
                reply = {"ok": True}
            elif command == "reopen":
                reply = {"port": await host.reopen()}
            else:
                reply = {"ok": False, "error": f"unknown command {command!r}"}
            print(json.dumps(reply), flush=True)
        report["final"] = await host.counters()
    finally:
        await host.close()
    return report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--topology", choices=("single", "cluster"), required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--preload", type=int, default=0)
    parser.add_argument("--trace-out", default="")
    args = parser.parse_args()
    recorder = spans.install() if args.trace_out else None
    report = asyncio.run(serve(args))
    report["ru_maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(args.report, "w", encoding="utf-8") as sink:
        json.dump(report, sink)
    if recorder is not None:
        recorder.dump(args.trace_out)


if __name__ == "__main__":
    main()
