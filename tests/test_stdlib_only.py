"""The serving stack needs only the standard library.

numpy is the simulator's dependency (``repro.sim``, ``repro.metrics``,
``repro.workloads``, ``repro.harness``, the load generator); the engine,
the server, the cluster and replication must neither need it nor load
it, since every module a serving process imports is resident memory
and start-up time nobody asked for. Each check runs in a fresh
interpreter: what an import pulls in is only visible in a process that
had not imported it yet.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

import pytest

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))

#: What the serving stack must not load.
SIMULATION_ONLY = (
    "numpy",
    "repro.sim",
    "repro.metrics",
    "repro.workloads",
    "repro.harness",
)

SUBPACKAGES = (
    "repro",
    "repro.cli",
    "repro.cluster",
    "repro.core",
    "repro.engine",
    "repro.errors",
    "repro.faults",
    "repro.harness",
    "repro.memory",
    "repro.metrics",
    "repro.obs",
    "repro.replication",
    "repro.scrub",
    "repro.server",
    "repro.sim",
    "repro.workloads",
)


def run_fresh(source: str, tmp_path) -> str:
    """Run ``source`` in a new interpreter; its stdout (fails on error)."""
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(source)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
        cwd=str(tmp_path),
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("module", SUBPACKAGES)
def test_every_subpackage_imports_first(module, tmp_path):
    run_fresh(f"import {module}", tmp_path)


@pytest.mark.parametrize(
    "module", ["repro.cli", "repro.cluster", "repro.core", "repro.replication"]
)
def test_serving_imports_load_no_simulation_module(module, tmp_path):
    loaded = run_fresh(
        f"""
        import sys
        import {module}
        print(sorted(set({SIMULATION_ONLY!r}) & set(sys.modules)))
        """,
        tmp_path,
    )
    assert loaded.strip() == "[]"


def test_store_and_server_work_without_numpy(tmp_path):
    """Write, flush, merge and read back, then a PUT/GET over TCP, in a
    process where ``import numpy`` raises."""
    out = run_fresh(
        """
        import sys
        sys.modules["numpy"] = None

        import asyncio
        from repro.engine import LSMStore, StoreOptions
        from repro.server import KVClient, KVServer

        options = StoreOptions(
            memtable_bytes=16 * 1024, policy="tiering", size_ratio=3,
            levels=3, background_maintenance=False,
        )
        keys = [b"key-%05d" % i for i in range(2000)]
        with LSMStore.open("db", options) as store:
            for key in keys:
                store.put(key, key[::-1])
            store.flush()
            store.maintenance()
            assert store.stats().merges_completed > 0
            assert all(store.get(key) == key[::-1] for key in keys)

            async def wire():
                async with KVServer(store) as server:
                    async with KVClient(*server.address) as client:
                        await client.put(b"over", b"tcp")
                        assert await client.get(b"over") == b"tcp"
                        assert await client.get(keys[7]) == keys[7][::-1]

            asyncio.run(wire())
        print("ok")
        """,
        tmp_path,
    )
    assert out.strip() == "ok"
