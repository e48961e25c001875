"""Every callable ``bench/trace.py`` wraps from outside still exists.

The tracer patches the layers' public callables by name, at run time; a
rename under ``src/`` breaks ``bench/run.py --trace 1`` and nothing in
``src/`` or the rest of this suite notices. This test installs and
removes the wrappers against the current tree and names what is gone.
"""

import asyncio
import importlib.util
from pathlib import Path

from repro.engine import LSMStore, StoreOptions
from repro.replication import ReplicatedKVServer
from repro.server.client import KVClient

TRACE_PY = Path(__file__).resolve().parent.parent / "bench" / "trace.py"


def _load_tracer():
    # By path, under another name: as ``trace`` it would shadow the
    # standard library's module.
    spec = importlib.util.spec_from_file_location("bench_trace", TRACE_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _name(owner) -> str:
    return getattr(owner, "__qualname__", None) or owner.__name__


def test_every_patched_name_exists_and_uninstall_restores_it(monkeypatch):
    tracer = _load_tracer()
    missing = []
    patch = tracer.SpanRecorder.patch

    def checked_patch(self, owner, attribute, wrap):
        if hasattr(owner, attribute):
            patch(self, owner, attribute, wrap)
        else:
            missing.append((_name(owner), attribute))

    monkeypatch.setattr(tracer.SpanRecorder, "patch", checked_patch)
    recorder = tracer.install()
    try:
        patched = list(recorder._patched)
        assert missing == [], (
            f"bench/trace.py patches names that are gone: {missing}"
        )
        assert patched, "install() wrapped nothing"
        for owner, attribute, original in patched:
            assert getattr(owner, attribute) is not original
    finally:
        recorder.uninstall()
    for owner, attribute, original in patched:
        assert getattr(owner, attribute) is original, (_name(owner), attribute)


def test_a_shipped_span_is_named_by_its_verb(tmp_path, monkeypatch):
    """``_wrap_request`` books a leader's shipping apart from a router's
    hops by looking at ``message["op"]``: whatever the wire does with a
    span, it has to reach ``KVClient.request`` as a dict that says
    ``REPLICATE``."""
    tracer = _load_tracer()
    recorder = tracer.SpanRecorder()
    seen = []
    request = KVClient.request

    async def recording(self, message):
        seen.append(message)
        return await request(self, message)

    monkeypatch.setattr(
        KVClient,
        "request",
        tracer._wrap_request(recorder, "server.client.request", recording),
    )
    options = StoreOptions(background_maintenance=False)

    async def scenario():
        with LSMStore.open(str(tmp_path / "l"), options) as leader_store, \
                LSMStore.open(str(tmp_path / "f"), options) as follower_store:
            async with ReplicatedKVServer(
                follower_store, role="follower", ack_policy="all"
            ) as follower, ReplicatedKVServer(
                leader_store, role="leader", ack_policy="all"
            ) as leader:
                await leader.become_leader(
                    0, [KVClient(*follower.address, pool_size=1)]
                )
                while leader.shipper.acked_cursors() != [0]:
                    await asyncio.sleep(0.01)
                async with KVClient(*leader.address) as client:
                    await client.put(b"k", b"v")  # acked by the follower
                assert follower_store.get(b"k") == b"v"

    asyncio.run(scenario())
    spans = [m for m in seen if isinstance(m, dict) and "span" in m]
    assert [m["op"] for m in spans] == ["REPLICATE", "REPLICATE"]  # reset, log
    assert all(isinstance(m["span"], (bytes, bytearray)) for m in spans)
    names = recorder.export()["names"]
    booked = [names[name_id] for name_id, *_ in recorder.export()["spans"]]
    # the probe and both spans are shipping; only the test's put is a hop
    assert booked.count("replication.shipper.request") == 3
    assert booked.count("server.client.request") == 1
