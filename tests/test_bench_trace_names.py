"""Every callable ``bench/trace.py`` wraps from outside still exists.

The tracer patches the layers' public callables by name, at run time; a
rename under ``src/`` breaks ``bench/run.py --trace 1`` and nothing in
``src/`` or the rest of this suite notices. This test installs and
removes the wrappers against the current tree and names what is gone.
"""

import importlib.util
from pathlib import Path

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
