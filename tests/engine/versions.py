"""Check a :class:`CompactionManager`'s installed :class:`Version`
against one built anew from the manifest's live runs, the quarantine
set and the memtables — what every install must amount to."""

import os

from repro.core.components import Component
from repro.engine import QuarantineEntry
from repro.engine.runs import Run
from repro.engine.version import build_version


def _shape(version):
    """A version's content, comparable across two builds: memtables by
    identity, runs by the reader objects they name."""
    return {
        "memtables": [id(memtable) for memtable in version.memtables],
        "sealed": [id(memtable) for memtable in version.sealed],
        "plan": [
            (run_id, element)
            if isinstance(element, QuarantineEntry)
            else (run_id, [id(reader) for reader in element.files])
            for run_id, element in version.plan
        ],
        "snapshot": [
            (c.uid, c.level, c.size_bytes, c.entry_count)
            for c in version.snapshot.components
        ],
        "levels": version.levels,
        "write_stalled": version.write_stalled,
        "write_headroom": version.write_headroom,
    }


def rebuilt(manager):
    """The version the manager's state says is current: every live
    run of the manifest, read through the manager's open reader of each
    file, fenced by its quarantine set, under the installed memtables."""
    installed = manager.version
    components, runs = {}, {}
    for record in manager._manifest.live_runs():
        if all(name in manager._files for name in record.files):
            run = runs[record.run_id] = Run(
                tuple(manager._files[name] for name in record.files)
            )
            size, entries = run.data_bytes, run.entry_count
        else:  # unreadable at open: quarantined, sized by its files
            size, entries = sum(
                os.path.getsize(path)
                for path in map(manager._path, record.files)
                if os.path.exists(path)
            ), 0
        components[record.run_id] = Component(
            uid=record.run_id,
            level=record.level,
            size_bytes=float(size),
            entry_count=float(entries),
            handle=record,
        )
    return build_version(
        installed.active,
        installed.sealed,
        components,
        runs,
        manager.quarantine,
        manager._constraint,
    )


def current_version(manager):
    """The installed version, after checking that it equals
    :func:`rebuilt` and names as many components as the manager holds."""
    installed = manager.version
    assert _shape(installed) == _shape(rebuilt(manager))
    assert manager.component_count == len(installed.plan)
    assert installed.memtables[0] is installed.active
    return installed
