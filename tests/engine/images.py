"""Reset images for tests: a fresh store's runs, as a leader freezes
them, as a shipper chunks them, or installed on a follower directly."""

from __future__ import annotations

import contextlib
import os

from repro.engine import LSMStore, StoreOptions
from repro.server import binproto, protocol

LEADER_OPTIONS = StoreOptions(background_maintenance=False)


@contextlib.contextmanager
def frozen(directory, rows, options=LEADER_OPTIONS):
    """The run image of a store at ``directory`` after ``rows``."""
    with LSMStore.open(str(directory), options) as leader:
        if rows:
            leader.write_batch(rows)
        image = leader.run_image()
        try:
            yield image
        finally:
            image.close()


def layout(image):
    """``(level, file sizes)`` per run of ``image``, oldest first."""
    sizes = {name: size for name, _fd, size in image.files}
    return [
        (run.level, [sizes[name] for name in run.files])
        for run in image.records
    ]


def chunks(image, limit=1 << 20, epoch=0, lineage=7, start=None):
    """The chunks a shipper sends of ``image``, ``limit`` bytes at most,
    as the follower's server hands them to its applier."""
    pieces = [
        (file, fd, offset, min(limit, size - offset))
        for file, (_name, fd, size) in enumerate(image.files)
        for offset in range(0, size, limit)
    ] or [(0, None, 0, 0)]
    return [
        protocol.replicate_payload(
            binproto.decode_request(
                binproto.encode_request(
                    protocol.reset_chunk_request(
                        epoch,
                        lineage,
                        image.lsn if start is None else start,
                        os.pread(fd, length, offset) if length else b"",
                        layout=layout(image),
                        file=file,
                        offset=offset,
                        first=number == 0,
                        final=number == len(pieces) - 1,
                    )
                )
            )
        )
        for number, (file, fd, offset, length) in enumerate(pieces)
    ]


def install(store, image):
    """Install ``image`` on ``store``: each file copied under a name of
    the store's own, then the one manifest edit."""
    names = iter(store.new_run_names(len(image.files)))
    files = iter(image.files)
    runs = []
    for level, sizes in layout(image):
        run = []
        for _size in sizes:
            _name, fd, size = next(files)
            run.append(next(names))
            with open(os.path.join(store.directory, run[-1]), "wb") as copy:
                copy.write(os.pread(fd, size, 0))
        runs.append((level, tuple(run)))
    store.install_image(runs)


def unnamed_runs(store):
    """``*.run`` files of ``store``'s directory no live run names."""
    named = {name for record in store.live_runs() for name in record.files}
    return sorted(
        name
        for name in os.listdir(store.directory)
        if name.endswith(".run") and name not in named
    )
