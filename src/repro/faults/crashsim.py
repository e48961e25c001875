"""The crash-recovery property harness (CrashMonkey/ALICE-style).

The property under test is the **recovered-prefix invariant**. Run a
seeded workload of ``put``/``delete`` operations against a store with
``sync_writes=True``; crash it; reopen the directory. Then:

* every operation the store *acked* (the call returned) must be
  present — acked-durable writes cannot be lost;
* no operation beyond the last *issued* one may appear — recovery must
  not invent phantom writes;
* the recovered state must equal ``apply(ops[:j])`` for a single cut
  ``j`` with ``acked <= j <= issued`` — a crash mid-append may keep or
  lose the in-flight operation, but must not tear *across* operations;
* :func:`~repro.engine.integrity.verify_store` must report clean.

Two generators of crash states exercise the invariant:

:func:`wal_prefix_sweep`
    Byte-granular enumeration. Run the workload once, recording the WAL
    offset after every append, then materialize a crash image truncated
    at every frame boundary — and at *every byte* of the final frame —
    and recover each one. This is the "the disk stopped mid-sector"
    adversary; no fault plan is needed because truncation simulates it
    after the fact.

:func:`fault_scenarios`
    Targeted injection via :class:`~repro.faults.plan.FaultPlan`: fail
    or tear a specific WAL append, fail an fsync, kill an SSTable flush
    mid-write, tear a manifest record — then crash immediately
    (directory snapshot + :meth:`~repro.engine.LSMStore.crash`) and
    recover the image.

Both return a :class:`CrashSimReport`; ``python -m repro crashsim``
and the acceptance tests drive :func:`run_crash_harness`, which runs
the full battery.
"""

from __future__ import annotations

import os
import random
import shutil
from dataclasses import dataclass, field

from ..engine.datastore import LSMStore
from ..engine.integrity import verify_store
from ..engine.options import StoreOptions
from ..engine.quarantine import QuarantineSet
from ..engine.sstable import SSTableReader
from ..errors import DataCorruptError, FaultInjectedError
from .plan import FaultPlan, FaultRule

#: Operations in the default workload (the acceptance bar is 500).
DEFAULT_NUM_OPS = 500

#: :func:`wal_prefix_sweep` checks every this-many-th frame boundary.
BOUNDARY_STRIDE = 1

#: Seeded byte offsets :func:`compressed_block_scenarios` flips, one an image.
CORRUPT_POSITIONS = 8

_WAL_FILE = "wal.log"


def build_workload(
    num_ops: int, seed: int = 0, keyspace: int = 64, value_bytes: int = 16
) -> list[tuple[bytes, bytes | None]]:
    """A seeded mix of puts (~85%) and deletes over a small keyspace.

    Small keys collide often, so recovery must get shadowing and
    tombstones right, not just replay disjoint inserts.
    """
    rng = random.Random(seed)
    ops: list[tuple[bytes, bytes | None]] = []
    for index in range(num_ops):
        key = f"key-{rng.randrange(keyspace):05d}".encode()
        if rng.random() < 0.15:
            ops.append((key, None))
        else:
            payload = bytes(
                rng.randrange(256) for _ in range(value_bytes - 8)
            )
            ops.append((key, f"{index:08d}".encode() + payload))
    return ops


def apply_ops(
    ops: list[tuple[bytes, bytes | None]],
) -> dict[bytes, bytes]:
    """The model: last-writer-wins map with deletes removing keys."""
    state: dict[bytes, bytes] = {}
    for key, value in ops:
        if value is None:
            state.pop(key, None)
        else:
            state[key] = value
    return state


@dataclass
class CrashSimReport:
    """Outcome of one harness run."""

    crash_points: int = 0
    failures: list[str] = field(default_factory=list)
    fired: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every crash point recovered correctly."""
        return not self.failures

    def merge(self, other: "CrashSimReport") -> None:
        """Fold another report's points and failures into this one."""
        self.crash_points += other.crash_points
        self.failures.extend(other.failures)
        self.fired.extend(other.fired)

    def summary(self) -> str:
        """One-paragraph human summary."""
        lines = [
            f"crash points checked: {self.crash_points}",
            f"injected faults fired: {len(self.fired)}",
            f"failures: {len(self.failures)}",
        ]
        lines.extend(f"  FAIL {failure}" for failure in self.failures[:20])
        if len(self.failures) > 20:
            lines.append(f"  ... and {len(self.failures) - 20} more")
        return "\n".join(lines)


def _check_recovery(
    image: str,
    ops: list[tuple[bytes, bytes | None]],
    acked: int,
    issued: int,
    label: str,
    report: CrashSimReport,
) -> None:
    """Reopen ``image`` and assert the recovered-prefix invariant."""
    report.crash_points += 1
    try:
        with LSMStore.open(image) as store:
            recovered = dict(store.scan())
    except Exception as error:  # noqa: BLE001 — a failure to report
        report.failures.append(f"{label}: reopen raised {error!r}")
        return
    for cut in range(acked, issued + 1):
        if recovered == apply_ops(ops[:cut]):
            break
    else:
        expected = apply_ops(ops[:acked])
        missing = sorted(set(expected) - set(recovered))
        extra = sorted(set(recovered) - set(apply_ops(ops[:issued])))
        report.failures.append(
            f"{label}: recovered state matches no prefix in "
            f"[{acked}, {issued}] (missing {missing[:3]!r}, "
            f"phantom {extra[:3]!r})"
        )
        return
    integrity = verify_store(image)
    if not integrity.clean:
        report.failures.append(
            f"{label}: verify_store found {integrity.problems}"
        )


def wal_prefix_sweep(
    workdir: str,
    num_ops: int = DEFAULT_NUM_OPS,
    seed: int = 0,
) -> CrashSimReport:
    """Crash-enumerate the WAL: every frame boundary, every tail byte.

    The live store uses a memtable far larger than the workload so all
    state stays WAL-resident — crash images are then just truncated
    copies of the log, which makes the enumeration byte-exact: image
    ``k`` holds frames ``[0, k)`` plus, for the tail sweep, a torn
    piece of frame ``k``. Acked == frame count in the image for
    boundary cuts; a torn tail must recover to exactly the boundary
    below it. :data:`BOUNDARY_STRIDE` subsamples the boundary cuts (the
    byte-granular tail sweep always runs in full).
    """
    ops = build_workload(num_ops, seed)
    live = os.path.join(workdir, "live")
    options = StoreOptions(
        sync_writes=True, memtable_bytes=1 << 30, block_cache_bytes=0
    )
    offsets: list[int] = [0]
    store = LSMStore.open(live, options)
    try:
        wal_path = os.path.join(live, _WAL_FILE)
        for key, value in ops:
            if value is None:
                store.delete(key)
            else:
                store.put(key, value)
            offsets.append(os.path.getsize(wal_path))
        with open(wal_path, "rb") as wal:
            wal_bytes = wal.read()
        with open(os.path.join(live, "MANIFEST"), "rb") as manifest_file:
            manifest_bytes = manifest_file.read()
    finally:
        store.crash()

    report = CrashSimReport()
    image = os.path.join(workdir, "image")

    def make_image(wal_prefix: bytes) -> str:
        if os.path.exists(image):
            shutil.rmtree(image)
        os.makedirs(image)
        with open(os.path.join(image, _WAL_FILE), "wb") as wal:
            wal.write(wal_prefix)
        with open(os.path.join(image, "MANIFEST"), "wb") as manifest:
            manifest.write(manifest_bytes)
        return image

    # Every frame boundary: the store crashed between two appends.
    for index in range(0, len(offsets), BOUNDARY_STRIDE):
        cut = offsets[index]
        _check_recovery(
            make_image(wal_bytes[:cut]),
            ops,
            acked=index,
            issued=index,
            label=f"boundary[{index}]@{cut}B",
            report=report,
        )
    # Byte-granular sweep over the last frame: the torn-tail adversary.
    # Every partial byte count must recover to the boundary below.
    for cut in range(offsets[-2] + 1, offsets[-1]):
        _check_recovery(
            make_image(wal_bytes[:cut]),
            ops,
            acked=len(ops) - 1,
            issued=len(ops),
            label=f"torn-tail@{cut}B",
            report=report,
        )
    if os.path.exists(image):
        shutil.rmtree(image)
    return report


def _run_with_plan(
    directory: str,
    ops: list[tuple[bytes, bytes | None]],
    options: StoreOptions,
) -> tuple[int, int]:
    """Drive ``ops`` until the plan's fault stops the store.

    Returns ``(acked, issued)``: operations completed versus attempted.
    A fault that fires during inline maintenance (flush/merge) aborts
    the write that triggered it, so that write counts as issued only.
    """
    acked = 0
    store = LSMStore.open(directory, options)
    try:
        for key, value in ops:
            try:
                if value is None:
                    store.delete(key)
                else:
                    store.put(key, value)
            except FaultInjectedError:
                return acked, acked + 1
            acked += 1
        return acked, acked
    finally:
        store.crash()


def fault_scenarios(workdir: str, seed: int = 0) -> CrashSimReport:
    """Targeted injected-fault crashes across WAL, SSTable, manifest."""
    # A wide keyspace keeps most puts fresh (updates net out of the
    # memtable byte count), so the 4 KiB memtables below really rotate.
    ops = build_workload(160, seed, keyspace=4096, value_bytes=64)
    # Ascending keys flush key-disjoint runs, of enough keys each that
    # their merge links their files: its edit is the fourth manifest
    # write, after three flushes'.
    ascending = [
        (b"key-%05d" % index, b"%08d" % index) for index in range(3000)
    ]
    report = CrashSimReport()
    # Small memtables force real flushes (hence SSTable and manifest
    # traffic) inside a 120-op run.
    flushing = dict(
        memtable_bytes=4096, block_cache_bytes=0, sync_writes=True
    )
    wal_only = dict(
        memtable_bytes=1 << 30, block_cache_bytes=0, sync_writes=True
    )
    scenarios = [
        ("wal-write-fail", wal_only, FaultRule("wal.write", 40, "fail")),
        (
            "wal-torn-append",
            wal_only,
            FaultRule("wal.write", 55, "torn", keep_bytes=7),
        ),
        ("wal-fsync-fail", wal_only, FaultRule("wal.fsync", 70, "fail")),
        (
            "sstable-mid-flush",
            flushing,
            FaultRule("sstable.write", 2, "fail"),
        ),
        (
            "manifest-torn-add",
            flushing,
            FaultRule("manifest.write", 1, "torn", keep_bytes=10),
        ),
        (
            "manifest-torn-link",
            dict(flushing, memtable_bytes=32 * 1024),
            FaultRule("manifest.write", 3, "torn", keep_bytes=10),
        ),
    ]
    for name, base, rule in scenarios:
        plan = FaultPlan([rule], seed=seed)
        live = os.path.join(workdir, f"scenario-{name}")
        options = StoreOptions(fault_plan=plan, **base)
        workload = ascending if name == "manifest-torn-link" else ops
        acked, issued = _run_with_plan(live, workload, options)
        if not plan.fired:
            report.crash_points += 1
            report.failures.append(
                f"{name}: fault never fired (acked {acked}) — "
                "the scenario is miswired"
            )
            continue
        report.fired.extend(f"{name}:{entry}" for entry in plan.fired)
        image = os.path.join(workdir, f"image-{name}")
        shutil.copytree(live, image)
        _check_recovery(image, workload, acked, issued, name, report)
    return report


def compressed_block_scenarios(workdir: str, seed: int = 0) -> CrashSimReport:
    """At-rest corruption inside a *compressed* data block.

    The version-2 block CRC covers the compressed bytes, so a flipped
    bit must be detected *before* any decompression is attempted — a
    corrupt DEFLATE stream fed to the codec could otherwise
    "successfully" inflate to garbage. This sweep builds a zlib-coded
    store over a compressible workload, flips one byte at each of
    :data:`CORRUPT_POSITIONS` seeded offsets strictly inside the first
    run's first compressed block (header and CRC excluded — the payload
    is the hard case),
    and for each image asserts the survival contract: every read
    returns the model's value or refuses with
    :class:`~repro.errors.DataCorruptError`; at least one read detects;
    the quarantine registry records the run; never a wrong answer.
    """
    rng = random.Random(seed)
    live = os.path.join(workdir, "live")
    options = StoreOptions(
        block_codec="zlib",
        sync_writes=True,
        memtable_bytes=1 << 30,
        block_cache_bytes=0,
    )
    model: dict[bytes, bytes] = {}
    with LSMStore.open(live, options) as store:
        for index in range(256):
            key = f"key-{index:05d}".encode()
            value = (f"payload-{index:05d}:" * 8).encode()
            store.put(key, value)
            model[key] = value
        store.flush()
        store.maintenance()
        runs = store.live_runs()
    report = CrashSimReport()
    if not runs:
        report.crash_points += 1
        report.failures.append(
            "compressed-block: store produced no runs — miswired"
        )
        return report
    run_file = runs[0].files[0]
    reader = SSTableReader(os.path.join(live, run_file))
    try:
        if reader.codec != "zlib":
            report.crash_points += 1
            report.failures.append(
                f"compressed-block: run codec is {reader.codec!r}, "
                "not zlib — the workload was not compressible"
            )
            return report
        block_off, block_len = reader.block_span(0)
    finally:
        reader.close()
    # Flip bytes strictly inside the compressed payload: past the
    # 5-byte block header, short of the 4-byte CRC suffix.
    payload_lo = block_off + 5
    payload_hi = block_off + block_len - 4
    targets = sorted(
        rng.sample(range(payload_lo, payload_hi),
                   min(CORRUPT_POSITIONS, payload_hi - payload_lo))
    )
    for position in targets:
        label = f"compressed-block@{position}B"
        report.crash_points += 1
        image = os.path.join(workdir, "image")
        if os.path.exists(image):
            shutil.rmtree(image)
        shutil.copytree(live, image)
        with open(os.path.join(image, run_file), "r+b") as damaged:
            damaged.seek(position)
            original = damaged.read(1)
            damaged.seek(position)
            damaged.write(bytes([original[0] ^ 0xFF]))
        detections = 0
        wrong = 0
        with LSMStore.open(image, options) as store:
            for key, value in model.items():
                try:
                    got = store.get(key)
                except DataCorruptError:
                    detections += 1
                    continue
                if got != value:
                    wrong += 1
            quarantined = [e.run_id for e in store.quarantined_entries()]
        if wrong:
            report.failures.append(
                f"{label}: {wrong} wrong answer(s) served from a "
                "corrupt compressed block"
            )
        if not detections:
            report.failures.append(
                f"{label}: corruption never detected "
                "(CRC did not fence the compressed payload)"
            )
        elif not quarantined:
            report.failures.append(
                f"{label}: detected but run never quarantined"
            )
        else:
            report.fired.append(f"{label}:quarantined-run-{quarantined[0]}")
        # The registry must survive a reopen, and the quarantine file
        # itself must agree with what the store reported.
        if detections and QuarantineSet(image).entries() == []:
            report.failures.append(
                f"{label}: quarantine registry empty after close"
            )
    image = os.path.join(workdir, "image")
    if os.path.exists(image):
        shutil.rmtree(image)
    return report


def run_crash_harness(
    workdir: str, num_ops: int = DEFAULT_NUM_OPS, seed: int = 0
) -> CrashSimReport:
    """The full battery: byte-granular sweep, injected-fault scenarios,
    and the compressed-block at-rest corruption sweep."""
    report = wal_prefix_sweep(
        os.path.join(workdir, "sweep"), num_ops=num_ops, seed=seed
    )
    report.merge(fault_scenarios(os.path.join(workdir, "faults"), seed))
    report.merge(
        compressed_block_scenarios(os.path.join(workdir, "blocks"), seed)
    )
    return report
