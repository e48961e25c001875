"""Cluster chaos runner: kill a shard mid-load, measure the blast radius.

:func:`run_chaos` boots a :class:`~repro.cluster.LocalCluster`, drives a
seeded write stream through the router, and at scheduled points kills
and restores one shard's backend server. Throughout, it keeps score:

* **error budget** — every op is classified as acked, failed fast with
  ``SHARD_DOWN``, or failed otherwise; fail-fast latency on the dead
  range and P99 latency on surviving ranges are tracked separately
  (the survivors are supposed not to notice).
* **degradation honesty** — a mid-outage scatter scan must come back
  ``degraded`` naming exactly the killed shard.
* **recovery** — after restore, the run measures the time until a write
  to the killed range succeeds again, and records the shard breaker's
  closed→open→half-open→closed transition trail.
* **zero lost acked writes** — after the dust settles, every acked
  key is read back and compared against the model.

With ``replicas > 0`` the schedule becomes a **leader kill**: the dead
leader is never restored; recovery means the router noticed the open
breaker and promoted that shard's most-caught-up follower. The report
then additionally scores promotions, post-failover epochs, and (with
``read_from_replica``) whether mid-outage scans were served by replicas
and how stale they admitted to being. The acceptance bar shifts
accordingly — no degraded scan is required when a follower can serve,
but zero lost acked writes and at least one promotion are.

The run is seeded and scheduled by op index, so two runs with the same
arguments kill the same shard at the same point in the same stream;
wall-clock enters only through the breaker cooldown and pacing sleeps.
``python -m repro chaos`` prints the report and exits non-zero unless
:attr:`ChaosReport.ok`.
"""

from __future__ import annotations

import asyncio
import os
import random
import time
from dataclasses import asdict, dataclass, field

from ..cluster import LocalCluster
from ..cluster.breaker import CLOSED
from ..cluster.ring import HashRing
from ..engine.options import StoreOptions
from ..engine.sstable import _FOOTER as _SSTABLE_FOOTER
from ..errors import (
    ConfigurationError,
    RequestFailedError,
    RetriesExhaustedError,
    ServerError,
)
from ..metrics.percentiles import percentile_profile
from ..obs.events import CORRUPTION_QUARANTINE
from ..server import protocol
from ..server.client import KVClient
from ..server.service import in_thread

#: :func:`run_chaos`'s shard engines: no block cache, so reads see disk.
CHAOS_OPTIONS = StoreOptions(block_cache_bytes=0)

#: :func:`run_corruption_chaos`'s: small memtables leave runs to corrupt,
#: and a fast scrub makes background detection compete with the load.
CORRUPTION_CHAOS_OPTIONS = CHAOS_OPTIONS.with_(
    memtable_bytes=4096, background_maintenance=True, scrub_interval=0.2
)

#: Seconds :func:`run_chaos` waits for the killed range to take writes
#: again, and :func:`run_corruption_chaos` for the quarantine to clear.
RECOVERY_DEADLINE, REPAIR_DEADLINE = 10.0, 15.0


@dataclass
class ChaosReport:
    """Scorecard of one chaos run."""

    ops_total: int = 0
    acked: int = 0
    shard_down_fast_fails: int = 0
    other_errors: int = 0
    degraded_scan_seen: bool = False
    degraded_scan_correct: bool = False
    surviving_p99: float = 0.0
    fail_fast_max: float = 0.0
    recovery_seconds: float = -1.0
    breaker_transitions: list[tuple[str, str]] = field(
        default_factory=list
    )
    lost_acked: int = 0
    final_health: dict[str, str] = field(default_factory=dict)
    replicas: int = 0
    ack_policy: str = "leader_only"
    promotions: int = 0
    shard_epochs: list[int] = field(default_factory=list)
    replica_scan_seen: bool = False
    max_staleness_bytes: int = 0

    @property
    def recovered(self) -> bool:
        """Did writes to the killed range succeed again post-restore?

        In a replicated run "restore" never happens — recovery means a
        follower was promoted and took the killed range's writes.
        """
        return self.recovery_seconds >= 0.0

    @property
    def ok(self) -> bool:
        """The acceptance bar: degrade honestly, recover fully.

        Replicated runs swap the degraded-scan requirement (a follower
        may have served the scan, honestly, without degradation) for a
        promotion requirement: the router must have failed the shard
        over, and every acked write must still read back afterwards.
        """
        if self.replicas > 0:
            return (
                self.lost_acked == 0
                and self.recovered
                and self.promotions >= 1
                and self.other_errors == 0
            )
        return (
            self.lost_acked == 0
            and self.recovered
            and self.degraded_scan_seen
            and self.degraded_scan_correct
            and self.other_errors == 0
        )

    def summary(self) -> str:
        """Multi-line human summary for the CLI."""
        lines = [
            f"ops: {self.ops_total} total, {self.acked} acked, "
            f"{self.shard_down_fast_fails} SHARD_DOWN fail-fasts, "
            f"{self.other_errors} other errors",
            f"surviving-range P99: {self.surviving_p99 * 1000:.2f} ms; "
            f"slowest fail-fast: {self.fail_fast_max * 1000:.2f} ms",
            "degraded scan: "
            + (
                "reported with correct missing shard"
                if self.degraded_scan_seen and self.degraded_scan_correct
                else (
                    "reported with WRONG missing shards"
                    if self.degraded_scan_seen
                    else "NEVER REPORTED"
                )
            ),
            "recovery after restore: "
            + (
                f"{self.recovery_seconds * 1000:.0f} ms"
                if self.recovered
                else "NOT RECOVERED"
            ),
            f"breaker transitions: {self.breaker_transitions}",
            f"lost acked writes: {self.lost_acked}",
            f"final shard health: {self.final_health}",
        ]
        if self.replicas > 0:
            lines.append(
                f"failover: {self.promotions} promotion(s), "
                f"epochs {self.shard_epochs}, "
                f"{self.replicas} replica(s)/shard "
                f"under {self.ack_policy!r}"
            )
            if self.replica_scan_seen:
                lines.append(
                    "replica scan: served mid-outage, staleness "
                    f"<= {self.max_staleness_bytes} bytes"
                )
        lines.append(f"verdict: {'OK' if self.ok else 'FAILED'}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-ready view including the derived verdict fields."""
        payload = asdict(self)
        payload["breaker_transitions"] = [
            list(pair) for pair in self.breaker_transitions
        ]
        payload["recovered"] = self.recovered
        payload["ok"] = self.ok
        return payload


@dataclass
class CorruptionChaosReport:
    """Scorecard of one corrupt-at-rest chaos run.

    The bar is *zero wrong answers*: every read during and after the
    corruption either returned the model's value or failed loudly with
    ``DATA_CORRUPT`` — silent damage never leaked into a response — and
    the quarantined run was rebuilt from a follower before the end.
    """

    ops_total: int = 0
    acked: int = 0
    reads_total: int = 0
    corrupt_reads: int = 0  # reads answered DATA_CORRUPT (honest refusal)
    wrong_answers: int = 0  # reads returning data that contradicts the model
    other_errors: int = 0
    injections: int = 0
    corrupted_files: list[str] = field(default_factory=list)
    detected: bool = False
    detection_sources: list[str] = field(default_factory=list)
    quarantined_seen: int = 0
    runs_repaired: int = 0
    repair_seconds: float = -1.0
    final_quarantined: int = -1
    lost_acked: int = 0
    replicas: int = 0
    ack_policy: str = "leader_only"
    scrub: dict = field(default_factory=dict)

    @property
    def repaired(self) -> bool:
        """Did the quarantine clear through a replica-backed rebuild?"""
        return self.runs_repaired >= 1 and self.final_quarantined == 0

    @property
    def ok(self) -> bool:
        """Detect, contain, repair — and never answer wrong."""
        return (
            self.injections >= 1
            and self.detected
            and self.quarantined_seen >= 1
            and self.repaired
            and self.wrong_answers == 0
            and self.lost_acked == 0
            and self.other_errors == 0
        )

    def summary(self) -> str:
        """Multi-line human summary for the CLI."""
        lines = [
            f"ops: {self.ops_total} total, {self.acked} acked, "
            f"{self.reads_total} reads, {self.other_errors} other errors",
            f"injections: {self.injections} "
            f"(files {self.corrupted_files})",
            "detection: "
            + (
                f"via {sorted(set(self.detection_sources))}"
                if self.detected
                else "NEVER DETECTED"
            ),
            f"containment: {self.quarantined_seen} run(s) quarantined, "
            f"{self.corrupt_reads} read(s) refused with DATA_CORRUPT, "
            f"{self.wrong_answers} wrong answer(s)",
            "repair: "
            + (
                f"{self.runs_repaired} run(s) rebuilt from a follower in "
                f"{self.repair_seconds * 1000:.0f} ms"
                if self.repaired
                else (
                    f"NOT REPAIRED ({self.final_quarantined} still "
                    f"quarantined)"
                )
            ),
            f"lost acked writes: {self.lost_acked}",
            f"verdict: {'OK' if self.ok else 'FAILED'}",
        ]
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-ready view including the derived verdict fields."""
        payload = asdict(self)
        payload["repaired"] = self.repaired
        payload["ok"] = self.ok
        return payload


#: How a router under test talks to its shards: transport failures must
#: show up fast, so one retry on a tight backoff.
_ONE_FAST_RETRY = dict(max_retries=1, backoff_base=0.01, backoff_max=0.05)


def _flip_run_byte(directory: str, rng: random.Random) -> str | None:
    """Flip one data-region byte of a seeded-random live run file.

    Returns the corrupted filename, or None when the directory has no
    run with a non-empty data region. The flip lands strictly below
    ``index_off`` so it damages a data block (the read/scrub paths'
    CRC territory), never the footer that opening the file depends on.
    """
    candidates = sorted(
        name for name in os.listdir(directory) if name.endswith(".run")
    )
    rng.shuffle(candidates)
    for name in candidates:
        path = os.path.join(directory, name)
        try:
            with open(path, "r+b") as handle:
                handle.seek(0, os.SEEK_END)
                size = handle.tell()
                if size < _SSTABLE_FOOTER.size:
                    continue
                handle.seek(size - _SSTABLE_FOOTER.size)
                index_off = _SSTABLE_FOOTER.unpack(
                    handle.read(_SSTABLE_FOOTER.size)
                )[0]
                if index_off <= 0 or index_off > size:
                    continue
                offset = rng.randrange(index_off)
                handle.seek(offset)
                original = handle.read(1)
                if not original:
                    continue
                handle.seek(offset)
                handle.write(bytes([original[0] ^ 0xFF]))
                handle.flush()
                os.fsync(handle.fileno())
            return name
        except OSError:
            continue  # raced a merge deleting the file: try another
    return None


async def _load_and_audit(
    address, report, rng, ops, keyspace, value_bytes, op_interval,
    before_op, after_op, settle,
) -> None:
    """The seeded load both runners drive, and the audit that ends it.

    ``ops`` paced puts through one client that surfaces every error
    instead of retrying through the fault — the error budget is the
    measurement. Op ``index`` draws its key, then its value bytes, from
    ``rng``; an ack goes into the model. The fault schedule is what a
    runner brings, as three coroutines that may draw from ``rng`` too:
    ``before_op(index, client)``, ``after_op(key, elapsed, error,
    client, model)`` (``error`` None on an ack) and ``settle(client,
    model)`` once the load is done. Then every acked write must read
    back; ``report.lost_acked`` counts the ones that do not.
    """
    model: dict[bytes, bytes] = {}
    async with KVClient(*address, max_retries=0, timeout=5.0) as client:
        for index in range(ops):
            await before_op(index, client)
            key = f"key-{rng.randrange(keyspace):06d}".encode()
            value = f"{index:08d}".encode() + bytes(
                rng.randrange(256) for _ in range(max(0, value_bytes - 8))
            )
            report.ops_total += 1
            error = None
            started = time.monotonic()
            try:
                await client.put(key, value)
            except ServerError as failure:
                error = failure
            else:
                report.acked += 1
                model[key] = value
            await after_op(
                key, time.monotonic() - started, error, client, model
            )
            await asyncio.sleep(op_interval)
        await settle(client, model)
        async with KVClient(*address, max_retries=6, timeout=5.0) as verifier:
            for key, value in model.items():
                try:
                    stored = await verifier.get(key)
                except ServerError:
                    stored = None
                if stored != value:
                    report.lost_acked += 1


async def run_corruption_chaos(
    directory: str,
    num_shards: int = 2,
    ops: int = 300,
    target_shard: int = 0,
    corrupt_at: float = 0.4,
    seed: int = 0,
    keyspace: int = 256,
    value_bytes: int = 32,
    op_interval: float = 0.002,
    options: StoreOptions | None = None,
    replicas: int = 1,
    ack_policy: str = "leader_only",
) -> CorruptionChaosReport:
    """Flip at-rest bytes in a leader run mid-load; score the survival.

    The schedule is seeded and keyed by op index like :func:`run_chaos`:
    the same arguments corrupt the same shard at the same point in the
    same stream. The target shard's leader engine gets one data-block
    byte flipped at ``corrupt_at``; the load keeps reading and writing
    throughout, counting every response against the model. After the
    load, a forced scrub pass guarantees detection even if no read
    happened to touch the damaged block, and the run waits out the
    leader's repair ticker until the quarantine clears.

    Requires ``replicas >= 1`` — repair is replica-backed by design; a
    single-copy store can only contain, not heal.
    """
    if replicas < 1:
        raise ConfigurationError(
            "corrupt-at-rest chaos needs replicas >= 1 to repair from"
        )
    if not 0.0 < corrupt_at < 1.0:
        raise ConfigurationError("need 0 < corrupt_at < 1")
    if not 0 <= target_shard < num_shards:
        raise ConfigurationError(f"no such shard {target_shard}")
    report = CorruptionChaosReport(replicas=replicas, ack_policy=ack_policy)
    rng = random.Random(seed)
    corrupt_index = int(ops * corrupt_at)
    corrupted_at = 0.0

    cluster = LocalCluster(
        directory,
        num_shards=num_shards,
        options=options or CORRUPTION_CHAOS_OPTIONS,
        shard_client_options=dict(_ONE_FAST_RETRY, timeout=2.0),
        replicas=replicas,
        ack_policy=ack_policy,
        repair_interval=0.1,
    )
    async with cluster:
        engine = cluster.store.engine(target_shard)

        def flip() -> str | None:
            # Make sure at least one run exists, then flip a byte in a
            # seeded-random one.
            if not any(
                name.endswith(".run")
                for name in os.listdir(engine.directory)
            ):
                engine.flush()
            return _flip_run_byte(engine.directory, rng)

        async def inject() -> None:
            nonlocal corrupted_at
            name = await in_thread(flip)
            if name is not None:
                report.injections += 1
                report.corrupted_files.append(name)
                corrupted_at = time.monotonic()

        def quarantines() -> list:
            # From the tracer, not from the live registry: a follower
            # repair can lift a quarantine within milliseconds, between
            # two looks at ``quarantined_entries()``.
            return [
                event
                for event in engine.obs.tracer.events()
                if event.kind == CORRUPTION_QUARANTINE
            ]

        async def before_op(index: int, client: KVClient) -> None:
            if index == corrupt_index:
                await inject()

        async def after_op(key, elapsed, error, client, model) -> None:
            if error is not None:
                report.other_errors += 1
            if not model or rng.random() >= 0.5:
                return
            # Audit a seeded-random acked key against the model.
            probe = rng.choice(sorted(model))
            report.reads_total += 1
            try:
                stored = await client.get(probe)
            except RequestFailedError as failure:
                if failure.code == protocol.CODE_DATA_CORRUPT:
                    # The honest outcome: refusal, never a wrong value.
                    report.corrupt_reads += 1
                    report.detected = True
                    if "read" not in report.detection_sources:
                        report.detection_sources.append("read")
                else:
                    report.other_errors += 1
                return
            except ServerError:
                report.other_errors += 1
                return
            if stored != model.get(probe):
                report.wrong_answers += 1

        async def settle(client: KVClient, model) -> None:
            # Detection guarantee: if neither a read nor the background
            # scrubber tripped over the damage yet (the load may never
            # have touched that block, or a merge may have retired the
            # file first), inject again and force a synchronous scrub
            # pass — bounded, seeded retries.
            for _attempt in range(3):
                if quarantines():
                    break
                status = await in_thread(engine.scrub_pass)
                if status["findings"] or quarantines():
                    break
                await inject()
            quarantined = quarantines()
            report.quarantined_seen = len(
                {event.fields["run_id"] for event in quarantined}
            )
            if quarantined:
                report.detected = True
                for source in sorted(
                    {event.fields["source"] for event in quarantined}
                ):
                    if source not in report.detection_sources:
                        report.detection_sources.append(source)

            # Wait out the leader's repair ticker: the quarantine must
            # clear through a replica-backed rebuild, not a drop.
            deadline = time.monotonic() + REPAIR_DEADLINE
            while time.monotonic() < deadline:
                if not engine.quarantined_entries():
                    break
                await asyncio.sleep(0.05)
            report.final_quarantined = len(engine.quarantined_entries())
            if report.final_quarantined == 0 and corrupted_at:
                report.repair_seconds = time.monotonic() - corrupted_at
            report.runs_repaired = sum(
                1
                for event in engine.obs.tracer.events(-1, None)
                if event.kind == "run_repaired"
            )
            report.scrub = engine.corruption_status()["scrub"]

        # The final audit doubles as the repair check: a repaired store
        # must answer every acked key — no refusals left.
        await _load_and_audit(
            cluster.address, report, rng, ops, keyspace, value_bytes,
            op_interval, before_op, after_op, settle,
        )
    return report


async def run_chaos(
    directory: str,
    num_shards: int = 3,
    ops: int = 300,
    kill_shard: int = 0,
    kill_at: float = 0.25,
    restore_at: float = 0.6,
    seed: int = 0,
    keyspace: int = 256,
    value_bytes: int = 32,
    cooldown: float = 0.25,
    op_interval: float = 0.002,
    options: StoreOptions | None = None,
    replicas: int = 0,
    ack_policy: str = "leader_only",
    read_from_replica: bool = False,
) -> ChaosReport:
    """Run the kill/restore schedule against a fresh LocalCluster.

    ``options`` overrides the per-shard engine configuration (used by the
    maintenance-worker test to run the same schedule with the background
    worker enabled); the default disables the block cache.

    With ``replicas > 0`` the kill targets a shard *leader* and nothing
    is ever restored: recovery must come from the router promoting a
    follower. ``restore_at`` is ignored in that mode.
    """
    if replicas > 0:
        if not 0.0 < kill_at < 1.0:
            raise ConfigurationError("need 0 < kill_at < 1")
    elif not 0.0 < kill_at < restore_at < 1.0:
        raise ConfigurationError("need 0 < kill_at < restore_at < 1")
    ring = HashRing(num_shards)
    # What the post-load phase writes to until the killed range answers.
    probe_keys = [
        key
        for key in (
            f"key-{candidate:06d}".encode() for candidate in range(keyspace)
        )
        if ring.shard_for(key) == kill_shard
    ]
    if not probe_keys:
        raise ConfigurationError(
            f"no key of a {keyspace}-key keyspace routes to shard "
            f"{kill_shard} of {num_shards}: nothing could probe its recovery"
        )
    report = ChaosReport(replicas=replicas, ack_policy=ack_policy)
    rng = random.Random(seed)
    kill_index = int(ops * kill_at)
    if replicas > 0:
        restore_index = -1  # leader-kill mode: the dead stay dead
        scan_index = min(ops - 1, kill_index + max(1, ops // 10))
    else:
        restore_index = max(kill_index + 1, int(ops * restore_at))
        scan_index = (kill_index + restore_index) // 2
    survivors: list[float] = []
    restored_at = 0.0
    down = False

    cluster = LocalCluster(
        directory,
        num_shards=num_shards,
        options=options or CHAOS_OPTIONS,
        ring=ring,
        shard_client_options=dict(_ONE_FAST_RETRY, timeout=1.0),
        breaker_options=dict(
            failure_threshold=0.5,
            window=8,
            min_samples=2,
            cooldown=cooldown,
        ),
        replicas=replicas,
        ack_policy=ack_policy,
        read_from_replica=read_from_replica,
    )
    async with cluster:
        assert cluster.router is not None
        breaker = cluster.router.breakers[kill_shard]

        async def before_op(index: int, client: KVClient) -> None:
            nonlocal down, restored_at
            if index == kill_index:
                await cluster.kill_shard(kill_shard)
                down = True
                if replicas > 0:
                    # Recovery clock: kill → first promoted-leader
                    # ack on the killed range.
                    restored_at = time.monotonic()
            if index == restore_index:
                await cluster.restore_shard(kill_shard)
                restored_at = time.monotonic()
                down = False
            if index == scan_index and down:
                try:
                    scan = await client.scan_detailed(limit=50)
                except ServerError:
                    return
                report.degraded_scan_seen = scan["degraded"]
                report.degraded_scan_correct = scan["missing_shards"] == [
                    kill_shard
                ]
                report.replica_scan_seen = bool(scan.get("replica_read"))
                report.max_staleness_bytes = int(
                    scan.get("staleness_bytes") or 0
                )

        async def after_op(key, elapsed, error, client, model) -> None:
            nonlocal down
            if error is None:
                if ring.shard_for(key) != kill_shard:
                    survivors.append(elapsed)
                elif down and replicas > 0:
                    # A write on the killed range succeeded again:
                    # the router promoted a follower.
                    report.recovery_seconds = time.monotonic() - restored_at
                    down = False
            elif (
                isinstance(error, RetriesExhaustedError)
                and isinstance(error.last_error, RequestFailedError)
                and error.last_error.code == protocol.CODE_SHARD_DOWN
            ):
                report.shard_down_fast_fails += 1
                report.fail_fast_max = max(report.fail_fast_max, elapsed)
            else:
                report.other_errors += 1

        async def settle(client: KVClient, model) -> None:
            # Post-load: drive probe writes at the killed range until
            # its breaker closes again (cooldown is wall-clock).
            deadline = time.monotonic() + RECOVERY_DEADLINE
            probe_turn = 0
            while time.monotonic() < deadline:
                key = probe_keys[probe_turn % len(probe_keys)]
                probe_turn += 1
                value = f"probe-{probe_turn:04d}".encode()
                try:
                    await client.put(key, value)
                except ServerError:
                    await asyncio.sleep(cooldown / 4)
                    continue
                model[key] = value
                report.acked += 1
                report.ops_total += 1
                if report.recovery_seconds < 0.0:
                    report.recovery_seconds = time.monotonic() - restored_at
                if breaker.state == CLOSED:
                    break

        await _load_and_audit(
            cluster.address, report, rng, ops, keyspace, value_bytes,
            op_interval, before_op, after_op, settle,
        )
        report.breaker_transitions = list(breaker.transitions)
        report.final_health = cluster.router.shard_health()
        report.promotions = cluster.router.promotions
        report.shard_epochs = cluster.router.epochs
    report.surviving_p99 = percentile_profile(survivors or [0.0], (99,))[99]
    return report
