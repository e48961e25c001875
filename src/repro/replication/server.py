"""A :class:`KVServer` that is one member of a per-shard replica group.

One :class:`ReplicatedKVServer` wraps one local :class:`LSMStore` and
plays one of two roles:

* **leader** — accepts client writes, runs them through the normal
  admission pipeline, then (under ``quorum``/``all`` ack policies)
  holds the acknowledgement until the :class:`WalShipper` reports
  enough follower acks for the write's WAL position. The wait is
  recorded as the ``replication`` leg of ``server_request_seconds``.
* **follower** — rejects client writes with ``NOT_LEADER``, applies
  ``REPLICATE`` spans through a :class:`ReplicaApplier`, and serves
  reads; its ``SCAN`` responses carry the replica's applied cursor and
  a staleness lower bound for the router's ``read_from_replica`` mode.

``PROMOTE`` flips a follower to leader at a new epoch and a fresh log
lineage, so any surviving peers are re-attached with a reset. A
deposed leader that receives a higher-epoch ``REPLICATE`` steps down
to follower — together with the applier's epoch check this is the
fencing that keeps exactly one writable head per shard.
"""

from __future__ import annotations

import asyncio

from ..engine.datastore import LSMStore
from ..engine.wal import WriteAheadLog
from ..errors import (
    ConfigurationError,
    CorruptionError,
    ProtocolError,
    ReplicaGapError,
    RequestFailedError,
    RetriesExhaustedError,
    StaleEpochError,
    WriteStalledError,
)
from ..obs import events as obs_events
from ..server import binproto, protocol
from ..server.admission import AdmissionController
from ..server.client import KVClient
from ..server.service import DEFAULT_WRITE_DEADLINE, KVServer
from .applier import ReplicaApplier
from .policy import acks_required, validate_ack_policy
from .shipper import WalShipper

#: Default bound on how long a leader waits for follower acks before
#: answering ``STALLED`` (the write is applied locally; a retry is safe).
DEFAULT_REPLICATION_TIMEOUT = 2.0

#: How often a leader checks its quarantine registry for runs it can
#: rebuild from a follower (0 disables the repair loop).
DEFAULT_REPAIR_INTERVAL = 0.0


def _default_follower_factory(host: str, port: int) -> KVClient:
    # Shipping has its own stall/retry loop, so the client itself fails
    # fast: one retry, short timeout.
    return KVClient(host, port, pool_size=1, timeout=2.0, max_retries=1)


class ReplicatedKVServer(KVServer):
    """One replica-group member serving the framed protocol."""

    def __init__(
        self,
        store: LSMStore,
        admission: AdmissionController | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        write_deadline: float = DEFAULT_WRITE_DEADLINE,
        metrics_port: int | None = None,
        role: str = "follower",
        epoch: int = 0,
        ack_policy: str = "leader_only",
        replication_timeout: float = DEFAULT_REPLICATION_TIMEOUT,
        follower_factory=None,
        repair_interval: float = DEFAULT_REPAIR_INTERVAL,
    ) -> None:
        if role not in ("leader", "follower"):
            raise ConfigurationError(f"unknown replica role {role!r}")
        if replication_timeout <= 0:
            raise ConfigurationError("replication_timeout must be positive")
        if repair_interval < 0:
            raise ConfigurationError("repair_interval cannot be negative")
        super().__init__(
            store, admission, host, port, write_deadline, metrics_port
        )
        self._role = role
        self._epoch = epoch
        self._ack_policy = validate_ack_policy(ack_policy)
        self._replication_timeout = replication_timeout
        self._follower_factory = (
            follower_factory or _default_follower_factory
        )
        self._applier = ReplicaApplier(store)
        if role == "leader":
            self._prime_with_own_position()
        self._shipper: WalShipper | None = None
        self._repair_interval = repair_interval
        self._repair_task: asyncio.Task | None = None

    # -- introspection ---------------------------------------------------

    @property
    def role(self) -> str:
        return self._role

    @property
    def epoch(self) -> int:
        return self._epoch

    @property
    def applier(self) -> ReplicaApplier:
        return self._applier

    @property
    def shipper(self) -> WalShipper | None:
        return self._shipper

    # -- role changes ----------------------------------------------------

    def _prime_with_own_position(self) -> None:
        # A leader has no upstream; what it reports to a probe or in a
        # PROMOTE ack is where its own log stands.
        position = self._store.wal_position()
        self._applier.prime(self._epoch, position.lineage, position.lsn)

    async def become_leader(self, epoch: int, peer_clients=None) -> None:
        """Take leadership at ``epoch``, shipping to ``peer_clients``.

        Used both at cluster boot (the initial leader) and by the
        ``PROMOTE`` verb mid-failover. Peers start with an unknown
        cursor, so the shipper first asks each where it stands: one
        whose cursor lies in this store's lineage and log resumes from
        it, any other gets a reset — correct regardless of how
        far behind it is. A store that has been following someone is no
        longer that log's prefix once it takes writes of its own, so it
        leads under a fresh lineage: every peer of a promoted follower
        is reset.
        """
        if self._shipper is not None:
            await self._shipper.stop()
        if self._role != "leader" or self._store.upstream is not None:
            self._store.reset_lineage()
        self._epoch = epoch
        self._role = "leader"
        self._prime_with_own_position()
        self._shipper = WalShipper(
            self._store,
            list(peer_clients or []),
            ack_policy=self._ack_policy,
            epoch=epoch,
        )
        await self._shipper.start()

    async def _step_down(self, epoch: int) -> None:
        """Demote to follower after seeing a newer epoch (fencing)."""
        if self._shipper is not None:
            await self._shipper.stop()
            self._shipper = None
        self._role = "follower"
        self._epoch = epoch

    async def start(self) -> tuple[str, int]:
        address = await super().start()
        if self._repair_interval > 0:
            self._repair_task = asyncio.get_running_loop().create_task(
                self._repair_loop(), name="run-repair"
            )
        return address

    async def aclose(self) -> None:
        if self._repair_task is not None:
            self._repair_task.cancel()
            await asyncio.gather(
                self._repair_task, return_exceptions=True
            )
            self._repair_task = None
        if self._shipper is not None:
            await self._shipper.stop()
            self._shipper = None
        await super().aclose()

    # -- the leader write path -------------------------------------------

    async def _admitted_write(self, op: str, nbytes: int, apply) -> dict:
        if self._role != "leader":
            return protocol.error_response(
                protocol.CODE_NOT_LEADER,
                f"replica is a follower at epoch {self._epoch}",
            )
        captured: list = []

        def apply_and_capture(wait: bool = True):
            timing = apply(wait=wait)
            if timing is not None:
                captured.append(timing)
            return timing

        response = await super()._admitted_write(
            op, nbytes, apply_and_capture
        )
        if not response.get("ok") or not captured:
            return response
        breakdown = response.setdefault("breakdown", {})
        shipper = self._shipper
        timing = captured[-1]
        if (
            shipper is None
            or timing.wal_end < 0
            or acks_required(self._ack_policy, shipper.follower_count) == 0
        ):
            breakdown["replication"] = 0.0
            return response
        started = self._clock()
        committed = await shipper.wait_committed(
            timing.wal_end, self._replication_timeout
        )
        waited = breakdown["replication"] = self._clock() - started
        if not committed:
            # The write is durable locally but under-replicated; the
            # client must not treat it as acknowledged. STALLED keeps it
            # retryable, and last-writer-wins makes the retry safe.
            failure = protocol.error_response(
                protocol.CODE_STALLED,
                f"replication quorum not reached within "
                f"{self._replication_timeout}s under "
                f"{self._ack_policy!r}",
                retry_after=self._replication_timeout / 2,
            )
            failure["breakdown"] = dict(
                breakdown, replication=waited
            )
            return failure
        return response

    def _check_shippable(self, ops: list[tuple[bytes, bytes | None]]) -> None:
        """Refuse a write, before it is applied, whose log frame could
        never ship in one REPLICATE: a span is never less than one
        frame, so every later write on the shard would queue behind it
        and never reach a follower."""
        size = WriteAheadLog.frame_bytes(ops) + binproto.REPLICATE_HEADER_BYTES
        if size > binproto.MAX_FRAME_BYTES:
            raise ProtocolError(
                f"write too large to replicate: its log frame ships in "
                f"{size} bytes, over the {binproto.MAX_FRAME_BYTES}-byte "
                f"frame limit"
            )

    async def _op_put(self, message: dict) -> dict:
        self._check_shippable(
            [(protocol.request_key(message), protocol.request_value(message))]
        )
        return await super()._op_put(message)

    async def _op_del(self, message: dict) -> dict:
        self._check_shippable([(protocol.request_key(message), None)])
        return await super()._op_del(message)

    async def _op_batch(self, message: dict) -> dict:
        self._check_shippable(protocol.batch_ops(message))
        return await super()._op_batch(message)

    # -- replication verbs -----------------------------------------------

    async def _op_replicate(self, message: dict) -> dict:
        payload = protocol.replicate_payload(message)
        if self._role == "leader":
            if payload["epoch"] > self._epoch:
                await self._step_down(payload["epoch"])
            elif not payload.get("probe"):
                return protocol.error_response(
                    protocol.CODE_NOT_LEADER,
                    f"replica is the leader at epoch {self._epoch}",
                )
        try:
            # A shipped frame is a write like any other: it can meet a
            # closed stall gate or a flush-stalled rotation.
            status = await self._in_thread(
                self._applier.apply_frame, payload
            )
        except StaleEpochError as error:
            return protocol.error_response(
                protocol.CODE_STALE_EPOCH, str(error)
            )
        except ReplicaGapError as error:
            return protocol.error_response(
                protocol.CODE_REPLICA_GAP, str(error)
            )
        except CorruptionError as error:
            # The span arrived damaged; none of it was applied.
            return protocol.error_response(
                protocol.CODE_BAD_REQUEST, str(error)
            )
        except WriteStalledError as error:
            return protocol.error_response(
                protocol.CODE_STALLED, str(error), retry_after=0.05
            )
        if status["epoch"] > self._epoch:
            self._epoch = status["epoch"]  # follower adopts shipped epoch
        return self._ack_response(status)

    async def _op_promote(self, message: dict) -> dict:
        epoch, peers = protocol.promote_payload(message)
        if epoch < self._epoch:
            return protocol.error_response(
                protocol.CODE_STALE_EPOCH,
                f"promotion epoch {epoch} < replica epoch {self._epoch}",
            )
        if self._role != "leader" or epoch > self._epoch:
            clients = [
                self._follower_factory(host, port) for host, port in peers
            ]
            await self.become_leader(epoch, clients)
            self.obs.tracer.emit(
                obs_events.REPLICA_PROMOTE, epoch=epoch, peers=len(peers)
            )
        return self._ack_response(self._applier.status())

    async def _op_fetch_range(self, message: dict) -> dict:
        """Serve a leader's repair fetch: our view of ``[lo, hi]``.

        Epoch-fenced like every replication verb. The applier status is
        read *before* the scan so the reported cursor is a lower bound
        on the state the scan observed — the caller compares that cursor
        against its own committed position, and "cursor fresh enough"
        then implies "snapshot fresh enough". A scan that hits our own
        quarantined run raises :class:`DataCorruptError`, which dispatch
        turns into ``DATA_CORRUPT`` — a damaged copy refuses to feed a
        repair.
        """
        epoch = protocol.request_epoch(message)
        lo, hi, _ = protocol.scan_bounds(message)
        if epoch < self._epoch:
            return protocol.error_response(
                protocol.CODE_STALE_EPOCH,
                f"fetch epoch {epoch} < replica epoch {self._epoch}",
            )
        if epoch > self._epoch:
            if self._role == "leader":
                await self._step_down(epoch)
            else:
                self._epoch = epoch
        status = self._applier.status()
        # The bounds are inclusive; an absent ``hi`` is unbounded.
        stop = None if hi is None else hi + b"\x00"
        response = self._ack_response(status)
        response["items"] = await self._in_thread(
            lambda: list(self._store.scan(lo, stop))
        )
        return response

    def _ack_response(self, status: dict) -> dict:
        return protocol.ok_response(
            epoch=status["epoch"],
            lineage=status["lineage"],
            applied=status["applied"],
            ship_tail=status["ship_tail"],
            role=self._role,
            quarantined=status.get("quarantined", 0),
        )

    # -- reads with a staleness contract ---------------------------------

    async def _op_scan(self, message: dict) -> dict:
        response = await super()._op_scan(message)
        if response.get("ok") and self._role == "follower":
            status = self._applier.status()
            response["replica_read"] = True
            response["replica_epoch"] = status["epoch"]
            response["applied_offset"] = status["applied"]
            response["staleness_bytes"] = max(
                0, status["ship_tail"] - status["applied"]
            )
        return response

    # -- replica-backed repair -------------------------------------------

    async def _repair_loop(self) -> None:
        while True:
            await asyncio.sleep(self._repair_interval)
            try:
                await self.repair_pass()
            except asyncio.CancelledError:
                raise
            except Exception:  # noqa: BLE001 — repair must keep ticking
                continue

    async def repair_pass(self) -> int:
        """Try to rebuild every quarantined run from a follower.

        Returns how many runs were repaired. A pass is a no-op on a
        follower (its repair path is the shipper's reset) and
        on a leader with no followers attached.
        """
        if self._role != "leader" or self._shipper is None:
            return 0
        entries = self._store.quarantined_entries()
        if not entries:
            return 0
        repaired = 0
        for entry in entries:
            if await self._repair_one(entry):
                repaired += 1
        return repaired

    async def _repair_one(self, entry) -> bool:
        """Rebuild one quarantined run from the freshest follower copy.

        Staleness safety: the leader captures its own WAL position *P*
        first, then only accepts a fetched snapshot whose ack cursor is
        in the leader's lineage and ``>= P`` — the follower provably
        holds every write the leader has committed, so substituting its
        view of the key range cannot roll back acknowledged data.
        """
        shipper = self._shipper
        if shipper is None:
            return False
        position = self._store.wal_position()
        cursors = shipper.acked_cursors()
        # Most-caught-up follower first; unknown cursors last.
        order = sorted(
            range(len(cursors)),
            key=lambda index: (cursors[index] is not None, cursors[index]),
            reverse=True,
        )
        for index in order:
            client = shipper.follower_client(index)
            try:
                fetched = await client.fetch_range(
                    self._epoch, entry.min_key, entry.max_key
                )
            except (
                RequestFailedError,
                RetriesExhaustedError,
                ConnectionError,
                OSError,
                asyncio.TimeoutError,
            ):
                continue
            if (
                fetched["lineage"] != position.lineage
                or fetched["applied"] < position.lsn
            ):
                continue  # behind our committed state: unsafe to use
            repaired = await self._in_thread(
                self._store.repair_run, entry.run_id, fetched["items"]
            )
            if repaired:
                return True
        return False

    # -- stats -----------------------------------------------------------

    async def _op_stats(self, message: dict) -> dict:
        response = await super()._op_stats(message)
        replication = {
            "role": self._role,
            "epoch": self._epoch,
            "ack_policy": self._ack_policy,
            "applier": self._applier.status(),
        }
        if self._shipper is not None:
            replication["shipping"] = self._shipper.status()
        response["replication"] = replication
        return response
