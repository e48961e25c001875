"""Leader-side WAL shipping: stream the committed log to followers.

The shipper registers as the leader store's commit listener, so it
learns of every WAL append in commit order without buffering a byte:
ship tasks read spans of whole frames back out of the log *through the
store, by LSN* (:meth:`LSMStore.read_log`) and send them as they lie
there, which works because the listener also *gates WAL truncation* —
the log is only cut once every follower has acknowledged all of it, so
a shipping cursor never dangles. Positions are LSNs in the store's
lineage (``repro.engine.datastore.WalPosition``); where the log's file
begins, what it is called and which of its bytes an LSN names are the
store's business, and a truncation disturbs nothing kept here.

One asyncio task per follower ships spans strictly in order over the
framed protocol's ``REPLICATE`` verb and keeps three pieces of state:

* ``cursor`` — the next LSN to ship, or ``None`` when it is not known
  where the follower stands (start-up, a gap, a damaged follower): the
  task then *asks* — a status probe — and resumes from the follower's
  own cursor if that lies in this lineage and inside the log, and only
  otherwise ships a reset: the leader's run files, in bounded chunks;
* ``acked`` — the follower's last acknowledged LSN, which drives the
  ``replication_applied_offset`` / ``replication_lag_bytes`` gauges and
  the quorum accounting behind :meth:`wait_committed`;
* ``stalled`` — whether the follower is currently unreachable; entering
  a stall emits one ``ship_stall`` event and the task keeps retrying
  with a capped exponential back-off, so lag drains (and the gauge
  returns to zero) once the follower answers again. Nothing is read or
  scanned for a follower that does not answer the probe.

Fencing: every span carries the leader's epoch. A follower that has
seen a newer epoch answers ``STALE_EPOCH``, and the deposed shipper
stops permanently rather than diverging the group.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading

from ..errors import (
    DataCorruptError,
    RequestFailedError,
    RetriesExhaustedError,
)
from ..obs import events as obs_events
from ..server import binproto, protocol
from ..server.service import in_thread
from .policy import acks_required, validate_ack_policy

#: The most log one REPLICATE carries, and the most of a run file one
#: reset chunk does (a single frame larger than this still travels,
#: alone): what bounds both a follower's apply and a message, far below
#: the wire's frame cap.
_SPAN_BYTES = 1 << 20

#: A stalled follower is retried after this long, doubling per failed
#: attempt up to the cap; the first answer resets it.
_STALL_RETRY_SECONDS = 0.05
_STALL_RETRY_CAP_SECONDS = 1.0

#: A follower with nothing to ship looks again after this long even if
#: no commit woke it (a wake-up lost to a race costs this much, no more).
_IDLE_SECONDS = 0.05


class WalShipper:
    """Ships a leader store's WAL to a set of follower clients."""

    def __init__(
        self,
        store,
        followers,
        ack_policy: str = "leader_only",
        epoch: int = 0,
    ) -> None:
        self._store = store
        self._followers = list(followers)
        self._ack_policy = validate_ack_policy(ack_policy)
        self._epoch = epoch
        self._obs = store.obs
        self._lock = threading.Lock()
        # The store's lineage, and the LSN just past the last commit
        # the listener was told of.
        self._lineage = 0
        self._tail = 0
        self._cursors: list[int | None] = [None for _ in self._followers]
        self._acked: list[int | None] = [None for _ in self._followers]
        #: Consecutive failed attempts per follower (0 = not stalled).
        self._stalls = [0 for _ in self._followers]
        self._fenced = False
        self._stopped = False
        self._loop: asyncio.AbstractEventLoop | None = None
        self._wake: asyncio.Event | None = None
        self._ack_cond: asyncio.Condition | None = None
        self._tasks: list[asyncio.Task] = []
        registry = self._obs.registry
        self._m_lag = [
            registry.gauge(
                "replication_lag_bytes",
                labels={"follower": str(index)},
                help="Leader-WAL bytes not yet acked by this follower.",
            )
            for index in range(len(self._followers))
        ]
        self._m_applied = [
            registry.gauge(
                "replication_applied_offset",
                labels={"follower": str(index)},
                help="This follower's acked LSN in the leader WAL.",
            )
            for index in range(len(self._followers))
        ]
        self._m_frames = registry.counter(
            "replication_frames_shipped_total",
            help="WAL frames acknowledged by followers.",
        )
        self._m_resets = registry.counter(
            "replication_resets_total",
            help="Resets shipped to followers (their whole state).",
        )
        self._m_resumes = registry.counter(
            "replication_resumes_total",
            help="Followers re-attached at their own cursor, without "
            "a reset.",
        )
        self._m_bytes = {
            kind: registry.counter(
                "replication_bytes_shipped_total",
                labels={"kind": kind},
                help="Bytes acknowledged by followers: log frames, or "
                "the run files a reset ships plus each chunk's header.",
            )
            for kind in ("log", "reset")
        }
        self._m_stalls = registry.counter(
            "replication_ship_stalls_total",
            help="Times a follower became unreachable mid-ship.",
        )

    # -- introspection ---------------------------------------------------

    @property
    def epoch(self) -> int:
        return self._epoch

    @property
    def follower_count(self) -> int:
        return len(self._followers)

    @property
    def ack_policy(self) -> str:
        return self._ack_policy

    @property
    def fenced(self) -> bool:
        """True once a follower rejected our epoch — we are deposed."""
        return self._fenced

    def status(self) -> dict:
        """Shipping state for STATS: the store's position (every field
        of its ``WalPosition``), per-follower acks, lag."""
        position = self._store.wal_position()  # before our lock, not under it
        with self._lock:
            return {
                "epoch": self._epoch,
                "ack_policy": self._ack_policy,
                **position._asdict(),
                "fenced": self._fenced,
                "followers": [
                    {
                        "acked_offset": acked,
                        "lag_bytes": self._lag(acked, position),
                        "stalled": self._stalls[index] > 0,
                    }
                    for index, acked in enumerate(self._acked)
                ],
            }

    def follower_client(self, index: int):
        """The pooled client for follower ``index`` (repair path)."""
        return self._followers[index]

    def acked_cursors(self) -> list[int | None]:
        """Per-follower acked LSNs (None before a follower's first ack).

        The repair ticker ranks followers by this to fetch a quarantined
        run's key range from the most caught-up copy first.
        """
        with self._lock:
            return list(self._acked)

    def _lag(self, acked: int | None, position) -> int:
        """Bytes a follower has yet to acknowledge; for one not attached
        yet, everything the log still holds (the store's ``position``
        says: only a caller *not* under the store lock can have asked)."""
        if acked is None:
            return position.log_bytes
        return max(0, self._tail - acked)

    def _refresh_lag_locked(self, index: int, position=None) -> None:
        acked = self._acked[index]
        if acked is not None or position is not None:
            self._m_lag[index].set(float(self._lag(acked, position)))

    # -- the commit-listener face (called under the store lock) ----------

    def on_commit(self, lsn, length, batch) -> None:
        with self._lock:
            self._tail = lsn + length
            for index in range(len(self._followers)):
                self._refresh_lag_locked(index)
        self._wake_ship_tasks()

    def may_truncate(self, lsn) -> bool:
        # The log is cut only once every follower has acknowledged all
        # of it — otherwise a lagging follower's cursor would name
        # bytes that no longer exist. A question, answered from the
        # acks alone: nothing here changes, whatever the answer.
        with self._lock:
            return all(acked == lsn for acked in self._acked)

    def _wake_ship_tasks(self) -> None:
        loop, wake = self._loop, self._wake
        if loop is None or wake is None:
            return
        with contextlib.suppress(RuntimeError):  # loop already closed
            loop.call_soon_threadsafe(wake.set)

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        """Attach to the store and begin shipping."""
        self._loop = asyncio.get_running_loop()
        self._wake = asyncio.Event()
        self._ack_cond = asyncio.Condition()
        # Listener first, so no commit goes unseen; one that lands
        # before the position is read has already moved the tail there.
        self._store.set_commit_listener(self)
        position = self._store.wal_position()
        with self._lock:
            self._lineage = position.lineage
            self._tail = max(self._tail, position.lsn)
        self._tasks = [
            asyncio.create_task(
                self._ship_loop(index), name=f"wal-ship-{index}"
            )
            for index in range(len(self._followers))
        ]

    async def stop(self) -> None:
        """Detach from the store, stop ship tasks, close clients."""
        self._stopped = True
        self._store.set_commit_listener(None)
        if self._wake is not None:
            self._wake.set()
        for task in self._tasks:
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks = []
        for client in self._followers:
            with contextlib.suppress(Exception):
                await client.aclose()

    # -- quorum accounting -----------------------------------------------

    def _ack_count(self, end: int) -> int:
        # A reset carries the leader's state as of the LSN the
        # follower then acks, so one comparison covers both paths.
        with self._lock:
            return sum(
                1
                for acked in self._acked
                if acked is not None and acked >= end
            )

    async def wait_committed(self, end: int, timeout: float) -> bool:
        """Wait until the ack policy is satisfied for a write ending at
        LSN ``end`` of the leader WAL; False on timeout."""
        required = acks_required(self._ack_policy, len(self._followers))
        if required == 0:
            return True
        assert self._ack_cond is not None, "shipper not started"
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        async with self._ack_cond:
            while self._ack_count(end) < required:
                remaining = deadline - loop.time()
                if remaining <= 0:
                    return False
                try:
                    await asyncio.wait_for(
                        self._ack_cond.wait(), remaining
                    )
                except asyncio.TimeoutError:
                    return False
        return True

    async def _record_ack(self, index: int, ack: dict) -> None:
        applied = ack["applied"]
        with self._lock:
            if ack.get("quarantined", 0) > 0:
                # The follower is advertising damaged local runs. Its
                # cursor is still honest about the WAL prefix it applied,
                # but its *materialized state* is not that prefix any
                # more — so forget where it stands: the probe that
                # follows sees the damage too and answers with a full
                # reset, which replaces it wholesale.
                self._cursors[index] = None
            else:
                self._cursors[index] = applied
            self._acked[index] = applied
            self._m_applied[index].set(float(applied))
            self._refresh_lag_locked(index)
        assert self._ack_cond is not None
        async with self._ack_cond:
            self._ack_cond.notify_all()

    # -- shipping --------------------------------------------------------

    async def _ship_loop(self, index: int) -> None:
        assert self._wake is not None
        while not self._stopped and not self._fenced:
            self._wake.clear()
            try:
                advanced = await self._ship_once(index)
            except asyncio.CancelledError:
                raise
            except RequestFailedError as error:
                if error.code == protocol.CODE_STALE_EPOCH:
                    self._fenced = True
                    return
                if error.code == protocol.CODE_REPLICA_GAP:
                    # Our idea of the follower's cursor is wrong; the
                    # next round asks for it.
                    with self._lock:
                        self._cursors[index] = None
                    continue
                # Anything else (INTERNAL, CLOSED, BAD_REQUEST) is a
                # follower-side failure; treat it like unreachability.
                await self._note_stall(index, error)
                continue
            except (
                RetriesExhaustedError,
                ConnectionError,
                OSError,
                asyncio.TimeoutError,
            ) as error:
                await self._note_stall(index, error)
                continue
            except DataCorruptError as error:
                # The *leader* holds a quarantined run, so no image of
                # it is whole (only reachable while shipping a reset).
                # Back off like a stall: the repair ticker will rebuild
                # the run from a healthy follower, after which the image
                # is whole again.
                await self._note_stall(index, error)
                continue
            self._clear_stall(index)
            if not advanced:
                with contextlib.suppress(asyncio.TimeoutError):
                    await asyncio.wait_for(
                        self._wake.wait(), _IDLE_SECONDS
                    )

    async def _note_stall(self, index: int, error: Exception) -> None:
        with self._lock:
            self._stalls[index] += 1
            attempts = self._stalls[index]
        if attempts == 1:
            self._m_stalls.inc()
            self._obs.tracer.emit(
                obs_events.SHIP_STALL,
                follower=index,
                error=type(error).__name__,
            )
        await asyncio.sleep(
            min(
                _STALL_RETRY_CAP_SECONDS,
                _STALL_RETRY_SECONDS * 2 ** min(attempts - 1, 16),
            )
        )

    def _clear_stall(self, index: int) -> None:
        with self._lock:
            self._stalls[index] = 0

    async def _ship_once(self, index: int) -> bool:
        """Attach the follower, or ship it one span; False when idle."""
        client = self._followers[index]
        with self._lock:
            cursor = self._cursors[index]
            tail = self._tail
        if cursor is None:
            await self._attach(index, client)
            return True
        if cursor >= tail:
            return False  # fully shipped: idle until the next commit
        # On the loop thread: these bytes were appended moments ago and
        # are in the page cache. Never past ``tail`` — a commit group's
        # frames are in the log before they are committed.
        span, frames = self._store.read_log(
            cursor, min(_SPAN_BYTES, tail - cursor)
        )
        if not span:
            # The log is damaged at the cursor; the leader's state is
            # not, so the follower gets that instead.
            await self._ship_reset(index, client)
            return True
        ack = await client.replicate(
            protocol.replicate_request(
                self._epoch, self._lineage, cursor, span
            )
        )
        self._m_frames.inc(frames)
        self._m_bytes["log"].inc(len(span))
        await self._record_ack(index, ack)
        return True

    async def _attach(self, index: int, client) -> None:
        """Find out where a follower stands; reset it only if we must.

        Resuming is sound exactly when the follower's cursor is an LSN
        of *this* lineage that the log still reaches back to: it then
        holds our log's prefix up to there and nothing else. A follower
        that does not answer raises out of here before any image is
        frozen.
        """
        # Its lag until it answers is whatever the log holds; say so
        # now, in case the probe goes unanswered.
        position = self._store.wal_position()
        with self._lock:
            self._refresh_lag_locked(index, position)
        status = await client.replica_status(self._epoch)
        resumable = (
            status["lineage"] == self._lineage
            and status["quarantined"] == 0
            and self._store.wal_position().reaches(status["applied"])
        )
        if not resumable:
            await self._ship_reset(index, client)
            return
        self._m_resumes.inc()
        await self._record_ack(index, status)

    async def _ship_reset(self, index: int, client) -> None:
        """Ship the leader's run files, as they lie on its disk, in
        chunks of at most :data:`_SPAN_BYTES`.

        The image (:meth:`LSMStore.run_image`) is frozen under the store
        lock; its files are then read and sent one chunk at a time, off
        the lock, through the store's readers, which it pins until it is
        dropped.
        """
        image = await in_thread(self._store.run_image)
        sizes = {name: size for name, _reader, size in image.files}
        layout = [
            (run.level, [sizes[name] for name in run.files])
            for run in image.records
        ]
        pieces = [
            (file, reader, offset, min(_SPAN_BYTES, size - offset))
            for file, (_name, reader, size) in enumerate(image.files)
            for offset in range(0, size, _SPAN_BYTES)
        ] or [(0, None, 0, 0)]  # an image of no files: one empty chunk
        for number, (file, reader, offset, length) in enumerate(pieces):
            span = b""
            if length:
                span = await in_thread(reader.read_at, offset, length)
            message = protocol.reset_chunk_request(
                self._epoch,
                self._lineage,
                image.lsn,
                span,
                layout=layout,
                file=file,
                offset=offset,
                first=number == 0,
                final=number == len(pieces) - 1,
            )
            ack = await client.replicate(message)
            self._m_bytes["reset"].inc(
                binproto.REPLICATE_HEADER_BYTES
                + len(binproto.reset_head(message))
                + length
            )
        self._m_resets.inc()
        await self._record_ack(index, ack)
