"""Seedable, site-addressed I/O fault injection for the storage engine.

A :class:`FaultPlan` is a list of :class:`FaultRule` triggers. The
engine wraps each durable file it opens via ``plan.wrap(file, site)``
(sites: ``"wal"``, ``"manifest"``, ``"sstable"``), and the resulting
:class:`FaultyFile` counts every ``write`` and ``fsync`` at that site.
When an event's occurrence index matches a rule, the fault fires:

* ``"fail"`` — raise :class:`~repro.errors.FaultInjectedError` *before*
  the I/O takes effect (an EIO-style hard failure);
* ``"torn"`` — persist only the first ``keep_bytes`` of the write, then
  raise (a torn page / partial sector, the crash-consistency classic);
* ``"corrupt"`` — silently persist a bit-rotted version of the payload
  (the write "succeeds"; detection is the checksum layer's problem).

Everything is deterministic: occurrence counting is per plan instance,
and ``"corrupt"`` flips byte positions drawn from a seeded RNG, so a
failing scenario replays exactly from ``(workload seed, plan)``. Fired
rules are recorded in :attr:`FaultPlan.fired` so harnesses can assert
the fault actually happened rather than silently testing the happy path.

The engine never imports this module — ``StoreOptions.fault_plan`` is
duck-typed on ``wrap`` — so production opens pay nothing.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

from ..errors import ConfigurationError, FaultInjectedError

#: File sites the engine wraps. Events are ``"<site>.write"`` and
#: ``"<site>.fsync"``.
SITES = ("wal", "manifest", "sstable")

#: Supported fault kinds.
KINDS = ("fail", "torn", "corrupt")


@dataclass(frozen=True)
class FaultRule:
    """Fire ``kind`` at the Nth (0-based) occurrence of ``event``.

    ``event`` is ``"<site>.write"`` or ``"<site>.fsync"``, for example
    ``FaultRule("wal.write", 3, "torn", keep_bytes=5)`` tears the fourth
    WAL append after its first five bytes. ``keep_bytes`` only applies
    to ``"torn"``; ``"fsync"`` events only support ``"fail"``.
    """

    event: str
    index: int
    kind: str = "fail"
    keep_bytes: int = 0

    def __post_init__(self) -> None:
        site, _, op = self.event.partition(".")
        if site not in SITES or op not in ("write", "fsync"):
            raise ConfigurationError(f"unknown fault event {self.event!r}")
        if self.kind not in KINDS:
            raise ConfigurationError(f"unknown fault kind {self.kind!r}")
        if op == "fsync" and self.kind != "fail":
            raise ConfigurationError("fsync faults can only be 'fail'")
        if self.index < 0:
            raise ConfigurationError("fault index cannot be negative")
        if self.keep_bytes < 0:
            raise ConfigurationError("keep_bytes cannot be negative")


class FaultPlan:
    """A deterministic schedule of injected I/O faults.

    One plan instance carries the occurrence counters, so it must not be
    shared between stores whose counts should be independent.
    """

    def __init__(
        self, rules: list[FaultRule] | None = None, seed: int = 0
    ) -> None:
        self._rules: dict[tuple[str, int], FaultRule] = {}
        for rule in rules or []:
            key = (rule.event, rule.index)
            if key in self._rules:
                raise ConfigurationError(
                    f"duplicate fault rule for {rule.event}[{rule.index}]"
                )
            self._rules[key] = rule
        self._rng = random.Random(seed)
        self._counts: dict[str, int] = {}
        #: Human-readable log of every rule that fired, in order.
        self.fired: list[str] = []
        self._tracer = None

    def attach_tracer(self, tracer) -> None:
        """Mirror fired rules into an event tracer.

        Called by the store when it opens with both a fault plan and an
        observability bundle — duck-typed, like ``wrap``, so this module
        still never imports the engine or obs packages.
        """
        self._tracer = tracer

    def occurrences(self, event: str) -> int:
        """How many times ``event`` has happened so far."""
        return self._counts.get(event, 0)

    def _next(self, event: str) -> FaultRule | None:
        index = self._counts.get(event, 0)
        self._counts[event] = index + 1
        rule = self._rules.get((event, index))
        if rule is not None:
            self.fired.append(f"{event}[{index}]:{rule.kind}")
            if self._tracer is not None:
                self._tracer.emit(
                    "fault", event=event, index=index, fault=rule.kind
                )
        return rule

    def corrupt(self, data: bytes) -> bytes:
        """Seeded bit-rot: flip up to 4 byte positions of ``data``."""
        if not data:
            return data
        blob = bytearray(data)
        for _ in range(min(4, len(blob))):
            position = self._rng.randrange(len(blob))
            blob[position] ^= 0xFF  # always changes the byte
        return bytes(blob)

    def wrap(self, file, site: str) -> "FaultyFile":
        """Wrap an open file so its I/O passes through this plan."""
        if site not in SITES:
            raise ConfigurationError(f"unknown fault site {site!r}")
        return FaultyFile(file, site, self)


class FaultyFile:
    """A file proxy that injects the plan's faults at write/fsync time.

    Ducks as the wrapped file for every other attribute (``flush``,
    ``close``, ``closed``, ``fileno``, ...). The engine's fsync helper
    calls :meth:`fsync` when present, so fsync faults are observable
    even though ``os.fsync`` itself takes a file descriptor.
    """

    def __init__(self, file, site: str, plan: FaultPlan) -> None:
        self._file = file
        self._site = site
        self._plan = plan

    def write(self, data):
        rule = self._plan._next(f"{self._site}.write")
        if rule is None:
            return self._file.write(data)
        if rule.kind == "fail":
            raise FaultInjectedError(
                f"injected write failure at {self._site}"
            )
        if rule.kind == "torn":
            kept = data[: rule.keep_bytes]
            if kept:
                self._file.write(kept)
            self._file.flush()
            raise FaultInjectedError(
                f"injected torn write at {self._site} "
                f"({len(kept)}/{len(data)} bytes persisted)"
            )
        # "corrupt": the write appears to succeed.
        if isinstance(data, str):
            corrupted = self._plan.corrupt(data.encode("utf-8"))
            # Replacing bytes with NULs keeps the payload valid UTF-8
            # while guaranteeing the record no longer parses.
            return self._file.write(
                "".join(
                    "\x00" if a != b else chr(b)
                    for a, b in zip(corrupted, data.encode("utf-8"))
                )
            )
        return self._file.write(self._plan.corrupt(bytes(data)))

    def fsync(self) -> None:
        rule = self._plan._next(f"{self._site}.fsync")
        if rule is not None:
            raise FaultInjectedError(
                f"injected fsync failure at {self._site}"
            )
        self._file.flush()
        os.fsync(self._file.fileno())

    def __getattr__(self, name):
        return getattr(self._file, name)
