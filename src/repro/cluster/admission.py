"""Global vs. local admission scope for the sharded serving tier.

The paper classifies component constraints as *global* (one limit over
the whole tree) or *local* (per level / per component group). One level
up, the same split reappears across shards, and this module makes it an
explicit knob over the per-engine adapters of
:mod:`repro.server.admission`:

``global``
    One adapter judges every write against the worst signals of all
    shard snapshots: the lowest ``write_headroom`` and the highest
    ``memory_fill``. If any shard is stalled, every write in the
    cluster is delayed or rejected. Simple and conservatively safe —
    and exactly how one hot shard throttles a whole cluster.

``local``
    One adapter *per shard*, each judging only writes routed to its
    shard against that shard's own snapshot. A stalled shard
    backpressures its own key range; the rest of the cluster keeps
    serving at full speed. ``limit``'s pacer is per shard, so the rate
    cap is per-shard bandwidth, not a cluster-wide pool.

The base mode (``stop`` / ``limit`` / ``gradual`` / ``none``) still
decides *how* backpressure is applied; the scope decides *how far* one
shard's backpressure reaches.
"""

from __future__ import annotations

from typing import Sequence

from ..engine.datastore import StoreStats
from ..errors import ConfigurationError
from ..server.admission import (
    ADMIT,
    DELAY,
    REJECT,
    AdmissionDecision,
    build_admission,
)

#: The admission scopes exposed on the CLI.
SCOPES = ("global", "local")


class ClusterAdmission:
    """Scope wrapper: route shard snapshots into per-engine adapters.

    Builds one adapter of ``mode`` for ``global`` scope, or one per
    shard for ``local`` scope, passing ``params`` to
    :func:`repro.server.admission.build_admission`. A router refuses an
    admission built for another shard count.
    """

    def __init__(
        self, scope: str, mode: str, num_shards: int, **params
    ) -> None:
        if scope not in SCOPES:
            raise ConfigurationError(
                f"unknown admission scope {scope!r}; expected one of {SCOPES}"
            )
        if num_shards < 1:
            raise ConfigurationError("need at least one shard")
        self._scope = scope
        self.num_shards = num_shards
        count = 1 if scope == "global" else num_shards
        self._adapters = [
            build_admission(mode, **params) for _ in range(count)
        ]

    @property
    def scope(self) -> str:
        """``"global"`` or ``"local"``."""
        return self._scope

    @property
    def base_mode(self) -> str:
        """The wrapped per-engine mode (``stop`` / ``gradual`` / ...)."""
        return self._adapters[0].mode

    @property
    def mode(self) -> str:
        """Combined label, e.g. ``"local:stop"`` (STATS, CLI output)."""
        return f"{self._scope}:{self.base_mode}"

    @property
    def retry_after(self) -> float:
        """The adapters' backoff hint; also the router's when shard
        retries run out."""
        return self._adapters[0].retry_after

    def require_shards(self, num_shards: int) -> None:
        """Refuse to serve a cluster of another size than built for."""
        if num_shards != self.num_shards:
            raise ConfigurationError(
                f"admission was built for {self.num_shards} shards, "
                f"the cluster has {num_shards}"
            )

    def decide(
        self,
        shard: int,
        snapshots: Sequence[StoreStats],
        nbytes: int,
    ) -> AdmissionDecision:
        """Judge one write bound for ``shard`` against the cluster state."""
        if not 0 <= shard < min(len(snapshots), self.num_shards):
            raise ConfigurationError(f"shard {shard} out of range")
        if self._scope == "global":
            return self._adapters[0].decide(
                min(stats.write_headroom for stats in snapshots),
                max(stats.memory_fill for stats in snapshots),
                nbytes,
            )
        stats = snapshots[shard]
        return self._adapters[shard].decide(
            stats.write_headroom, stats.memory_fill, nbytes
        )

    def decide_many(
        self,
        nbytes_by_shard: dict[int, int],
        snapshots: Sequence[StoreStats],
    ) -> AdmissionDecision:
        """Judge a multi-shard batch: the worst shard decision wins.

        Any rejection rejects the batch (longest ``retry_after``);
        otherwise the batch waits out the longest delay; otherwise it is
        admitted.
        """
        if not nbytes_by_shard:
            raise ConfigurationError("batch touches no shards")
        decisions = [
            self.decide(shard, snapshots, nbytes)
            for shard, nbytes in sorted(nbytes_by_shard.items())
        ]
        rejections = [d for d in decisions if d.action == REJECT]
        if rejections:
            return max(rejections, key=lambda d: d.retry_after)
        delays = [d for d in decisions if d.action == DELAY]
        if delays:
            return max(delays, key=lambda d: d.delay_seconds)
        return AdmissionDecision(ADMIT)
