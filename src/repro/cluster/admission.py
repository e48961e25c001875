"""Global vs. local admission scope for the sharded serving tier.

The paper classifies component constraints as *global* (one limit over
the whole tree) or *local* (per level / per component group). One level
up, the same split reappears across shards, and this module makes it an
explicit knob over PR 1's per-engine controllers
(:mod:`repro.server.admission`):

``global``
    One controller judges every write against the *worst-case* merged
    view of all shard snapshots (:func:`~repro.cluster.stats.worst_case_stats`):
    if any shard is stalled, every write in the cluster is delayed or
    rejected. Simple and conservatively safe — and exactly how one hot
    shard throttles a whole cluster.

``local``
    One controller *per shard*, each judging only writes routed to its
    shard against that shard's own snapshot. A stalled shard
    backpressures its own key range; the rest of the cluster keeps
    serving at full speed. Stateful controllers (``limit``'s token
    bucket) are instantiated per shard, so the rate cap is per-shard
    bandwidth, not a cluster-wide pool.

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
    AdmissionController,
    AdmissionDecision,
    build_admission,
)
from .stats import worst_case_stats

#: The admission scopes exposed on the CLI.
SCOPES = ("global", "local")


class ClusterAdmission:
    """Scope wrapper: route shard snapshots into per-engine controllers.

    ``controllers`` holds exactly one controller for ``global`` scope,
    or one per shard for ``local`` scope (so stateful modes keep
    independent per-shard state). Use :func:`build_cluster_admission`
    rather than constructing directly.
    """

    def __init__(
        self,
        scope: str,
        controllers: Sequence[AdmissionController],
    ) -> None:
        if scope not in SCOPES:
            raise ConfigurationError(
                f"unknown admission scope {scope!r}; expected one of {SCOPES}"
            )
        if not controllers:
            raise ConfigurationError("need at least one controller")
        if scope == "global" and len(controllers) != 1:
            raise ConfigurationError(
                "global scope uses exactly one controller"
            )
        modes = {controller.mode for controller in controllers}
        if len(modes) != 1:
            raise ConfigurationError(
                f"controllers must share one mode, got {sorted(modes)}"
            )
        self._scope = scope
        self._controllers = list(controllers)

    @property
    def scope(self) -> str:
        """``"global"`` or ``"local"``."""
        return self._scope

    @property
    def base_mode(self) -> str:
        """The wrapped per-engine mode (``stop`` / ``gradual`` / ...)."""
        return self._controllers[0].mode

    @property
    def mode(self) -> str:
        """Combined label, e.g. ``"local:stop"`` (STATS, CLI output)."""
        return f"{self._scope}:{self.base_mode}"

    @property
    def stall_pause(self) -> float:
        """The base controller's pause at a closed gate (gradual base);
        the router's ``retry_after`` hint when shard retries run out."""
        return self._controllers[0].stall_pause

    def _controller_for(self, shard: int) -> AdmissionController:
        if self._scope == "global":
            return self._controllers[0]
        return self._controllers[shard]

    def decide(
        self,
        shard: int,
        snapshots: Sequence[StoreStats],
        nbytes: int,
    ) -> AdmissionDecision:
        """Judge one write bound for ``shard`` against the cluster state."""
        if not 0 <= shard < max(len(snapshots), len(self._controllers)):
            raise ConfigurationError(f"shard {shard} out of range")
        if self._scope == "global":
            view = worst_case_stats(snapshots)
        else:
            view = snapshots[shard]
        return self._controller_for(shard).decide(view, nbytes)

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


def build_cluster_admission(
    scope: str,
    mode: str,
    num_shards: int,
    **params,
) -> ClusterAdmission:
    """Factory: one cluster admission layer over per-engine controllers.

    ``params`` are forwarded to the base mode's constructor (see
    :func:`repro.server.admission.build_admission`). Local scope builds
    ``num_shards`` independent controllers so stateful modes (limit)
    keep per-shard state.
    """
    if scope not in SCOPES:
        raise ConfigurationError(
            f"unknown admission scope {scope!r}; expected one of {SCOPES}"
        )
    if num_shards < 1:
        raise ConfigurationError("need at least one shard")
    count = 1 if scope == "global" else num_shards
    controllers = [build_admission(mode, **params) for _ in range(count)]
    return ClusterAdmission(scope, controllers)
