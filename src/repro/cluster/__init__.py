"""A sharded, multi-engine serving tier over :mod:`repro.engine`.

The paper's component-constraint taxonomy — global versus local — one
level up: a consistent-hash ring maps keys onto N shard engines, and a
cluster admission layer decides whether one hot shard's write stall
backpressures the whole cluster (``global``) or only its own key range
(``local``). An asyncio router
speaks the single-server wire protocol on the front and fans out to
per-shard :class:`~repro.server.KVServer` backends, with scatter-gather
scans; it is the cluster's only key-value front end.
"""

from .admission import SCOPES, ClusterAdmission
from .breaker import STATES as BREAKER_STATES
from .breaker import CircuitBreaker
from .ring import HashRing
from .local import LocalCluster
from .router import ClusterRouter
from .sharded import ShardedStore
from .stats import ClusterStats, aggregate_stats

__all__ = [
    "BREAKER_STATES",
    "SCOPES",
    "CircuitBreaker",
    "ClusterAdmission",
    "ClusterRouter",
    "ClusterStats",
    "HashRing",
    "LocalCluster",
    "ShardedStore",
    "aggregate_stats",
]
