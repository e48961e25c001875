"""A sharded, multi-engine serving tier over :mod:`repro.engine`.

The paper's component-constraint taxonomy — global versus local — one
level up: a consistent-hash ring maps keys onto N shard engines, and a
cluster admission layer decides whether one hot shard's write stall
backpressures the whole cluster (``global``) or only its own key range
(``local``). An asyncio router
speaks the single-server wire protocol on the front and fans out to
per-shard :class:`~repro.server.KVServer` backends, with scatter-gather
scans and online shard migration under live writes.
"""

from .admission import SCOPES, ClusterAdmission, build_cluster_admission
from .breaker import STATES as BREAKER_STATES
from .breaker import CircuitBreaker
from .rebalance import MigrationReport, migrate_shard
from .ring import HashRing
from .router import ClusterMetrics, ClusterRouter, LocalCluster
from .sharded import ShardedStore
from .stats import ClusterStats, aggregate_stats, worst_case_stats

__all__ = [
    "BREAKER_STATES",
    "SCOPES",
    "CircuitBreaker",
    "ClusterAdmission",
    "ClusterMetrics",
    "ClusterRouter",
    "ClusterStats",
    "HashRing",
    "LocalCluster",
    "MigrationReport",
    "ShardedStore",
    "aggregate_stats",
    "build_cluster_admission",
    "migrate_shard",
    "worst_case_stats",
]
