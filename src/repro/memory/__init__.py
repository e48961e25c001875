"""repro.memory — one memory budget per node, moved by marginal I/O.

One :class:`MemoryBudget` owns the node's bytes; :class:`MemoryArbiter`
moves them, a step per tick, between the shards' memtable targets and
block-cache capacities, toward whichever saves the most I/O per byte.
See ``docs/memory.md``.
"""

from .arbiter import MemoryArbiter, RebalanceDecision
from .budget import MIN_MEMTABLE_BYTES, MemoryBudget, MemoryShares, apportion_bytes

__all__ = [
    "MIN_MEMTABLE_BYTES",
    "MemoryArbiter",
    "MemoryBudget",
    "MemoryShares",
    "RebalanceDecision",
    "apportion_bytes",
]
