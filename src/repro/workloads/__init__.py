"""Workload generation: key distributions, arrival processes, records.

The simulator consumes :class:`ArrivalProcess` and :class:`KeyspaceModel`;
the real storage engine consumes :class:`RecordGenerator` streams.
"""

from .arrivals import (
    ArrivalProcess,
    BurstPhase,
    BurstyArrivals,
    ClosedArrivals,
    ConstantArrivals,
)
from .distributions import (
    HotspotKeys,
    KeyDistribution,
    LatestKeys,
    UniformKeys,
    ZipfianKeys,
)
from .keyspace import KeyspaceModel, Profile
from .records import GeneratedRecord, RecordGenerator, encode_key

__all__ = [
    "ArrivalProcess",
    "BurstPhase",
    "BurstyArrivals",
    "ClosedArrivals",
    "ConstantArrivals",
    "GeneratedRecord",
    "HotspotKeys",
    "KeyDistribution",
    "KeyspaceModel",
    "LatestKeys",
    "Profile",
    "RecordGenerator",
    "UniformKeys",
    "ZipfianKeys",
    "encode_key",
]
