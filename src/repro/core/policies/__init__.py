"""Merge policies: which components to merge (Figure 2, Sections 5-6)."""

from .base import MergePolicy
from .layout import LazyLevelingPolicy, LevelingPolicy, TieringPolicy
from .partitioned import PartitionedLevelingPolicy
from .size_tiered import SizeTieredPolicy

__all__ = [
    "LazyLevelingPolicy",
    "LevelingPolicy",
    "MergePolicy",
    "PartitionedLevelingPolicy",
    "SizeTieredPolicy",
    "TieringPolicy",
]
