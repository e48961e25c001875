"""Closed-form LSM cost model (Table 1 and Section 5.1's analysis).

These formulas are the paper's analytic backbone: the expected maximum
write throughput of leveling and tiering under an I/O bandwidth budget,
the expected number of levels and components, and the component-constraint
sizing rule ("twice the expected number of disk components"). The
simulator is validated against them in ``benchmarks/test_table1_model.py``
and ``tests/sim`` — measured closed-system throughput must land near the
closed-form prediction.

Notation (Table 1): ``T`` size ratio, ``L`` number of levels, ``M`` memory
component size (entries), ``B`` I/O bandwidth (entries/s), ``mu`` arrival
rate, ``W`` write throughput.
"""

from __future__ import annotations

import math

from ..errors import ConfigurationError


def levels_for_leveling(total_entries: float, memory_entries: float, size_ratio: float) -> int:
    """Number of on-disk levels a leveling tree needs for a dataset.

    Level ``i`` (1-based) holds up to ``M * T**i`` entries; the smallest
    ``L`` with ``M * T**L >= N`` suffices.
    """
    _validate(total_entries, memory_entries, size_ratio)
    levels = 1
    capacity = memory_entries * size_ratio
    while capacity < total_entries:
        capacity *= size_ratio
        levels += 1
    return levels


def levels_for_tiering(total_entries: float, memory_entries: float, size_ratio: float) -> int:
    """Number of on-disk levels a tiering tree needs for a dataset.

    Level ``i`` holds up to ``T`` components of ``M * T**(i-1)`` entries
    each, i.e. up to ``M * T**i`` entries — the same geometric capacity as
    leveling, so the level count formula coincides.
    """
    return levels_for_leveling(total_entries, memory_entries, size_ratio)


def max_write_throughput_leveling(bandwidth: float, size_ratio: float, levels: int) -> float:
    """``W_level ~= 2 * B / (T * L)``: each entry is merged ``T/2`` times
    per level on average, across ``L`` levels (Section 5.1.3)."""
    if bandwidth <= 0 or size_ratio <= 1 or levels < 1:
        raise ConfigurationError("need B > 0, T > 1, L >= 1")
    return 2.0 * bandwidth / (size_ratio * levels)


def max_write_throughput_tiering(bandwidth: float, levels: int) -> float:
    """``W_tier ~= B / L``: each entry is merged once per level."""
    if bandwidth <= 0 or levels < 1:
        raise ConfigurationError("need B > 0, L >= 1")
    return bandwidth / levels


def default_component_limit(expected_components: int, factor: float = 2.0) -> int:
    """The paper's conservative global constraint: tolerate ``factor``
    times the expected number of disk components (Section 5.1.1).

    Factors below 1 are permitted — the constraint-factor ablation sweeps
    them deliberately — but they budget fewer components than the policy
    maintains in steady state, so stalls (or outright deadlock) are
    guaranteed.
    """
    if expected_components < 1:
        raise ConfigurationError("expected component count must be >= 1")
    if factor <= 0.0:
        raise ConfigurationError("constraint factor must be positive")
    return max(1, int(math.ceil(expected_components * factor)))


def flushed_components_tolerated(
    policy: str, size_ratio: float, level: int, levels: int
) -> float:
    """Flushed components that pile up during one level-``i`` merge under a
    single-threaded scheduler (Section 5.1.3's motivating computation).

    Returns ``2 * T**(i-1) / L`` for leveling and ``T**i / L`` for tiering
    — the exponential growth that rules out single-threaded scheduling for
    full merges.
    """
    if policy == "leveling":
        return 2.0 * size_ratio ** (level - 1) / levels
    if policy == "tiering":
        return size_ratio**level / levels
    raise ConfigurationError(f"unknown policy {policy!r}")


def _validate(total_entries: float, memory_entries: float, size_ratio: float) -> None:
    if total_entries <= 0 or memory_entries <= 0:
        raise ConfigurationError("entry counts must be positive")
    if size_ratio <= 1:
        raise ConfigurationError("size ratio must exceed 1")
