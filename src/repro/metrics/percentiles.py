"""Exact percentile computation over latency samples.

The paper reports percentile write/query latencies (50%, 90%, 99%, 99.9%).
Experiments in this reproduction are deterministic simulations, so every
sample is kept. Percentiles use the "higher" interpolation (nearest rank from
above): the reported value is an actual observed sample, and tail
percentiles are conservative. The previous "lower" interpolation
systematically under-reported the tail on small sample counts — with 100
samples, "P99" was really P98 — which is exactly the statistic this
reproduction exists to get right.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..errors import ConfigurationError

#: The percentile levels reported throughout the paper's figures.
STANDARD_PERCENTILES: tuple[float, ...] = (50.0, 90.0, 99.0, 99.9)


def percentile_profile(
    samples: Sequence[float] | np.ndarray,
    levels: Iterable[float] = STANDARD_PERCENTILES,
) -> dict[float, float]:
    """Return ``{level: value}`` for each percentile level in ``levels``
    (in percent, 0-100), each an observed sample.

    Raises :class:`~repro.errors.ConfigurationError` when ``samples`` is
    empty or a level is out of range, rather than silently returning
    NaN. One level: ``percentile_profile(samples, (99.0,))[99.0]``.
    """
    levels = tuple(levels)
    for level in levels:
        if not 0.0 <= level <= 100.0:
            raise ConfigurationError(
                f"percentile level {level} must be within [0, 100]"
            )
    arr = np.asarray(samples, dtype=np.float64)
    if arr.size == 0:
        raise ConfigurationError("cannot take percentiles of zero samples")
    values = np.percentile(arr, levels, method="higher")
    return {level: float(value) for level, value in zip(levels, values)}


def weighted_percentile_profile(
    values: Sequence[float] | np.ndarray,
    weights: Sequence[float] | np.ndarray,
    levels: Iterable[float] = STANDARD_PERCENTILES,
) -> dict[float, float]:
    """Percentiles of a weighted sample set.

    Used for fluid-model latencies, where each sample stands for a mass
    of writes (or queries) rather than a single observation: the ``q``-th
    percentile is the smallest value whose cumulative weight share
    reaches ``q``.
    """
    values = np.asarray(values, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if values.size == 0 or values.shape != weights.shape:
        raise ConfigurationError(
            "weighted percentiles need matching, non-empty values/weights"
        )
    if (weights < 0).any() or weights.sum() <= 0:
        raise ConfigurationError("weights must be non-negative with mass")
    order = np.argsort(values)
    values = values[order]
    cumulative = np.cumsum(weights[order])
    cumulative /= cumulative[-1]
    result = {}
    for level in tuple(levels):
        if not 0.0 <= level <= 100.0:
            raise ConfigurationError(f"percentile level {level} out of range")
        index = int(np.searchsorted(cumulative, level / 100.0))
        result[level] = float(values[min(index, values.size - 1)])
    return result
