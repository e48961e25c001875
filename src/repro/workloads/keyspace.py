"""Analytic keyspace model: expected unique keys under merges.

The fluid simulator does not materialize individual keys. What it needs
from the workload is *reclamation*: when components are merged, entries
that update the same key collapse into one, so the output component is
smaller than the sum of its inputs. How much smaller depends on the key
distribution — under Zipf updates, hot keys are updated over and over and
merges reclaim a lot; under uniform updates over a large keyspace,
reclamation at small levels is negligible and grows toward the largest
level.

The model buckets the popularity ranks of the keyspace into geometric bins
(fine bins for the hottest ranks). A component is summarized by its
*profile*: the expected number of distinct keys it holds in each bucket.

* A memtable flushed after ``e`` raw writes has, in bucket ``g`` with
  ``n_g`` keys of per-draw probability ``p_g``, an expected
  ``n_g * (1 - (1 - p_g) ** e)`` distinct keys.
* Merging components with per-bucket unique counts ``u_{i,g}`` yields
  ``n_g * (1 - prod_i (1 - u_{i,g} / n_g))`` distinct keys — exact when
  the key sets are independent draws, which is the case for uniform keys
  and an accurate approximation for scrambled Zipf.

These are closed-form expectations, so the simulator's component sizes are
deterministic — a deliberate choice that makes every benchmark reproducible
bit-for-bit and isolates the *avoidable* variance the paper studies (the
scheduler's) from workload noise.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from .distributions import KeyDistribution, UniformKeys

#: A profile is a float array of expected distinct keys per rank bucket.
Profile = np.ndarray


class KeyspaceModel:
    """Bucketed analytic model of a key distribution's update reclamation."""

    def __init__(
        self,
        distribution: KeyDistribution,
        buckets: int = 64,
    ) -> None:
        if buckets <= 0:
            raise ConfigurationError("bucket count must be positive")
        keyspace = distribution.keyspace
        if isinstance(distribution, UniformKeys):
            buckets = 1  # all ranks identical: one bucket is exact
        # Geometric rank boundaries: fine buckets for hot ranks.
        edges = np.unique(
            np.floor(
                np.power(float(keyspace), np.linspace(0.0, 1.0, buckets + 1))
            ).astype(np.int64)
        )
        edges[0] = 0
        edges[-1] = keyspace
        edges = np.unique(edges)
        self._counts = (edges[1:] - edges[:-1]).astype(np.float64)
        mid = (edges[:-1] + np.maximum(edges[1:] - 1, edges[:-1])) / 2.0
        probs = distribution.rank_probabilities(mid)
        # Renormalize so bucket masses sum to exactly 1: the midpoint
        # approximation otherwise drifts for very skewed distributions.
        mass = probs * self._counts
        scale = mass.sum()
        if scale <= 0:
            raise ConfigurationError("distribution has zero total mass")
        self._probs = probs / scale
        self._distribution = distribution

    @property
    def keyspace(self) -> int:
        """Total number of distinct keys in the model."""
        return int(self._counts.sum())

    @property
    def buckets(self) -> int:
        """Number of rank buckets."""
        return len(self._counts)

    def empty_profile(self) -> Profile:
        """Profile of a component holding no keys."""
        return np.zeros_like(self._counts)

    def flush_profile(self, writes: float) -> Profile:
        """Profile of a memtable flushed after ``writes`` raw writes."""
        if writes < 0:
            raise ConfigurationError("write count must be non-negative")
        per_key_miss = np.exp(writes * np.log1p(-np.minimum(self._probs, 1 - 1e-12)))
        return self._counts * (1.0 - per_key_miss)

    def merge_profiles(self, profiles: list[Profile]) -> Profile:
        """Profile of the component produced by merging ``profiles``."""
        if not profiles:
            raise ConfigurationError("cannot merge zero profiles")
        miss = np.ones_like(self._counts)
        for profile in profiles:
            fraction = np.clip(profile / self._counts, 0.0, 1.0)
            miss *= 1.0 - fraction
        return self._counts * (1.0 - miss)

    def unique_count(self, profile: Profile) -> float:
        """Expected total distinct keys in a profile."""
        return float(profile.sum())

    def loaded_profile(self) -> Profile:
        """Profile of a fully loaded keyspace (every key present once)."""
        return self._counts.copy()

    def merge_slice(self, restricted: list[Profile], width: float) -> Profile:
        """Union of profiles restricted to a key slice of width ``width``.

        Used by the partitioned-LSM simulator: ``restricted`` holds each
        input's profile already scaled to its overlap with the output
        slice (scrambled distributions spread every rank bucket uniformly
        across the key range, so restriction is multiplication by the
        overlap fraction). Bucket ``g`` of the slice holds ``n_g * width``
        keys, and the union follows the same independence formula as
        :meth:`merge_profiles`.
        """
        if not restricted:
            raise ConfigurationError("cannot merge zero profiles")
        if not 0.0 < width <= 1.0:
            raise ConfigurationError("slice width must be in (0, 1]")
        counts = np.maximum(self._counts * width, 1e-12)
        miss = np.ones_like(counts)
        for profile in restricted:
            fraction = np.clip(profile / counts, 0.0, 1.0)
            miss *= 1.0 - fraction
        return counts * (1.0 - miss)

    def __repr__(self) -> str:
        return (
            f"KeyspaceModel({self._distribution!r}, buckets={self.buckets})"
        )
