"""Key-choice distributions for update workloads.

The paper evaluates two update workloads: keys drawn uniformly over the
loaded keyspace, and keys drawn from a (scrambled) Zipf distribution as in
YCSB. These classes produce concrete keys for the real storage engine and
expose the rank probabilities needed by the analytic keyspace model used
by the simulator.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..errors import ConfigurationError


class KeyDistribution(ABC):
    """A distribution over the integer keyspace ``[0, keyspace)``."""

    def __init__(self, keyspace: int) -> None:
        if keyspace <= 0:
            raise ConfigurationError("keyspace size must be positive")
        self._keyspace = keyspace

    @property
    def keyspace(self) -> int:
        """Number of distinct keys."""
        return self._keyspace

    @abstractmethod
    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Draw ``count`` keys as an int64 array."""

    @abstractmethod
    def rank_probabilities(self, ranks: np.ndarray) -> np.ndarray:
        """Probability that one draw selects the key of each given rank.

        Ranks are 0-based and ordered from most to least popular; for the
        uniform distribution every rank has the same probability.
        """


class UniformKeys(KeyDistribution):
    """Every key in the keyspace is equally likely."""

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return rng.integers(0, self._keyspace, size=count, dtype=np.int64)

    def rank_probabilities(self, ranks: np.ndarray) -> np.ndarray:
        ranks = np.asarray(ranks)
        return np.full(ranks.shape, 1.0 / self._keyspace)

    def __repr__(self) -> str:
        return f"UniformKeys(keyspace={self._keyspace})"


class ZipfianKeys(KeyDistribution):
    """Scrambled Zipfian distribution as used by YCSB.

    Rank ``r`` (0-based) is chosen with probability proportional to
    ``1 / (r + 1) ** theta``. YCSB's default ``theta`` is 0.99. Ranks are
    scrambled onto the keyspace with a fixed pseudo-random permutation
    (an affine hash) so that popular keys are spread across the key range
    rather than clustered — this matters for partitioned LSM-trees, where
    clustering would skew per-file overlap.
    """

    #: Multiplier of the splitmix64-style scrambling hash.
    _SCRAMBLE_MULTIPLIER = 0x9E3779B97F4A7C15

    def __init__(self, keyspace: int, theta: float = 0.99) -> None:
        super().__init__(keyspace)
        if not 0.0 < theta < 2.0:
            raise ConfigurationError(f"zipf theta={theta} out of sensible range")
        self._theta = theta
        # Normalization constant computed once: zeta_n = sum r^-theta.
        # Exact for small keyspaces; Euler-Maclaurin style integral
        # approximation for large ones keeps construction O(1).
        if keyspace <= 2_000_000:
            ranks = np.arange(1, keyspace + 1, dtype=np.float64)
            self._zeta = float(np.sum(ranks**-theta))
        else:
            head = np.arange(1, 1_000_001, dtype=np.float64)
            head_sum = float(np.sum(head**-theta))
            # Integral of x^-theta from 1e6 to keyspace.
            n0, n1 = 1_000_000.5, keyspace + 0.5
            tail = (n1 ** (1 - theta) - n0 ** (1 - theta)) / (1 - theta)
            self._zeta = head_sum + tail

    @property
    def theta(self) -> float:
        """Skew parameter; larger is more skewed."""
        return self._theta

    def _scramble(self, ranks: np.ndarray) -> np.ndarray:
        """Map ranks onto keys with a fixed mixing permutation."""
        mixed = (ranks.astype(np.uint64) * np.uint64(self._SCRAMBLE_MULTIPLIER)) >> np.uint64(1)
        return (mixed % np.uint64(self._keyspace)).astype(np.int64)

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        # Inverse-CDF sampling on the continuous approximation of the
        # Zipf CDF, which is accurate for keyspaces of 10^5 and larger
        # and costs O(1) per draw (YCSB uses the same approach).
        u = rng.random(count)
        one_minus = 1.0 - self._theta
        cumulative = u * self._zeta * one_minus
        ranks = np.power(cumulative + 0.5**one_minus, 1.0 / one_minus)
        ranks = np.clip(ranks.astype(np.int64), 0, self._keyspace - 1)
        return self._scramble(ranks)

    def rank_probabilities(self, ranks: np.ndarray) -> np.ndarray:
        ranks = np.asarray(ranks, dtype=np.float64)
        return (ranks + 1.0) ** (-self._theta) / self._zeta

    def __repr__(self) -> str:
        return f"ZipfianKeys(keyspace={self._keyspace}, theta={self._theta})"


class LatestKeys(KeyDistribution):
    """YCSB's "latest" distribution: recent inserts are most popular.

    Included for completeness of the YCSB-style generator; the paper's
    experiments use uniform and Zipf. The popularity of the key inserted
    ``d`` writes ago follows the same Zipf law over recency ranks.
    """

    def __init__(self, keyspace: int, theta: float = 0.99) -> None:
        super().__init__(keyspace)
        self._zipf = ZipfianKeys(keyspace, theta)

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        recency = self._zipf.sample(rng, count) % self._keyspace
        return (self._keyspace - 1 - recency).astype(np.int64)

    def rank_probabilities(self, ranks: np.ndarray) -> np.ndarray:
        return self._zipf.rank_probabilities(np.asarray(ranks))

    def __repr__(self) -> str:
        return f"LatestKeys(keyspace={self._keyspace})"


class HotspotKeys(KeyDistribution):
    """YCSB's hotspot distribution: a hot key set absorbs most accesses.

    A fraction ``hot_fraction`` of the keyspace (spread across the key
    range, like the scrambled Zipfian) receives ``hot_probability`` of
    the draws uniformly; the remainder of the draws go uniformly to the
    cold keys. Defaults match YCSB's hotspot defaults (20% of keys take
    80% of accesses).
    """

    def __init__(
        self,
        keyspace: int,
        hot_fraction: float = 0.2,
        hot_probability: float = 0.8,
    ) -> None:
        super().__init__(keyspace)
        if not 0.0 < hot_fraction < 1.0:
            raise ConfigurationError("hot_fraction must be in (0, 1)")
        if not 0.0 < hot_probability < 1.0:
            raise ConfigurationError("hot_probability must be in (0, 1)")
        self._hot_count = max(1, int(keyspace * hot_fraction))
        self._hot_probability = hot_probability

    def _spread(self, ranks: np.ndarray) -> np.ndarray:
        """Map hot ranks onto keys spread across the key range."""
        stride = max(self._keyspace // self._hot_count, 1)
        return ((ranks.astype(np.int64) * stride) % self._keyspace).astype(
            np.int64
        )

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        hot = rng.random(count) < self._hot_probability
        hot_ranks = rng.integers(0, self._hot_count, size=count, dtype=np.int64)
        cold = rng.integers(0, self._keyspace, size=count, dtype=np.int64)
        return np.where(hot, self._spread(hot_ranks), cold)

    def rank_probabilities(self, ranks: np.ndarray) -> np.ndarray:
        ranks = np.asarray(ranks)
        hot_mass = self._hot_probability / self._hot_count
        # cold draws may also land on hot keys (uniform over everything)
        cold_mass = (1.0 - self._hot_probability) / self._keyspace
        return np.where(ranks < self._hot_count, hot_mass + cold_mass, cold_mass)

    def __repr__(self) -> str:
        return (
            f"HotspotKeys(keyspace={self._keyspace}, "
            f"hot={self._hot_count}, p={self._hot_probability})"
        )
