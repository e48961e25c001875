"""Tests for key-choice distributions."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.workloads import LatestKeys, UniformKeys, ZipfianKeys


class TestUniformKeys:
    def test_samples_within_keyspace(self):
        dist = UniformKeys(1000)
        keys = dist.sample(np.random.default_rng(0), 5000)
        assert keys.min() >= 0
        assert keys.max() < 1000

    def test_rank_probabilities_sum_to_one(self):
        dist = UniformKeys(1000)
        probs = dist.rank_probabilities(np.arange(1000))
        assert probs.sum() == pytest.approx(1.0)

    def test_roughly_uniform_coverage(self):
        dist = UniformKeys(10)
        keys = dist.sample(np.random.default_rng(1), 100_000)
        counts = np.bincount(keys, minlength=10)
        assert counts.min() > 9_000  # each key ~10k expected

    def test_invalid_keyspace(self):
        with pytest.raises(ConfigurationError):
            UniformKeys(0)


class TestZipfianKeys:
    def test_samples_within_keyspace(self):
        dist = ZipfianKeys(10_000)
        keys = dist.sample(np.random.default_rng(0), 10_000)
        assert keys.min() >= 0
        assert keys.max() < 10_000

    def test_skew_concentrates_mass(self):
        dist = ZipfianKeys(100_000, theta=0.99)
        keys = dist.sample(np.random.default_rng(2), 100_000)
        __, counts = np.unique(keys, return_counts=True)
        # Under heavy skew far fewer distinct keys appear than draws.
        assert len(counts) < 60_000
        # And the hottest key receives far more than the uniform share.
        assert counts.max() > 50

    def test_rank_probabilities_decreasing(self):
        dist = ZipfianKeys(1000)
        probs = dist.rank_probabilities(np.arange(1000))
        assert (np.diff(probs) <= 0).all()

    def test_scrambling_spreads_hot_keys(self):
        dist = ZipfianKeys(100_000)
        keys = dist.sample(np.random.default_rng(3), 50_000)
        # hot keys must not cluster at the low end of the key range
        assert np.median(keys) > 20_000

    def test_theta_validation(self):
        with pytest.raises(ConfigurationError):
            ZipfianKeys(100, theta=2.5)

    def test_large_keyspace_constructs_quickly(self):
        dist = ZipfianKeys(100_000_000)
        probs = dist.rank_probabilities(np.array([0, 10, 1_000_000]))
        assert (probs > 0).all()

    @given(st.integers(100, 100_000), st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_samples_always_in_range(self, keyspace, seed):
        dist = ZipfianKeys(keyspace)
        keys = dist.sample(np.random.default_rng(seed), 100)
        assert keys.min() >= 0
        assert keys.max() < keyspace


class TestLatestKeys:
    def test_recent_keys_most_popular(self):
        dist = LatestKeys(10_000)
        keys = dist.sample(np.random.default_rng(4), 50_000)
        # "latest" favours the high end of the key range
        assert np.median(keys) > 5_000

    def test_samples_within_keyspace(self):
        dist = LatestKeys(500)
        keys = dist.sample(np.random.default_rng(5), 1000)
        assert keys.min() >= 0
        assert keys.max() < 500


class TestHotspotKeys:
    def test_hot_set_absorbs_most_accesses(self):
        from repro.workloads import HotspotKeys

        dist = HotspotKeys(10_000, hot_fraction=0.2, hot_probability=0.8)
        keys = dist.sample(np.random.default_rng(6), 50_000)
        hot_count = 2_000  # a fifth of the keys, spread evenly
        stride = 10_000 // hot_count
        hot_keys = {(r * stride) % 10_000 for r in range(hot_count)}
        hot_hits = sum(1 for k in keys if int(k) in hot_keys)
        assert hot_hits / 50_000 > 0.75

    def test_samples_in_range(self):
        from repro.workloads import HotspotKeys

        dist = HotspotKeys(1000)
        keys = dist.sample(np.random.default_rng(7), 5000)
        assert keys.min() >= 0 and keys.max() < 1000

    def test_rank_probabilities_sum_to_one(self):
        from repro.workloads import HotspotKeys

        dist = HotspotKeys(1000, hot_fraction=0.1, hot_probability=0.9)
        probs = dist.rank_probabilities(np.arange(1000))
        assert probs.sum() == pytest.approx(1.0)
        assert probs[0] > probs[-1]

    def test_validation(self):
        from repro.workloads import HotspotKeys

        with pytest.raises(ConfigurationError):
            HotspotKeys(100, hot_fraction=0.0)
        with pytest.raises(ConfigurationError):
            HotspotKeys(100, hot_probability=1.0)
