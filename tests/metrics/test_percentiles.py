"""Tests for exact percentile computation."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.metrics import percentile_profile


def percentile(samples, q):
    """One level of the profile: what every one-percentile caller uses."""
    return percentile_profile(samples, (q,))[q]


class TestPercentile:
    def test_returns_observed_sample(self):
        samples = [5.0, 1.0, 3.0]
        assert percentile(samples, 50.0) in samples

    def test_median_of_odd_count(self):
        assert percentile([1.0, 2.0, 3.0], 50.0) == 2.0

    def test_p0_is_min_and_p100_is_max(self):
        samples = [4.0, 9.0, 1.0]
        assert percentile(samples, 0.0) == 1.0
        assert percentile(samples, 100.0) == 9.0

    def test_empty_samples_raise(self):
        with pytest.raises(ConfigurationError):
            percentile([], 50.0)

    def test_out_of_range_level_raises(self):
        with pytest.raises(ConfigurationError):
            percentile([1.0], 101.0)

    def test_tail_is_conservative_from_above(self):
        # 100 samples 1..100: nearest-rank-from-above P99 must be the
        # 99th-or-later sample, never the 98th. The old "lower"
        # interpolation reported 99.0 here — i.e. "P99" was really P98,
        # under-reporting exactly the tail the paper is about.
        samples = [float(v) for v in range(1, 101)]
        assert percentile(samples, 99.0) == 100.0
        assert percentile(samples, 90.0) == 91.0

    @given(
        st.lists(st.floats(0, 1e6, allow_nan=False), min_size=1, max_size=200),
        st.floats(0, 100),
    )
    def test_result_always_within_sample_range(self, samples, q):
        value = percentile(samples, q)
        assert min(samples) <= value <= max(samples)

    @given(
        st.lists(st.floats(0, 1e6, allow_nan=False), min_size=1, max_size=200),
        st.floats(0, 100),
    )
    def test_at_least_q_percent_of_samples_at_or_below(self, samples, q):
        # The defining property of a conservative percentile: the mass
        # at or below the reported value is never less than q.
        value = percentile(samples, q)
        at_or_below = sum(1 for s in samples if s <= value)
        assert at_or_below / len(samples) >= q / 100.0 - 1e-12


class TestPercentileProfile:
    def test_default_levels(self):
        profile = percentile_profile(np.arange(1000.0))
        assert set(profile) == {50.0, 90.0, 99.0, 99.9}

    def test_profile_is_monotone_in_level(self):
        profile = percentile_profile(np.random.default_rng(0).random(500))
        levels = sorted(profile)
        values = [profile[level] for level in levels]
        assert values == sorted(values)


class TestWeightedPercentileProfile:
    def test_uniform_weights_match_plain_percentiles(self):
        from repro.metrics import weighted_percentile_profile

        values = list(range(1000))
        profile = weighted_percentile_profile(values, [1.0] * 1000, (50.0, 99.0))
        assert profile[50.0] == pytest.approx(500, abs=2)
        assert profile[99.0] == pytest.approx(990, abs=2)

    def test_heavy_weight_dominates(self):
        from repro.metrics import weighted_percentile_profile

        profile = weighted_percentile_profile(
            [0.001, 10.0], [99.0, 1.0], (50.0, 99.0, 99.9)
        )
        assert profile[50.0] == pytest.approx(0.001)
        assert profile[99.9] == pytest.approx(10.0)

    def test_unsorted_input_handled(self):
        from repro.metrics import weighted_percentile_profile

        profile = weighted_percentile_profile(
            [5.0, 1.0, 3.0], [1.0, 1.0, 1.0], (0.0, 100.0)
        )
        assert profile[0.0] == 1.0
        assert profile[100.0] == 5.0

    def test_validation(self):
        from repro.metrics import weighted_percentile_profile

        with pytest.raises(ConfigurationError):
            weighted_percentile_profile([], [], (50.0,))
        with pytest.raises(ConfigurationError):
            weighted_percentile_profile([1.0], [-1.0], (50.0,))
        with pytest.raises(ConfigurationError):
            weighted_percentile_profile([1.0], [1.0], (150.0,))
