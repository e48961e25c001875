"""Tests for the analytic keyspace (reclamation) model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.workloads import KeyspaceModel, UniformKeys, ZipfianKeys


@pytest.fixture
def uniform_model():
    return KeyspaceModel(UniformKeys(100_000))


@pytest.fixture
def zipf_model():
    return KeyspaceModel(ZipfianKeys(100_000, 0.99))


class TestFlushProfile:
    def test_uniform_matches_closed_form(self, uniform_model):
        # E[unique] = N (1 - (1 - 1/N)^e)
        writes = 50_000
        profile = uniform_model.flush_profile(writes)
        expected = 100_000 * (1 - (1 - 1 / 100_000) ** writes)
        assert uniform_model.unique_count(profile) == pytest.approx(expected, rel=1e-6)

    def test_zipf_reclaims_more_than_uniform(self, uniform_model, zipf_model):
        writes = 50_000
        uniform_unique = uniform_model.unique_count(
            uniform_model.flush_profile(writes)
        )
        zipf_unique = zipf_model.unique_count(zipf_model.flush_profile(writes))
        assert zipf_unique < uniform_unique

    def test_zero_writes_zero_unique(self, uniform_model):
        assert uniform_model.unique_count(uniform_model.flush_profile(0.0)) == 0.0

    def test_unique_bounded_by_keyspace(self, zipf_model):
        profile = zipf_model.flush_profile(10**9)
        assert zipf_model.unique_count(profile) <= zipf_model.keyspace + 1

    def test_negative_writes_raise(self, uniform_model):
        with pytest.raises(ConfigurationError):
            uniform_model.flush_profile(-1.0)

    @given(st.floats(0, 1e7))
    @settings(max_examples=30, deadline=None)
    def test_unique_monotone_in_writes(self, writes):
        model = KeyspaceModel(UniformKeys(10_000))
        u1 = model.unique_count(model.flush_profile(writes))
        u2 = model.unique_count(model.flush_profile(writes * 1.5 + 1))
        assert u2 >= u1 - 1e-9


class TestMergeProfiles:
    def test_merge_bounded_by_sum_and_keyspace(self, uniform_model):
        a = uniform_model.flush_profile(30_000)
        b = uniform_model.flush_profile(60_000)
        merged = uniform_model.merge_profiles([a, b])
        total = uniform_model.unique_count(merged)
        assert total <= uniform_model.unique_count(a) + uniform_model.unique_count(b)
        assert total <= uniform_model.keyspace
        assert total >= max(
            uniform_model.unique_count(a), uniform_model.unique_count(b)
        )

    def test_merge_with_empty_is_identity(self, uniform_model):
        a = uniform_model.flush_profile(10_000)
        merged = uniform_model.merge_profiles([a, uniform_model.empty_profile()])
        assert uniform_model.unique_count(merged) == pytest.approx(
            uniform_model.unique_count(a)
        )

    def test_merge_zero_profiles_raises(self, uniform_model):
        with pytest.raises(ConfigurationError):
            uniform_model.merge_profiles([])

    def test_merge_is_commutative(self, zipf_model):
        a = zipf_model.flush_profile(5_000)
        b = zipf_model.flush_profile(40_000)
        ab = zipf_model.merge_profiles([a, b])
        ba = zipf_model.merge_profiles([b, a])
        np.testing.assert_allclose(ab, ba)

    def test_loaded_profile_absorbs_everything(self, uniform_model):
        loaded = uniform_model.loaded_profile()
        extra = uniform_model.flush_profile(50_000)
        merged = uniform_model.merge_profiles([loaded, extra])
        assert uniform_model.unique_count(merged) == pytest.approx(
            uniform_model.keyspace, rel=1e-9
        )


class TestMergeSlice:
    def test_disjoint_slices_add(self, uniform_model):
        # two files covering different halves: union = sum
        half = uniform_model.loaded_profile() * 0.25  # 25% of keys, per slice
        left = uniform_model.merge_slice([half * 0.5], 0.5)
        assert uniform_model.unique_count(left) <= uniform_model.keyspace * 0.5

    def test_slice_union_bounded_by_slice_keyspace(self, uniform_model):
        width = 0.1
        profile = uniform_model.loaded_profile() * 0.09
        merged = uniform_model.merge_slice([profile, profile], width)
        assert uniform_model.unique_count(merged) <= uniform_model.keyspace * width + 1

    def test_invalid_width_raises(self, uniform_model):
        with pytest.raises(ConfigurationError):
            uniform_model.merge_slice([uniform_model.empty_profile()], 0.0)


class TestBucketing:
    def test_uniform_collapses_to_single_bucket(self, uniform_model):
        assert uniform_model.buckets == 1

    def test_zipf_uses_many_buckets(self, zipf_model):
        assert zipf_model.buckets > 10

    def test_keyspace_count_preserved(self, zipf_model):
        assert zipf_model.keyspace == 100_000
