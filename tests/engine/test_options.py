"""Tests for engine options validation and per-policy engine behaviour."""

import pytest

from repro.engine import LSMStore, StoreOptions
from repro.errors import ConfigurationError


class TestStoreOptionsValidation:
    def test_defaults_are_valid(self):
        options = StoreOptions()
        assert options.policy == "tiering"
        assert options.scheduler == "greedy"
        assert options.block_codec == "none"
        assert options.filter_kind == "bloom"

    def test_block_format_knobs_accepted(self):
        options = StoreOptions(block_codec="zlib", filter_kind="bloom")
        assert options.block_codec == "zlib"
        assert options.filter_kind == "bloom"

    @pytest.mark.parametrize(
        "overrides",
        [
            {"memtable_bytes": 100},
            {"num_memtables": 0},
            {"policy": "btree"},
            {"scheduler": "random"},
            {"size_ratio": 1.0},
            {"levels": 0},
            {"block_bytes": 16},
            {"block_codec": "lz4"},
            {"filter_kind": "xor"},
            {"rate_limit_bytes_per_s": -1},
            {"stall_mode": "panic"},
        ],
    )
    def test_invalid_configurations_rejected(self, overrides):
        with pytest.raises(ConfigurationError):
            StoreOptions(**overrides)

    @pytest.mark.parametrize(
        "overrides,reason",
        [
            ({"policy": "partitioned", "size_ratio": 10}, "range-partitioned"),
            ({"scheduler": "spring"}, "spring-and-gear"),
        ],
    )
    def test_simulator_only_names_refused(self, overrides, reason):
        with pytest.raises(ConfigurationError, match=reason):
            StoreOptions(**overrides)

    @pytest.mark.parametrize("policy", ["tiering", "lazy-leveling"])
    def test_fractional_tiered_ratio_refused(self, policy):
        with pytest.raises(ConfigurationError, match="whole size ratio"):
            StoreOptions(policy=policy, size_ratio=2.7)

    def test_bad_options_fail_before_a_store_opens(self, tmp_path):
        """The options refuse the ratio themselves, so no store directory
        (or MANIFEST handle) is ever opened for them."""
        directory = tmp_path / "db"
        with pytest.raises(ConfigurationError):
            options = StoreOptions(policy="tiering", size_ratio=1.5)
            LSMStore.open(str(directory), options)
        assert not directory.exists()

    def test_scrubbing_needs_workers(self):
        """Inline maintenance never claims a scrub chunk, so a scrub
        interval on an inline store would silently never scrub."""
        with pytest.raises(ConfigurationError, match="scrub"):
            StoreOptions(scrub_interval=1.0)
        options = StoreOptions(scrub_interval=1.0, background_maintenance=True)
        assert options.scrub_interval == 1.0

    def test_with_returns_updated_copy(self):
        base = StoreOptions()
        updated = base.with_(scheduler="fair")
        assert updated.scheduler == "fair"
        assert base.scheduler == "greedy"


class TestPolicyChoicesOnEngine:
    """Every policy the engine offers must converge and stay correct."""

    @pytest.mark.parametrize(
        "policy,size_ratio",
        [
            ("tiering", 3),
            ("leveling", 4),
            ("size-tiered", 1.2),
            ("lazy-leveling", 3),
        ],
    )
    def test_policy_end_to_end(self, tmp_path, policy, size_ratio):
        options = StoreOptions(
            memtable_bytes=16 * 1024,
            policy=policy,
            size_ratio=size_ratio,
            levels=3,
            scheduler="greedy",
            constraint_limit=64,
        )
        with LSMStore.open(str(tmp_path / policy), options) as store:
            for i in range(5000):
                store.put(f"user{i % 700:06d}".encode(), b"v" * 48)
            store.maintenance()
            stats = store.stats()
            assert stats.merges_completed >= 1
            assert len(list(store.scan())) == 700
            assert store.get(b"user000123") == b"v" * 48
        with LSMStore.open(str(tmp_path / policy), options) as reopened:
            assert len(list(reopened.scan())) == 700


class TestStallModes:
    def test_reject_mode_raises_on_stall(self, tmp_path):
        from repro.errors import WriteStalledError

        options = StoreOptions(
            memtable_bytes=4096,
            policy="tiering",
            size_ratio=3,
            levels=2,
            constraint_limit=2,
            stall_mode="reject",
        )
        with LSMStore.open(str(tmp_path / "db"), options) as store:
            with pytest.raises(WriteStalledError):
                for i in range(100_000):
                    store.put(f"k{i:08d}".encode(), b"v" * 64)

    def test_block_mode_makes_progress(self, tmp_path):
        options = StoreOptions(
            memtable_bytes=4096,
            policy="tiering",
            size_ratio=3,
            levels=2,
            constraint_limit=8,
            stall_mode="block",
        )
        with LSMStore.open(str(tmp_path / "db"), options) as store:
            for i in range(20_000):
                store.put(f"k{i % 1000:08d}".encode(), b"v" * 64)
            assert store.stats().write_stalls >= 0  # no deadlock, completed
            assert len(list(store.scan())) == 1000
