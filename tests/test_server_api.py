"""Public-API surface tests for :mod:`repro.server` and friends.

The serving tier is consumed by code outside this repository (examples,
the CLI, the cluster router), so ``__all__`` is a contract: every
documented name must be exported, every exported name must resolve, and
nothing slips in unannounced.
"""

import pytest

import repro.cluster
import repro.server
import repro.server.loadgen
from repro.errors import ConfigurationError
from repro.server.loadgen import LoadResult, _operation_stream

#: The documented public API of ``repro.server`` (docs/server.md).
SERVER_API = {
    # admission
    "ADMIT", "DELAY", "REJECT", "MODES",
    "AdmissionController", "AdmissionDecision", "build_admission",
    # protocol + service
    "FramedServer", "KVServer",
    "DEFAULT_WRITE_DEADLINE",
    # client
    "KVClient", "ClientMetrics",
    # error types callers must be able to catch
    "ProtocolError", "RequestFailedError", "RetriesExhaustedError",
    "ServerError",
}

#: The documented public API of ``repro.server.loadgen`` (docs/server.md,
#: "Load generation"): its own module, which the package does not
#: import, because it needs numpy and a serving process does not.
LOADGEN_API = {
    "DISTRIBUTIONS", "LoadResult", "classify_error", "closed_loop",
    "open_loop",
}

#: The documented public API of ``repro.cluster`` (docs/cluster.md).
CLUSTER_API = {
    "SCOPES",
    "ClusterAdmission", "ClusterRouter", "LocalCluster",
    "ClusterStats", "aggregate_stats",
    "HashRing", "ShardedStore",
    "BREAKER_STATES", "CircuitBreaker",
}


class TestPublicSurface:
    def test_server_all_matches_documented_api(self):
        assert set(repro.server.__all__) == SERVER_API
        assert not hasattr(repro.server, "closed_loop")

    def test_cluster_all_matches_documented_api(self):
        assert set(repro.cluster.__all__) == CLUSTER_API

    @pytest.mark.parametrize("name", sorted(SERVER_API | LOADGEN_API))
    def test_server_names_resolve(self, name):
        home = repro.server.loadgen if name in LOADGEN_API else repro.server
        assert getattr(home, name) is not None

    @pytest.mark.parametrize("name", sorted(CLUSTER_API))
    def test_cluster_names_resolve(self, name):
        assert getattr(repro.cluster, name) is not None

    def test_no_duplicate_exports(self):
        assert len(repro.server.__all__) == len(set(repro.server.__all__))
        assert len(repro.cluster.__all__) == len(
            set(repro.cluster.__all__)
        )


class TestEmptyLoadResult:
    """An all-errors run has no latency distribution to report."""

    def empty(self):
        return LoadResult(
            label="doomed",
            op_count=0,
            error_count=12,
            duration_seconds=1.0,
        )

    def test_percentile_raises_value_error(self):
        with pytest.raises(ValueError, match="no latency samples"):
            self.empty().write_latency_profile((99.0,))

    def test_latency_profile_raises_value_error(self):
        with pytest.raises(ValueError, match="doomed"):
            self.empty().write_latency_profile()

    def test_summary_still_safe(self):
        assert "no completed operations" in self.empty().summary()

    def test_max_latency_still_safe(self):
        assert self.empty().max_latency == 0.0

    def test_populated_result_unaffected(self):
        result = LoadResult(
            label="fine",
            op_count=4,
            error_count=0,
            duration_seconds=1.0,
            latencies=[0.001, 0.002, 0.003, 0.004],
        )
        assert result.write_latency_profile((50.0,))[50.0] > 0.0
        assert set(result.write_latency_profile()) == {50.0, 90.0, 99.0}


class TestOperationStream:
    def take_keys(self, count, **kwargs):
        stream = _operation_stream(7, 256, 8, **kwargs)
        return [next(stream)[0] for _ in range(count)]

    def test_unknown_distribution_rejected(self):
        with pytest.raises(ConfigurationError, match="pareto"):
            next(_operation_stream(1, 10, 8, distribution="pareto"))

    def test_zipf_stream_is_deterministic(self):
        first = self.take_keys(300, distribution="zipf", theta=1.2)
        second = self.take_keys(300, distribution="zipf", theta=1.2)
        assert first == second

    def test_zipf_concentrates_traffic(self):
        keys = self.take_keys(600, distribution="zipf", theta=1.2)
        top_share = max(
            keys.count(key) for key in set(keys)
        ) / len(keys)
        uniform_keys = self.take_keys(600, distribution="uniform")
        uniform_top = max(
            uniform_keys.count(key) for key in set(uniform_keys)
        ) / len(uniform_keys)
        assert top_share > 3 * uniform_top

    def test_keys_stay_inside_keyspace(self):
        for key in self.take_keys(200, distribution="zipf", theta=1.4):
            assert 0 <= int(key.decode().split("-")[1]) < 256
