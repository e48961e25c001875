"""Figure 6: two-phase evaluation of bLSM's spring-and-gear scheduler.

(a) Testing phase: the closed-loop throughput shows large variance with
temporary peaks right after C1 swap-outs. (b) Running phase at 95%: the
throughput must periodically slow down under merge pressure. (c) The
percentile *processing* latency stays bounded (the spring gracefully
slows writes) while the *write* latency — which includes queuing — is
orders of magnitude larger: bounding processing latency alone is not
enough.
"""

from repro.harness import ExperimentSpec, format_latency_profile, two_phase

from _common import SCALE, banner, run_once, series_block, show


def test_fig06_blsm_two_phase(benchmark, capsys):
    spec = ExperimentSpec.blsm(scale=SCALE)

    def experiment():
        return {
            "uniform": two_phase(spec),
            "zipf": two_phase(spec.with_(distribution="zipf")),
        }

    outcomes = run_once(benchmark, experiment)
    uniform = outcomes["uniform"]
    zipf = outcomes["zipf"]

    write_profile = uniform.running.write_latency_profile()
    processing_profile = uniform.running.processing_latency_profile()
    text = "\n".join(
        [
            banner("Figure 6", "bLSM spring-and-gear, two-phase evaluation"),
            series_block(
                "(a) testing phase throughput, uniform",
                uniform.testing.throughput_series(),
            ),
            series_block(
                "(a) testing phase throughput, zipf",
                zipf.testing.throughput_series(),
            ),
            series_block(
                "(b) running phase throughput at 95%, uniform",
                uniform.running.throughput_series(),
            ),
            "(c) latencies, uniform:",
            "  processing: " + format_latency_profile(processing_profile),
            "  write:      " + format_latency_profile(write_profile),
            f"max throughput: uniform={uniform.max_write_throughput:.1f} "
            f"zipf={zipf.max_write_throughput:.1f} entries/s",
        ]
    )
    show(capsys, text, "fig06_blsm.txt")

    # (a) large variance with temporary peaks in the testing phase
    testing = uniform.testing.throughput_series()[5:]
    assert testing.std() > 0.1 * testing.mean()
    # zipf reclaims more -> at least comparable throughput (paper: higher)
    assert zipf.max_write_throughput >= 0.9 * uniform.max_write_throughput
    # (c) processing latency bounded, write latency dominated by queuing
    assert processing_profile[99.0] < 1.0
    assert write_profile[99.0] > 10 * processing_profile[99.0]
