"""Figures 19-20: the size-tiered merge policy's unsustainable maximum.

Figure 19: running at 95% of the naively measured maximum (elastic
merging during the closed testing phase) produces write stalls under the
fair scheduler, and the greedy scheduler only avoids them by letting
components accumulate. Figure 20: measuring the testing phase with the
paper's fix — always merge the *minimum* number of components — yields a
lower but sustainable rate for both schedulers.

Prose numbers reproduced in shape: the paper measured 17,008 records/s
naively versus 8,863 records/s with the fix (a 1.92x inflation).
"""

from repro.harness import ExperimentSpec, running_phase
from repro.harness import testing_phase as measure_max

from _common import SCALE, banner, run_once, series_block, show, table_block


def test_fig19_20_size_tiered(benchmark, capsys):
    def experiment():
        naive_spec = ExperimentSpec.size_tiered(scale=SCALE)
        fixed_spec = ExperimentSpec.size_tiered(scale=SCALE, testing_fix=True)
        naive_max, naive_testing = measure_max(naive_spec)
        fixed_max, _ = measure_max(fixed_spec)
        runs = {}
        for label, spec, max_throughput in (
            ("naive", naive_spec, naive_max),
            ("fixed", fixed_spec, fixed_max),
        ):
            for scheduler in ("fair", "greedy"):
                runs[(label, scheduler)] = running_phase(
                    spec.with_(scheduler=scheduler),
                    max_throughput=max_throughput,
                )
        return naive_max, fixed_max, naive_testing, runs

    naive_max, fixed_max, naive_testing, runs = run_once(benchmark, experiment)

    wide_merges = sum(
        1 for m in naive_testing.merge_log if m.input_count >= 8
    )
    rows = []
    blocks = [
        banner("Figures 19-20", "size-tiered policy: naive vs fixed "
                                "testing-phase measurement"),
        f"measured maxima: naive={naive_max:.1f}  fixed={fixed_max:.1f} "
        f"entries/s  (inflation x{naive_max / fixed_max:.2f}; "
        f"paper: x1.92 = 17,008/8,863)",
        f"wide (>=8 component) merges during naive testing: {wide_merges}",
    ]
    for (label, scheduler), run in runs.items():
        profile = run.write_latency_profile((99.0,))
        blocks.append(
            series_block(f"({label}) running throughput, {scheduler}",
                         run.throughput_series())
        )
        rows.append(
            {
                "measurement": label,
                "scheduler": scheduler,
                "stalls": float(run.stall_count()),
                "max_components": run.components.maximum(),
                "p99": profile[99.0],
            }
        )
    blocks.append(table_block(rows))
    show(capsys, "\n".join(blocks), "fig19_20_size_tiered.txt")

    # the naive measurement is inflated (paper: 1.92x)
    assert naive_max > 1.2 * fixed_max
    assert wide_merges > 10
    by_key = {(r["measurement"], r["scheduler"]): r for r in rows}
    # Fig 19: naive rate stalls under fair; components pile high
    assert by_key[("naive", "fair")]["stalls"] > 0
    assert by_key[("naive", "fair")]["p99"] > 10.0
    assert by_key[("naive", "greedy")]["max_components"] >= 25
    # Fig 20: the fixed rate is clean for both schedulers
    for scheduler in ("fair", "greedy"):
        assert by_key[("fixed", scheduler)]["stalls"] == 0.0
        assert by_key[("fixed", scheduler)]["p99"] < 1.0
    # and greedy still reduces components slightly under the fixed rate
    assert (
        by_key[("fixed", "greedy")]["max_components"]
        <= by_key[("fixed", "fair")]["max_components"]
    )
