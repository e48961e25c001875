"""Figures 28-29: secondary index query throughput versus selectivity.

Each query scans a secondary index for matching primary keys, sorts
them, and fetches the records from the primary index; as the selectivity
grows from 1 to 1000 records the bottleneck shifts from the index scan to
the primary lookups. The greedy scheduler improves throughput at every
selectivity by keeping both trees' component counts low; the improvement
is smaller under the eager strategy, whose lower arrival rate leaves less
merge backlog to optimize.
"""

from repro.harness import two_phase
from repro.sim import (
    DatasetTarget,
    QueryWorkload,
    SecondarySetup,
    simulate_dataset,
    simulate_queries,
)
from repro.workloads import ConstantArrivals

from _common import SCALE, banner, run_once, show, table_block

SELECTIVITIES = (1, 10, 100, 1000)


def test_fig28_29_secondary_query_selectivity(benchmark, capsys):
    def experiment():
        rows = []
        for strategy in ("lazy", "eager"):
            setup = SecondarySetup(strategy=strategy, scale=SCALE)
            max_throughput = two_phase(
                DatasetTarget(setup, running_duration=600.0)
            ).max_write_throughput
            for scheduler in ("fair", "greedy"):
                run = simulate_dataset(
                    setup,
                    ConstantArrivals(0.95 * max_throughput),
                    scheduler=scheduler,
                )
                for selectivity in SELECTIVITIES:
                    workload = QueryWorkload("secondary", float(selectivity), 8)
                    outcome = simulate_queries(
                        run.primary,
                        # query model works off the primary tree's trace
                        # plus the secondary tree's component counts
                        _config_for(setup),
                        workload,
                        secondary_result=run.secondary,
                    )
                    rows.append(
                        {
                            "strategy": strategy,
                            "scheduler": scheduler,
                            "selectivity": selectivity,
                            "qps": outcome.mean_throughput(),
                        }
                    )
        return rows

    def _config_for(setup):
        from repro.sim import bench_config

        return bench_config(setup.scale)

    rows = run_once(benchmark, experiment)
    text = "\n".join(
        [
            banner("Figures 28-29", "secondary index query throughput vs "
                                    "selectivity"),
            table_block(rows),
        ]
    )
    show(capsys, text, "fig28_29_secondary_queries.txt")

    def pick(strategy, scheduler, selectivity):
        for row in rows:
            if (row["strategy"], row["scheduler"], row["selectivity"]) == (
                strategy, scheduler, selectivity,
            ):
                return row["qps"]
        raise KeyError

    for strategy in ("lazy", "eager"):
        # throughput falls steeply as selectivity grows
        assert pick(strategy, "greedy", 1) > 20 * pick(strategy, "greedy", 1000)
        # greedy helps (or at least never hurts) at every selectivity
        for selectivity in SELECTIVITIES:
            assert pick(strategy, "greedy", selectivity) >= (
                0.99 * pick(strategy, "fair", selectivity)
            )
    # the greedy-vs-fair improvement is larger under lazy than eager at
    # high selectivity (the paper's closing observation for Fig. 28/29)
    lazy_gain = pick("lazy", "greedy", 1) / pick("lazy", "fair", 1)
    eager_gain = pick("eager", "greedy", 1) / pick("eager", "fair", 1)
    assert lazy_gain >= eager_gain * 0.98
