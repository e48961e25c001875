"""Parameter sweeps: the multi-configuration figures.

Each sweep runs the two-phase methodology across one axis — size ratio
(Figure 11), utilization (Figure 27), partition size (Figure 24) — and
returns one summary row per point, ready for
:func:`repro.harness.report.format_table`.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from ..errors import ConfigurationError
from .spec import ExperimentSpec
from .twophase import running_phase, testing_phase, two_phase


def size_ratio_sweep(
    policy: str,
    ratios: Sequence[int],
    schedulers: Sequence[str] = ("fair", "greedy"),
    scale: float = 128.0,
    **spec_overrides,
) -> list[dict[str, object]]:
    """Figure 11: max throughput and p99 latency across size ratios.

    For each ratio, the maximum throughput is measured once with the fair
    scheduler (the paper's testing-phase rule), then each runtime
    scheduler is evaluated at 95% of that number. Leveling uses the
    dynamic level size optimization, as the paper does for this figure
    (the other setups take no such option).
    """
    rows: list[dict[str, object]] = []
    for ratio in ratios:
        base = ExperimentSpec.for_policy(
            policy, size_ratio=ratio, scale=scale, dynamic_level_sizes=True
        ).with_(**spec_overrides)
        max_throughput, _ = testing_phase(base)
        row: dict[str, object] = {
            "policy": policy,
            "T": ratio,
            "max_throughput": max_throughput,
        }
        for scheduler in schedulers:
            result = running_phase(
                base.with_(scheduler=scheduler),
                max_throughput=max_throughput,
            )
            profile = result.write_latency_profile((99.0,))
            row[f"p99_{scheduler}"] = profile[99.0]
            row[f"stalls_{scheduler}"] = float(result.stall_count())
        rows.append(row)
    return rows


def utilization_sweep(
    spec: ExperimentSpec,
    utilizations: Sequence[float],
    max_throughput: float | None = None,
) -> list[dict[str, object]]:
    """Figure 27: p99 write latency as a function of system utilization."""
    if max_throughput is None:
        max_throughput, _ = testing_phase(spec)
    rows = []
    for utilization in utilizations:
        if not 0.0 < utilization < 1.0:
            raise ConfigurationError("utilization must be within (0, 1)")
        result = running_phase(
            spec, arrival_rate=utilization * max_throughput
        )
        profile = result.write_latency_profile((50.0, 99.0))
        rows.append(
            {
                "utilization": utilization,
                "arrival_rate": utilization * max_throughput,
                "p50": profile[50.0],
                "p99": profile[99.0],
                "stalls": float(result.stall_count()),
            }
        )
    return rows


def partition_size_sweep(
    file_mibs: Sequence[float],
    scale: float = 128.0,
    testing_fix: bool = True,
    **spec_overrides,
) -> list[dict[str, object]]:
    """Figure 24: write throughput and p99 latency across partition sizes.

    As the partition file grows toward the level size, partitioned merges
    degenerate into full merges and the single-threaded scheduler's
    stalls reappear.
    """
    rows = []
    for file_mib in file_mibs:
        spec = ExperimentSpec.partitioned(
            file_mib=file_mib, scale=scale, testing_fix=testing_fix, **spec_overrides
        )
        outcome = two_phase(spec)
        profile = outcome.running.write_latency_profile((99.0,))
        rows.append(
            {
                "file_mib": file_mib,
                "max_throughput": outcome.max_write_throughput,
                "p99": profile[99.0],
                "stalls": float(outcome.running.stall_count()),
            }
        )
    return rows


def scheduler_running_results(
    make_spec: Callable[[str], ExperimentSpec],
    schedulers: Iterable[str] = ("single", "fair", "greedy"),
):
    """Run each scheduler's running phase against identical arrivals.

    Returns ``(arrival_rate, {scheduler: SimResult})`` — the raw results
    behind :func:`compare_schedulers`, for callers that want the full
    series (throughput charts) rather than summary rows.
    """
    schedulers = list(schedulers)
    base = make_spec(schedulers[0])
    max_throughput, _ = testing_phase(base)
    results = {
        scheduler: running_phase(
            make_spec(scheduler), max_throughput=max_throughput
        )
        for scheduler in schedulers
    }
    return base.utilization * max_throughput, results


def compare_schedulers(
    make_spec: Callable[[str], ExperimentSpec],
    schedulers: Iterable[str] = ("single", "fair", "greedy"),
) -> list[dict[str, object]]:
    """Figures 9/10 in tabular form: one two-phase row per scheduler.

    The testing phase is run once (fair), and each runtime scheduler is
    evaluated against the same arrival rate.
    """
    arrival_rate, results = scheduler_running_results(make_spec, schedulers)
    rows = []
    for scheduler, result in results.items():
        profile = result.write_latency_profile((50.0, 99.0, 99.9))
        rows.append(
            {
                "scheduler": scheduler,
                "arrival_rate": arrival_rate,
                "stalls": float(result.stall_count()),
                "stall_seconds": result.stall_time,
                "max_components": result.components.maximum(),
                "p50": profile[50.0],
                "p99": profile[99.0],
                "p999": profile[99.9],
            }
        )
    return rows
