"""Plain-text reporting: the tables and series the benchmarks print.

Benchmarks reproduce figures, so their output is text: aligned tables for
parameter sweeps and coarse unicode sparklines for "instantaneous
throughput over time" panels. Everything returns strings so tests can
assert on them; the benches print to stdout and also append to
``results/`` files.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..errors import ConfigurationError
from .charts import _resample

_SPARK_LEVELS = "▁▂▃▄▅▆▇█"


def format_table(
    rows: Sequence[Mapping[str, object]],
    columns: Sequence[str] | None = None,
    floatfmt: str = ".3f",
) -> str:
    """Render dict-rows as an aligned plain-text table."""
    if not rows:
        raise ConfigurationError("cannot format an empty table")
    columns = list(columns) if columns else list(rows[0].keys())

    def cell(value: object) -> str:
        if isinstance(value, float):
            return format(value, floatfmt)
        return str(value)

    rendered = [[cell(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(line[idx]) for line in rendered))
        for idx, col in enumerate(columns)
    ]
    header = "  ".join(col.rjust(width) for col, width in zip(columns, widths))
    rule = "  ".join("-" * width for width in widths)
    body = [
        "  ".join(value.rjust(width) for value, width in zip(line, widths))
        for line in rendered
    ]
    return "\n".join([header, rule, *body])


def sparkline(values: Iterable[float], width: int = 72) -> str:
    """A unicode sparkline of a series, downsampled to ``width`` chars.

    Stalls render as the lowest glyph, so a write-stall-riddled
    throughput series is visibly gap-toothed in benchmark output.
    """
    data = _resample(np.asarray(list(values), dtype=np.float64), width)
    if data.size == 0:
        return ""
    top = float(data.max())
    if top <= 0:
        return _SPARK_LEVELS[0] * data.size
    scaled = np.clip(data / top * (len(_SPARK_LEVELS) - 1), 0, None)
    return "".join(_SPARK_LEVELS[int(round(v))] for v in scaled)


def format_latency_profile(profile: Mapping[float, float]) -> str:
    """Render a percentile profile as one compact line."""
    parts = [
        f"p{level:g}={value:.3f}s" for level, value in sorted(profile.items())
    ]
    return "  ".join(parts)


def emit(text: str, results_file: str | None = None) -> None:
    """Print a report block and optionally append it to ``results/``."""
    print(text)
    if results_file is not None:
        path = Path("results") / results_file
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("a", encoding="utf-8") as sink:
            sink.write(text + "\n")
