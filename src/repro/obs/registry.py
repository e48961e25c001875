"""The metrics registry: labelled counters, gauges, and log-scale histograms.

Zero-dependency observability primitives shared by every tier (engine,
server, cluster, faults). Three deliberate constraints shape the design:

* **No wall-clock reads on the hot path.** Counters and histograms are
  pure arithmetic over values the caller already has; anything that
  needs a timestamp (the event tracer, latency measurement) takes an
  injectable clock. Instrumented code stays deterministic under test.
* **Mergeable snapshots.** A snapshot is a plain dict (JSON-safe) and
  two snapshots of the same schema merge by *summing counts* — which is
  the only correct way to combine histograms across shards. Percentiles
  are computed from the merged buckets, never averaged or summed.
* **Fixed log-scale buckets.** Histogram buckets are geometric
  (``start * factor**i``), so relative error of a percentile read from
  the buckets is bounded by ``factor`` and merging never needs bucket
  realignment.
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from typing import Iterable, Sequence

from ..errors import ConfigurationError

#: Metric and label names follow the Prometheus data model.
_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def log_scale_bounds(
    start: float = 1e-6, factor: float = 2.0, count: int = 28
) -> tuple[float, ...]:
    """Geometric bucket upper bounds: ``start * factor**i``.

    The default spans 1 microsecond to ~134 seconds in 28 buckets —
    wide enough for any latency this system produces, tight enough that
    a percentile read from the buckets is within a factor of 2 of the
    exact value.
    """
    if start <= 0 or factor <= 1.0 or count < 1:
        raise ConfigurationError("need start > 0, factor > 1, count >= 1")
    return tuple(start * factor**i for i in range(count))


#: The shared default: latency seconds, 1 µs .. ~134 s, factor 2.
DEFAULT_LATENCY_BOUNDS = log_scale_bounds()


def _labels_key(labels: dict[str, str] | None) -> tuple[tuple[str, str], ...]:
    if not labels:
        return ()
    for name in labels:
        if not _LABEL_RE.match(name):
            raise ConfigurationError(f"invalid label name {name!r}")
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "labels", "_value")

    def __init__(self, name: str, labels: dict[str, str]) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the total."""
        if amount < 0:
            raise ConfigurationError("counters only go up")
        self._value += amount

    @property
    def value(self) -> float:
        """Current total."""
        return self._value


class Gauge:
    """A point-in-time value that can go up and down."""

    __slots__ = ("name", "labels", "_value")

    def __init__(self, name: str, labels: dict[str, str]) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge's value."""
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Adjust the gauge by ``amount`` (may be negative)."""
        self._value += amount

    @property
    def value(self) -> float:
        """Current value."""
        return self._value


class Histogram:
    """Fixed-bucket cumulative-style histogram (log-scale by default).

    ``observe`` costs one binary search and two additions — no clock
    reads, no allocation — so it is safe inside the engine under its
    store lock. Bucket counts are *per-bucket* internally and rendered
    cumulatively by the exposition layer.
    """

    __slots__ = ("name", "labels", "bounds", "counts", "sum", "count")

    def __init__(
        self,
        name: str,
        labels: dict[str, str],
        bounds: Sequence[float],
    ) -> None:
        bounds = tuple(float(b) for b in bounds)
        if not bounds or any(
            b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])
        ):
            raise ConfigurationError(
                "histogram bounds must be strictly increasing and non-empty"
            )
        self.name = name
        self.labels = labels
        self.bounds = bounds
        #: One slot per finite bound plus the +Inf overflow bucket.
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one sample."""
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1


def percentile_from_buckets(
    bounds: Sequence[float], counts: Sequence[int], q: float
) -> float:
    """Conservative ``q``-th percentile read from histogram buckets.

    Uses nearest-rank-from-above over the cumulative counts and reports
    the *upper* bound of the bucket holding that rank, so the estimate
    never under-reports: for any sample distribution the result is >=
    the exact percentile and (for in-range samples) within one bucket
    factor of it. Samples in the overflow bucket yield ``inf`` —
    honestly "beyond the histogram's range" rather than a made-up cap.
    """
    if not 0.0 <= q <= 100.0:
        raise ConfigurationError(f"percentile q={q} must be within [0, 100]")
    total = sum(counts)
    if total == 0:
        raise ConfigurationError("cannot take a percentile of zero samples")
    rank = max(1, math.ceil(q / 100.0 * total))
    cumulative = 0
    for index, bucket_count in enumerate(counts):
        cumulative += bucket_count
        if cumulative >= rank:
            if index < len(bounds):
                return bounds[index]
            return math.inf
    return math.inf  # pragma: no cover - unreachable (cumulative == total)


class MetricsRegistry:
    """A process-tier's named metrics, snapshot-able and mergeable.

    Children are identified by ``(name, labels)``; asking twice returns
    the same object, asking for the same name with a different metric
    kind raises. Child creation is locked; increments on the returned
    objects are plain attribute arithmetic (instrumented code holds its
    own locks — the engine's store lock, the event loop's single
    thread).
    """

    def __init__(self) -> None:
        self._metrics: dict[tuple, object] = {}
        self._kinds: dict[str, str] = {}
        self._help: dict[str, str] = {}
        self._lock = threading.Lock()

    def _child(
        self,
        kind: str,
        name: str,
        labels: dict[str, str] | None,
        help_text: str,
        factory,
    ):
        if not _NAME_RE.match(name):
            raise ConfigurationError(f"invalid metric name {name!r}")
        key = (name, _labels_key(labels))
        with self._lock:
            known_kind = self._kinds.get(name)
            if known_kind is not None and known_kind != kind:
                raise ConfigurationError(
                    f"metric {name!r} already registered as {known_kind}"
                )
            child = self._metrics.get(key)
            if child is None:
                child = factory(
                    name, dict(sorted((labels or {}).items()))
                )
                self._metrics[key] = child
                self._kinds[name] = kind
                if help_text:
                    self._help[name] = help_text
            return child

    def counter(
        self, name: str, labels: dict[str, str] | None = None, help: str = ""
    ) -> Counter:
        """Get-or-create a labelled counter."""
        return self._child("counter", name, labels, help, Counter)

    def gauge(
        self, name: str, labels: dict[str, str] | None = None, help: str = ""
    ) -> Gauge:
        """Get-or-create a labelled gauge."""
        return self._child("gauge", name, labels, help, Gauge)

    def histogram(
        self,
        name: str,
        labels: dict[str, str] | None = None,
        help: str = "",
        bounds: Sequence[float] | None = None,
    ) -> Histogram:
        """Get-or-create a labelled histogram (default log-scale bounds)."""
        chosen = DEFAULT_LATENCY_BOUNDS if bounds is None else tuple(bounds)

        def factory(metric_name, metric_labels):
            return Histogram(metric_name, metric_labels, chosen)

        return self._child("histogram", name, labels, help, factory)

    def snapshot(self) -> dict:
        """A JSON-safe, mergeable view of every registered metric."""
        counters, gauges, histograms = [], [], []
        with self._lock:
            children = list(self._metrics.values())
            help_text = dict(self._help)
        for child in children:
            entry = {
                "name": child.name,
                "labels": dict(child.labels),
                "help": help_text.get(child.name, ""),
            }
            if isinstance(child, Counter):
                counters.append(dict(entry, value=child.value))
            elif isinstance(child, Gauge):
                gauges.append(dict(entry, value=child.value))
            else:
                histograms.append(
                    dict(
                        entry,
                        bounds=list(child.bounds),
                        counts=list(child.counts),
                        sum=child.sum,
                        count=child.count,
                    )
                )
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }


def relabel_snapshot(snapshot: dict, labels: dict[str, str]) -> dict:
    """A copy of ``snapshot`` with ``labels`` stamped onto every series.

    The cluster rollup uses this to keep per-shard series distinguishable
    (``{shard="0"}``) before merging them with the router's own metrics.
    """
    result = {}
    for section, entries in snapshot.items():
        result[section] = [
            dict(entry, labels=dict(entry.get("labels", {}), **{
                k: str(v) for k, v in labels.items()
            }))
            for entry in entries
        ]
    return result


def merge_snapshots(snapshots: Iterable[dict]) -> dict:
    """Combine registry snapshots the statistically correct way.

    Counters with identical ``(name, labels)`` sum; histograms sum their
    per-bucket counts, totals, and sums (bounds must match — percentiles
    are then read from the *merged* buckets, never computed per shard
    and summed); colliding gauges keep the worst (maximum) value, since
    every gauge in this system is a pressure/size signal. Merging is
    associative and commutative, so rollups compose across tiers.
    """
    counters: dict[tuple, dict] = {}
    gauges: dict[tuple, dict] = {}
    histograms: dict[tuple, dict] = {}
    for snapshot in snapshots:
        for entry in snapshot.get("counters", []):
            key = (entry["name"], _labels_key(entry.get("labels")))
            if key in counters:
                counters[key]["value"] += entry["value"]
            else:
                counters[key] = dict(entry, labels=dict(entry.get("labels", {})))
        for entry in snapshot.get("gauges", []):
            key = (entry["name"], _labels_key(entry.get("labels")))
            if key in gauges:
                gauges[key]["value"] = max(
                    gauges[key]["value"], entry["value"]
                )
            else:
                gauges[key] = dict(entry, labels=dict(entry.get("labels", {})))
        for entry in snapshot.get("histograms", []):
            key = (entry["name"], _labels_key(entry.get("labels")))
            if key in histograms:
                merged = histograms[key]
                if list(merged["bounds"]) != list(entry["bounds"]):
                    raise ConfigurationError(
                        f"histogram {entry['name']!r} bucket bounds differ "
                        "between snapshots; cannot merge"
                    )
                merged["counts"] = [
                    a + b for a, b in zip(merged["counts"], entry["counts"])
                ]
                merged["sum"] += entry["sum"]
                merged["count"] += entry["count"]
            else:
                histograms[key] = dict(
                    entry,
                    labels=dict(entry.get("labels", {})),
                    bounds=list(entry["bounds"]),
                    counts=list(entry["counts"]),
                )
    return {
        "counters": list(counters.values()),
        "gauges": list(gauges.values()),
        "histograms": list(histograms.values()),
    }
