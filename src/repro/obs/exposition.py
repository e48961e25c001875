"""Prometheus text-format exposition (format 0.0.4) and its lint.

Renders a :meth:`~repro.obs.registry.MetricsRegistry.snapshot` — or any
merged snapshot — to the plain-text scrape format, and serves it over a
deliberately tiny HTTP/1.0 responder that lives alongside the framed
KV protocol. No third-party client library: the format is a dozen
rules, and owning them lets :func:`lint_exposition` enforce the same
rules in CI so the endpoint cannot silently bit-rot.
"""

from __future__ import annotations

import asyncio
import inspect
import math
import re
from typing import Awaitable, Callable

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>\S+)$"
)

#: The scrape content type Prometheus expects for the text format.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")
    )


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if value != value:  # NaN
        return "NaN"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _format_labels(labels: dict[str, str], extra: dict[str, str] | None = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label_value(str(value))}"'
        for name, value in sorted(merged.items())
    )
    return "{" + inner + "}"


def render_prometheus(snapshot: dict) -> str:
    """Render a registry snapshot as Prometheus text format 0.0.4.

    Series are grouped per metric name under a single ``# TYPE`` header
    (a format requirement), histograms become cumulative ``_bucket``
    series with an explicit ``+Inf`` bucket plus ``_sum``/``_count``,
    and the output always ends with a newline.
    """
    by_name: dict[str, tuple[str, str, list[dict]]] = {}
    for kind, section in (
        ("counter", "counters"),
        ("gauge", "gauges"),
        ("histogram", "histograms"),
    ):
        for entry in snapshot.get(section, []):
            name = entry["name"]
            known = by_name.get(name)
            if known is None:
                by_name[name] = (kind, entry.get("help", ""), [entry])
            else:
                known[2].append(entry)

    lines: list[str] = []
    for name in sorted(by_name):
        kind, help_text, entries = by_name[name]
        if help_text:
            lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        for entry in entries:
            labels = entry.get("labels", {})
            if kind in ("counter", "gauge"):
                lines.append(
                    f"{name}{_format_labels(labels)} "
                    f"{_format_value(entry['value'])}"
                )
                continue
            cumulative = 0
            for bound, bucket_count in zip(entry["bounds"], entry["counts"]):
                cumulative += bucket_count
                lines.append(
                    f"{name}_bucket"
                    f"{_format_labels(labels, {'le': _format_value(bound)})} "
                    f"{cumulative}"
                )
            lines.append(
                f"{name}_bucket{_format_labels(labels, {'le': '+Inf'})} "
                f"{entry['count']}"
            )
            lines.append(
                f"{name}_sum{_format_labels(labels)} "
                f"{_format_value(entry['sum'])}"
            )
            lines.append(
                f"{name}_count{_format_labels(labels)} {entry['count']}"
            )
    return "\n".join(lines) + "\n"


def _parse_label_pairs(raw: str | None) -> tuple[tuple[str, str], ...] | None:
    """Parse a sample's label block; None signals a malformed block."""
    if raw is None or raw == "":
        return ()
    pairs = []
    for part in re.findall(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"', raw):
        pairs.append(part)
    # Reconstruction check: every byte of the block must belong to a
    # well-formed pair (commas between pairs are the only filler).
    rebuilt = ",".join(f'{name}="{value}"' for name, value in pairs)
    if rebuilt != raw:
        return None
    return tuple(sorted(pairs))


def lint_exposition(text: str) -> list[str]:
    """Validate Prometheus text output; returns problems (empty = clean).

    Checks the rules that actually catch regressions: parseable sample
    lines, valid metric names, a ``TYPE`` declared before any sample of
    that metric (and only once), no duplicate series, and for every
    histogram: monotone cumulative buckets, an ``le="+Inf"`` bucket that
    equals ``_count``, and both ``_sum`` and ``_count`` present.
    """
    problems: list[str] = []
    if not text.endswith("\n"):
        problems.append("output must end with a newline")
    typed: dict[str, str] = {}
    seen_series: set[tuple] = set()
    samples: list[tuple[str, tuple, float, int]] = []

    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4 or parts[3] not in (
                "counter", "gauge", "histogram", "summary", "untyped"
            ):
                problems.append(f"line {lineno}: malformed TYPE line")
                continue
            name = parts[2]
            if name in typed:
                problems.append(f"line {lineno}: duplicate TYPE for {name}")
            typed[name] = parts[3]
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            problems.append(f"line {lineno}: unparseable sample {line!r}")
            continue
        name = match.group("name")
        if not _NAME_RE.match(name):
            problems.append(f"line {lineno}: invalid metric name {name!r}")
        labels = _parse_label_pairs(match.group("labels"))
        if labels is None:
            problems.append(f"line {lineno}: malformed label block")
            continue
        try:
            value = float(match.group("value"))
        except ValueError:
            problems.append(
                f"line {lineno}: non-numeric value {match.group('value')!r}"
            )
            continue
        base = re.sub(r"_(bucket|sum|count)$", "", name)
        if base not in typed and name not in typed:
            problems.append(
                f"line {lineno}: sample {name!r} before its TYPE line"
            )
        series = (name, labels)
        if series in seen_series:
            problems.append(f"line {lineno}: duplicate series {series!r}")
        seen_series.add(series)
        samples.append((name, labels, value, lineno))

    # Histogram structural invariants.
    for name, kind in typed.items():
        if kind != "histogram":
            continue
        groups: dict[tuple, dict] = {}
        for sample_name, labels, value, lineno in samples:
            if sample_name == f"{name}_bucket":
                bare = tuple(p for p in labels if p[0] != "le")
                le = dict(labels).get("le")
                group = groups.setdefault(
                    bare, {"buckets": [], "sum": None, "count": None}
                )
                group["buckets"].append((le, value, lineno))
            elif sample_name == f"{name}_sum":
                groups.setdefault(
                    labels, {"buckets": [], "sum": None, "count": None}
                )["sum"] = value
            elif sample_name == f"{name}_count":
                groups.setdefault(
                    labels, {"buckets": [], "sum": None, "count": None}
                )["count"] = value
        if not groups:
            problems.append(f"histogram {name}: no series emitted")
        for bare, group in groups.items():
            buckets = group["buckets"]
            if not buckets:
                problems.append(
                    f"histogram {name}{dict(bare)}: no _bucket series"
                )
                continue
            previous = -math.inf
            for le, value, lineno in buckets:
                if value < previous:
                    problems.append(
                        f"line {lineno}: histogram {name} bucket "
                        f"le={le} not cumulative"
                    )
                previous = value
            inf_buckets = [v for le, v, _ in buckets if le == "+Inf"]
            if not inf_buckets:
                problems.append(f"histogram {name}{dict(bare)}: no +Inf bucket")
            if group["count"] is None:
                problems.append(f"histogram {name}{dict(bare)}: missing _count")
            if group["sum"] is None:
                problems.append(f"histogram {name}{dict(bare)}: missing _sum")
            if (
                inf_buckets
                and group["count"] is not None
                and inf_buckets[-1] != group["count"]
            ):
                problems.append(
                    f"histogram {name}{dict(bare)}: +Inf bucket "
                    f"{inf_buckets[-1]} != _count {group['count']}"
                )
    return problems


class PrometheusEndpoint:
    """A minimal asyncio HTTP responder serving ``GET /metrics``.

    Takes a provider callable (sync or async) that returns the current
    exposition text; everything else — connection handling, the two
    routes, closing — is self-contained, so the serving tier only has to
    say *what* to expose, never *how*.
    """

    def __init__(
        self,
        provider: Callable[[], str | Awaitable[str]],
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._provider = provider
        self._host = host
        self._port = port
        self._server: asyncio.AbstractServer | None = None

    @property
    def port(self) -> int:
        """The bound port (useful when constructed with port=0)."""
        if self._server is None:
            return self._port
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        """Bind and start answering scrapes."""
        self._server = await asyncio.start_server(
            self._handle, self._host, self._port
        )

    async def aclose(self) -> None:
        """Stop listening."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request_line = await reader.readline()
            while True:  # drain headers; we serve every client the same way
                header = await reader.readline()
                if header in (b"\r\n", b"\n", b""):
                    break
            parts = request_line.decode("latin-1", "replace").split()
            path = parts[1] if len(parts) >= 2 else ""
            if path.split("?", 1)[0] == "/metrics":
                body = self._provider()
                if inspect.isawaitable(body):
                    body = await body
                payload = body.encode("utf-8")
                status = "200 OK"
            else:
                payload = b"scrape /metrics\n"
                status = "404 Not Found"
            writer.write(
                (
                    f"HTTP/1.0 {status}\r\n"
                    f"Content-Type: {CONTENT_TYPE}\r\n"
                    f"Content-Length: {len(payload)}\r\n"
                    "Connection: close\r\n\r\n"
                ).encode("ascii")
                + payload
            )
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
