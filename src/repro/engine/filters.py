"""The point-filter protocol and registry for sorted runs.

Every run embeds a serialized filter so point lookups can skip runs
that provably do not hold the key. The one registered kind is
``bloom`` — the paper's configuration and the standard LSM point
filter: a double-hashing :class:`~repro.engine.bloom.BloomFilter`.
The run writer and reader know only the :class:`PointFilter` protocol.

Each filter kind serializes behind a distinct 4-byte magic, and
:func:`load_filter` dispatches on it — so a reader never needs to be
told which filter a run carries, version-1 files (always Bloom) load
through the same path, and a blob with an unregistered magic is
corruption.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Protocol, runtime_checkable

from ..errors import ConfigurationError, CorruptionError
from .bloom import BloomFilter


@runtime_checkable
class PointFilter(Protocol):
    """What the run writer and reader require of a point filter."""

    def add(self, key: bytes) -> None:
        """Insert a key."""

    def add_many(self, keys: list[bytes]) -> None:
        """Insert keys in order; same result as :meth:`add` on each."""

    def might_contain(self, key: bytes) -> bool:
        """False means definitely absent; True means probably present."""

    def to_bytes(self) -> bytes:
        """Serialize; must start with the kind's registered magic."""


# -- registry ----------------------------------------------------------


@dataclass(frozen=True)
class FilterSpec:
    """One registered filter kind: how to build it and how to load it."""

    kind: str
    magic: bytes
    build: Callable[[int, int], PointFilter] = field(repr=False)
    load: Callable[[bytes], PointFilter] = field(repr=False)


_REGISTRY: dict[str, FilterSpec] = {}


def register_filter(spec: FilterSpec) -> FilterSpec:
    """Add a filter kind; kind name and serialization magic must be new."""
    if len(spec.magic) != 4:
        raise ConfigurationError("filter magic must be exactly 4 bytes")
    if spec.kind in _REGISTRY:
        raise ConfigurationError(
            f"filter kind {spec.kind!r} already registered"
        )
    if any(spec.magic == other.magic for other in _REGISTRY.values()):
        raise ConfigurationError(
            f"filter magic {spec.magic!r} already registered"
        )
    _REGISTRY[spec.kind] = spec
    return spec


def available_filters() -> tuple[str, ...]:
    """Registered filter kind names, registration order."""
    return tuple(_REGISTRY)


def build_filter(
    kind: str, expected_keys: int, bits_per_key: int
) -> PointFilter:
    """Construct an empty filter of the configured kind."""
    try:
        spec = _REGISTRY[kind]
    except KeyError:
        raise ConfigurationError(
            f"unknown filter kind {kind!r}; "
            f"available: {', '.join(_REGISTRY)}"
        ) from None
    return spec.build(expected_keys, bits_per_key)


def filter_kind_of(filt: PointFilter) -> str:
    """The registered kind name of a live filter instance."""
    magic = filt.to_bytes()[:4]
    for spec in _REGISTRY.values():
        if spec.magic == magic:
            return spec.kind
    raise ConfigurationError("filter instance is not a registered kind")


def load_filter(data: bytes) -> PointFilter:
    """Deserialize a filter blob, dispatching on its magic prefix.

    Version-1 run files always carry Bloom blobs, so they resolve here
    with no format bit — the magic *is* the format bit.
    """
    if len(data) < 4:
        raise CorruptionError("filter blob truncated")
    magic = bytes(data[:4])
    for spec in _REGISTRY.values():
        if spec.magic == magic:
            return spec.load(data)
    raise CorruptionError(f"unknown filter magic {magic!r}")


register_filter(
    FilterSpec(
        kind="bloom",
        magic=b"BLM1",
        build=BloomFilter,
        load=BloomFilter.from_bytes,
    )
)
