"""A stall-aware network KV service over :mod:`repro.engine`.

The serving tier the paper's write-interaction taxonomy matters for in
production: an asyncio TCP front-end (:class:`KVServer`) speaking
length-prefixed binary frames, a pooled retrying client
(:class:`KVClient`), an admission controller mapping engine
backpressure onto the paper's stop / limit / gradual interaction modes,
and a closed/open-loop load generator implementing the two-phase
methodology over the wire.

The error types a caller of this package must be able to catch —
:class:`~repro.errors.RequestFailedError` for non-transient server
errors, :class:`~repro.errors.RetriesExhaustedError` when the retry
budget runs out, and their bases — are re-exported here so client code
does not have to know they live in :mod:`repro.errors`.
"""

from ..errors import (
    ProtocolError,
    RequestFailedError,
    RetriesExhaustedError,
    ServerError,
)
from .admission import (
    ADMIT,
    DELAY,
    MODES,
    REJECT,
    AdmissionController,
    AdmissionDecision,
    GradualAdmission,
    LimitAdmission,
    StopAdmission,
    build_admission,
)
from .client import ClientMetrics, KVClient
from .loadgen import (
    DISTRIBUTIONS,
    LoadResult,
    TwoPhaseNetworkResult,
    classify_error,
    closed_loop,
    open_loop,
    two_phase,
)
from .service import (
    DEFAULT_WRITE_DEADLINE,
    FramedServer,
    KVServer,
    ServerMetrics,
    serve,
)

__all__ = [
    "ADMIT",
    "DELAY",
    "DEFAULT_WRITE_DEADLINE",
    "DISTRIBUTIONS",
    "MODES",
    "REJECT",
    "AdmissionController",
    "AdmissionDecision",
    "ClientMetrics",
    "FramedServer",
    "GradualAdmission",
    "KVClient",
    "KVServer",
    "LimitAdmission",
    "LoadResult",
    "ProtocolError",
    "RequestFailedError",
    "RetriesExhaustedError",
    "ServerError",
    "ServerMetrics",
    "StopAdmission",
    "TwoPhaseNetworkResult",
    "build_admission",
    "classify_error",
    "closed_loop",
    "open_loop",
    "serve",
    "two_phase",
]
