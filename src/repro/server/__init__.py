"""A stall-aware network KV service over :mod:`repro.engine`.

The serving tier the paper's write-interaction taxonomy matters for in
production: an asyncio TCP front-end (:class:`KVServer`) speaking
length-prefixed binary frames, a pooled retrying client
(:class:`KVClient`), an admission controller mapping engine
backpressure onto the paper's stop / limit / gradual interaction modes.
The closed/open-loop load generator implementing the two-phase
methodology over the wire is :mod:`repro.server.loadgen`, not imported
here: it needs numpy, the serving process does not.

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
    "ProtocolError",
    "RequestFailedError",
    "RetriesExhaustedError",
    "ServerError",
    "ServerMetrics",
    "StopAdmission",
    "build_admission",
    "serve",
]
