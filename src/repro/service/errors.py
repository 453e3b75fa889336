"""Typed serving errors — the vocabulary of a query that was *not* answered.

The serving stack's contract is that every admitted query is resolved:
with its exact result when possible, and otherwise with one of these
typed errors — never a silent drop, never an untyped failure a client
cannot dispatch on.  The wire layer (:mod:`repro.service.wire`) maps each
type onto a stable protocol error code and HTTP status, so in-process
callers (``await service.submit(...)``) and remote clients see the same
taxonomy.

All types derive from :class:`ServingError` (itself a
:class:`~repro.errors.ReproError`), so ``except ReproError`` still
catches everything the library raises.
"""

from __future__ import annotations

from repro.errors import ConvergenceError, GraphError, ReproError

__all__ = [
    "ServingError",
    "DeadlineExceededError",
    "OverloadedError",
    "ServiceClosedError",
    "error_code",
]


class ServingError(ReproError):
    """Base class for serving-layer failures (admission, deadlines,
    lifecycle) — distinct from engine errors, which describe the
    computation itself and pass through the service untouched."""


class DeadlineExceededError(ServingError):
    """The query's deadline passed before its answer was ready.

    Raised by :meth:`~repro.service.MixingService.submit` when a query
    carried a ``deadline`` and the solve (or the coalescing wait) did not
    finish in time.  The underlying batch keeps running for the benefit
    of its other waiters and of the result cache — only *this* waiter is
    released with the timeout.
    """

    def __init__(self, message: str, deadline: float | None = None):
        super().__init__(message)
        #: The query's relative deadline in seconds, when known.
        self.deadline = deadline


class OverloadedError(ServingError):
    """Admission refused: the server's pending-query bound is full.

    This is *backpressure*, not failure — the request was never admitted
    (it consumed no engine work) and the client should back off and
    retry.  The wire layer answers it with HTTP 429.
    """


class ServiceClosedError(ServingError, RuntimeError):
    """The service (or wire server) is draining or closed and admits no
    new queries; in-flight work is still answered.  HTTP 503 on the
    wire.

    Also a :class:`RuntimeError`: submitting to a closed service has
    always raised ``RuntimeError``, and callers written against that
    contract keep working.
    """


#: The one serving error taxonomy, first match wins: serving errors map to
#: their own codes, compute non-convergence to ``unconverged``,
#: unknown-graph lookups to ``not_found`` and validation errors to
#: ``bad_request``.
_ERROR_CODES = (
    (DeadlineExceededError, "deadline_exceeded"),
    (OverloadedError, "overloaded"),
    (ServiceClosedError, "shutting_down"),
    (ConvergenceError, "unconverged"),
    (KeyError, "not_found"),
    ((ValueError, TypeError, GraphError), "bad_request"),
)


def error_code(exc: BaseException) -> str | None:
    """The stable code of a failed query's exception — the outcome its
    flight record keeps and the code the wire answers with — or ``None``
    for an exception outside the taxonomy (each caller names those its
    own way)."""
    for types, code in _ERROR_CODES:
        if isinstance(exc, types):
            return code
    return None
