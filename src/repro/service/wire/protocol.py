"""The versioned JSON wire protocol for local-mixing queries.

One request/response vocabulary shared by every transport (HTTP POST and
WebSocket frames carry the *same* JSON objects) and by both ends of the
wire (:class:`~repro.service.wire.WireServer` decodes with exactly the
functions :class:`~repro.service.wire.WireClient` encodes with):

* a **request** is ``{"v": 5, "op": "query", "id": ..., "query": {...}}``
  where the ``query`` object carries the full
  :class:`~repro.service.MixingQuery` knob space — graph *by registered
  name* (objects cannot cross the wire; the server resolves names through
  its service's :class:`~repro.service.GraphRegistry`), source, and every
  engine knob plus the serving-only ``deadline``;
* a **response** is ``{"v": 5, "id": ..., "ok": true, "result": {...}}``
  or ``{"v": 5, "id": ..., "ok": false, "error": {"code": ...,
  "message": ...}}`` with one stable error code (and HTTP status) per
  failure type.

**Exactness over the wire**: every numeric field round-trips bitwise.
Integers are JSON integers; floats are serialized with Python's
shortest-round-trip ``repr`` (what :mod:`json` emits), which decodes to
the identical IEEE-754 double — so a decoded
:class:`~repro.walks.local_mixing.LocalMixingResult` compares equal,
bitwise deviation included, to the object the server computed.  The
protocol round-trip property tests (``tests/test_wire_protocol.py``)
pin this over the whole knob space, and golden request/response fixtures
pin the format itself against silent drift.

Versioning: requests carry ``"v": 5`` (:data:`PROTOCOL_VERSION`); the
server rejects other versions with ``bad_request`` instead of guessing.
Version 2 dropped the v1 ``backend`` and ``prefilter`` query fields, which
every v1 encoder sends, so a v1 client gets that typed version error.
Version 3 dropped the ``method`` query field the same way (τ has one
method, the iterative block trajectory).
Version 4 dropped the ``target`` query field (τ has one target, the
uniform ``1/R`` of Definition 2).
Version 5 dropped the ``priority`` query field (it never changed an
answer; admission is a plain bound and drain runs in arrival order).
Unknown fields are rejected too — a typo'd knob must fail loudly, not
silently fall back to a default.  The decoder checks only JSON shape;
field types are the query model's own check (the engine's knob table),
so a mistyped field is ``bad_request`` with the message an in-process
caller gets.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields as dataclass_fields

from repro.errors import ConvergenceError, ReproError
from repro.service.errors import (
    DeadlineExceededError,
    OverloadedError,
    ServiceClosedError,
    error_code,
)
from repro.service.query import MixingQuery
from repro.walks.local_mixing import LocalMixingResult

__all__ = [
    "ERROR_STATUS",
    "PROTOCOL_VERSION",
    "WireError",
    "dumps",
    "loads",
    "decode_query",
    "decode_request",
    "decode_response",
    "encode_error_response",
    "encode_query",
    "encode_request",
    "encode_response",
    "encode_result",
    "decode_result",
    "error_code_for",
    "exception_for_code",
]

#: The one protocol version this build speaks.
PROTOCOL_VERSION = 5

#: Stable error codes → HTTP status.  The taxonomy mirrors
#: :mod:`repro.service.errors` plus the request-shaped failures only the
#: wire can produce.
ERROR_STATUS = {
    "bad_request": 400,
    "not_found": 404,
    "overloaded": 429,
    "unconverged": 422,
    "deadline_exceeded": 504,
    "shutting_down": 503,
    "internal": 500,
}


class WireError(ReproError):
    """A typed protocol-level failure: carries the stable wire ``code``
    (a key of :data:`ERROR_STATUS`) and the human-readable message the
    response body will carry."""

    def __init__(self, code: str, message: str):
        if code not in ERROR_STATUS:
            raise ValueError(f"unknown wire error code {code!r}")
        super().__init__(message)
        #: Stable protocol error code (key of :data:`ERROR_STATUS`).
        self.code = code

    @property
    def http_status(self) -> int:
        """The HTTP status this error is answered with."""
        return ERROR_STATUS[self.code]


#: Knob fields of MixingQuery, in declaration order (graph and source are
#: handled separately: graph must be a registered *name* on the wire).
_QUERY_FIELDS = tuple(
    f.name for f in dataclass_fields(MixingQuery) if f.name != "graph"
)


def encode_query(query: MixingQuery) -> dict:
    """The wire form of one query: every knob spelled explicitly (the
    protocol has no implicit defaults — what was sent is what is meant),
    graph by registered name.  Raises :class:`WireError` (bad_request)
    when the query's graph is an object instead of a name."""
    if not isinstance(query.graph, str):
        raise WireError(
            "bad_request",
            "wire queries must reference graphs by registered name, got "
            f"{type(query.graph).__name__}",
        )
    out: dict = {"graph": query.graph}
    for name in _QUERY_FIELDS:
        value = getattr(query, name)
        if name == "sizes" and not isinstance(value, (str, type(None))):
            value = [int(s) for s in value]
        out[name] = value
    return out


def decode_query(obj: dict) -> MixingQuery:
    """Rebuild a :class:`~repro.service.MixingQuery` from its wire form.

    Strict: ``graph`` (a name) and ``source`` are required, every other
    field falls back to the query model's default, and *unknown* fields
    raise ``bad_request`` — a misspelled knob must never be silently
    ignored.  Field types are the query model's own check (the engine's
    knob table): a bool where an integer belongs, a fraction for an
    integer or a string for a flag raises there and is ``bad_request``
    here; value ranges are checked server-side on submission.
    """
    if not isinstance(obj, dict):
        raise WireError("bad_request", "query must be a JSON object")
    unknown = set(obj) - set(_QUERY_FIELDS) - {"graph"}
    if unknown:
        raise WireError(
            "bad_request", f"unknown query fields: {sorted(unknown)}"
        )
    graph = obj.get("graph")
    if not isinstance(graph, str) or not graph:
        raise WireError(
            "bad_request", "query.graph must be a non-empty graph name"
        )
    if "source" not in obj:
        raise WireError("bad_request", "query.source is required")
    try:
        return MixingQuery(**obj)
    except (TypeError, ValueError) as exc:
        raise WireError("bad_request", str(exc)) from exc


def encode_request(query: MixingQuery, *, id: object = None) -> dict:
    """One request envelope: protocol version, operation, optional client
    correlation ``id`` (echoed verbatim in the response — how WebSocket
    clients match out-of-order answers), and the encoded query."""
    out = {"v": PROTOCOL_VERSION, "op": "query", "query": encode_query(query)}
    if id is not None:
        out["id"] = id
    return out


def decode_request(obj: dict) -> tuple[object, MixingQuery]:
    """Validate a request envelope and return ``(id, query)``.  Raises
    :class:`WireError` (bad_request) on a wrong version, an unknown op,
    or a malformed query object."""
    if not isinstance(obj, dict):
        raise WireError("bad_request", "request must be a JSON object")
    if obj.get("v") != PROTOCOL_VERSION:
        raise WireError(
            "bad_request",
            f"unsupported protocol version {obj.get('v')!r} "
            f"(this server speaks v{PROTOCOL_VERSION})",
        )
    if obj.get("op") != "query":
        raise WireError("bad_request", f"unknown op {obj.get('op')!r}")
    unknown = set(obj) - {"v", "op", "id", "query"}
    if unknown:
        raise WireError(
            "bad_request", f"unknown request fields: {sorted(unknown)}"
        )
    return obj.get("id"), decode_query(obj.get("query"))


#: Wire field order of a result (also the golden-fixture order).
_RESULT_FIELDS = (
    "time",
    "set_size",
    "deviation",
    "threshold",
    "steps_checked",
    "sizes_checked",
)


def encode_result(result: LocalMixingResult) -> dict:
    """The wire form of one result: the dataclass fields verbatim
    (floats round-trip bitwise through JSON's shortest ``repr``)."""
    return {name: getattr(result, name) for name in _RESULT_FIELDS}


def decode_result(obj: dict) -> LocalMixingResult:
    """Rebuild the exact :class:`LocalMixingResult` a response carried."""
    if not isinstance(obj, dict) or set(obj) != set(_RESULT_FIELDS):
        raise WireError("bad_request", "malformed result object")
    return LocalMixingResult(
        time=int(obj["time"]),
        set_size=int(obj["set_size"]),
        deviation=float(obj["deviation"]),
        threshold=float(obj["threshold"]),
        steps_checked=int(obj["steps_checked"]),
        sizes_checked=int(obj["sizes_checked"]),
    )


def encode_response(id: object, result: LocalMixingResult) -> dict:
    """A success envelope for ``result`` (the ``id`` echoes the request)."""
    out = {"v": PROTOCOL_VERSION, "ok": True, "result": encode_result(result)}
    if id is not None:
        out["id"] = id
    return out


def encode_error_response(id: object, code: str, message: str) -> dict:
    """A failure envelope carrying one stable error ``code`` and its
    message (the ``id`` echoes the request when it had one)."""
    if code not in ERROR_STATUS:
        raise ValueError(f"unknown wire error code {code!r}")
    out = {
        "v": PROTOCOL_VERSION,
        "ok": False,
        "error": {"code": code, "message": message},
    }
    if id is not None:
        out["id"] = id
    return out


def decode_response(obj: dict) -> tuple[object, LocalMixingResult]:
    """Client-side response handling: return ``(id, result)`` for a
    success envelope, raise the matching typed exception (see
    :func:`exception_for_code`) for a failure envelope."""
    if not isinstance(obj, dict) or obj.get("v") != PROTOCOL_VERSION:
        raise WireError("bad_request", f"malformed response: {obj!r}")
    if obj.get("ok"):
        return obj.get("id"), decode_result(obj.get("result"))
    err = obj.get("error") or {}
    raise exception_for_code(
        err.get("code", "internal"), err.get("message", "unknown error")
    )


def error_code_for(exc: BaseException) -> tuple[str, str]:
    """Map a server-side exception to its ``(code, message)`` wire form.

    The taxonomy is :func:`repro.service.errors.error_code`'s, coarse and
    stable: a :class:`WireError` passes its own code through, and
    anything outside the taxonomy is ``internal`` (message included —
    these are trusted-operator deployments, not multi-tenant ones)."""
    if isinstance(exc, WireError):
        return exc.code, str(exc)
    code = error_code(exc)
    if code is None:
        return "internal", f"{type(exc).__name__}: {exc}"
    if code == "not_found":  # a KeyError: its str() adds quotes
        return code, str(exc.args[0]) if exc.args else "not found"
    return code, str(exc)


def exception_for_code(code: str, message: str) -> Exception:
    """The client-side inverse of :func:`error_code_for`: rebuild the
    typed exception a wire error code stands for, so remote failures
    raise the same types in-process callers catch."""
    if code == "deadline_exceeded":
        return DeadlineExceededError(message)
    if code == "overloaded":
        return OverloadedError(message)
    if code == "shutting_down":
        return ServiceClosedError(message)
    if code == "unconverged":
        return ConvergenceError(message)
    if code == "not_found":
        return KeyError(message)
    if code == "bad_request":
        return ValueError(message)
    if code in ERROR_STATUS:  # internal
        return WireError(code, message)
    return WireError("internal", f"unknown error code {code!r}: {message}")


def dumps(obj: dict) -> bytes:
    """Serialize one protocol object to compact UTF-8 JSON bytes."""
    return json.dumps(obj, separators=(",", ":")).encode("utf-8")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"number {text} is not a finite double")
    return value


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def loads(data: bytes | str) -> dict:
    """Parse protocol JSON, mapping syntax errors to ``bad_request``.
    ``NaN``/``Infinity`` and numbers that overflow a double (``1e400``)
    are syntax errors too: no protocol field can carry them."""
    try:
        obj = json.loads(
            data,
            parse_float=_finite_float,
            parse_constant=_reject_constant,
        )
    except (ValueError, UnicodeDecodeError) as exc:
        raise WireError("bad_request", f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise WireError("bad_request", "protocol messages are JSON objects")
    return obj
