"""Stable JSON export of flight records and trace timelines.

The flight recorder (:mod:`repro.obs.flight`) stores live Python objects
— records referencing ``TimesKey`` NamedTuples and finished
:class:`~repro.obs.trace.Span` trees.  This module is the one place
those objects are flattened into a **stable, versioned JSON schema** so
the wire debug endpoints (``GET /v1/debug/flight`` / ``/v1/debug/slow``
/ ``/v1/debug/trace/<id>``) and offline tooling speak the same
vocabulary:

* :func:`record_to_dict` — one record as a plain dict.  Every float is
  carried verbatim (Python's ``json`` emits the shortest round-trip
  ``repr``, which decodes to the identical IEEE-754 double — the same
  bitwise discipline as :mod:`repro.service.wire.protocol`), tuples
  become lists, and the span tree is included only where the payload
  asks for it (the timeline endpoint), never in the bulk listings.
* :func:`flight_payload` / :func:`slow_payload` / :func:`trace_payload`
  — the response envelopes the debug endpoints serve, each carrying
  ``{"v": EXPORT_VERSION, ...}`` and a **bounded** record list (``limit`` is clamped
  to :data:`MAX_EXPORT_RECORDS` server-side, so a scrape can never ask
  the server to serialize an unbounded ring).

``tests/test_flight.py`` pins the dict → JSON → dict round trip bitwise
over awkward floats and the envelope shapes against drift.
"""

from __future__ import annotations

from .flight import FlightRecorder, QueryRecord

__all__ = [
    "EXPORT_VERSION",
    "MAX_EXPORT_RECORDS",
    "TELEMETRY_VERSION",
    "flight_payload",
    "knobs_to_dict",
    "record_to_dict",
    "slow_payload",
    "telemetry_payload",
    "trace_payload",
]

#: Version tag carried by every export envelope; bump on schema change.
#: v2: record ``wall_time`` renamed to ``unix_ts`` (wall-clock
#: completion time for external-log correlation).
#: v3: record ``backend`` field removed (the engine has one kernel path).
#: v4: record ``knobs`` lost its ``target`` key (τ has one target).
#: v5: record ``priority`` field removed (queries carry no priority).
EXPORT_VERSION = 5

#: Hard server-side bound on records per export payload (a request may
#: ask for fewer, never more).
MAX_EXPORT_RECORDS = 256

#: Default records per listing payload when the request names no limit.
DEFAULT_EXPORT_RECORDS = 64

#: Version tag of the ``/v1/debug/stream`` telemetry delta frames
#: (independent of :data:`EXPORT_VERSION` — the stream can evolve
#: without invalidating stored flight exports).
#: v2: window ``keys`` rows dropped their ``backend`` column.
TELEMETRY_VERSION = 2


def knobs_to_dict(knobs) -> dict | None:
    """The canonical knob identity (an engine ``TimesKey`` NamedTuple)
    as a JSON-ready dict — field names preserved, the size grid as a
    list of ints.  Duck-typed on ``_asdict`` so this module never
    imports the engine; ``None`` passes through (a query that failed
    before canonicalization has no knobs)."""
    if knobs is None:
        return None
    out = dict(knobs._asdict()) if hasattr(knobs, "_asdict") else dict(knobs)
    for key, value in out.items():
        if isinstance(value, tuple):
            out[key] = [int(v) for v in value]
    return out


def record_to_dict(rec: QueryRecord, *, spans: bool = False) -> dict:
    """One :class:`~repro.obs.flight.QueryRecord` in the stable export
    schema.  ``spans=True`` additionally embeds the full span-tree dict
    (:meth:`~repro.obs.trace.Span.to_dict`) under ``"spans"`` — the
    timeline endpoint asks for it, the bulk listings do not."""
    out = {
        "trace_id": rec.trace_id,
        "graph": rec.graph,
        "source": int(rec.source),
        "outcome": rec.outcome,
        "duration": float(rec.duration),
        "knobs": knobs_to_dict(rec.knobs),
        "cache": rec.cache,
        "batch": dict(rec.batch) if rec.batch else None,
        "kernels": dict(rec.kernels),
        "stages": dict(rec.stages),
        "deadline": rec.deadline,
        "unix_ts": float(rec.unix_ts),
    }
    if spans:
        out["spans"] = rec.span.to_dict() if rec.span is not None else None
    return out


def _clamp_limit(limit: int | None) -> int:
    if limit is None:
        return DEFAULT_EXPORT_RECORDS
    return max(0, min(int(limit), MAX_EXPORT_RECORDS))


def flight_payload(
    recorder: FlightRecorder,
    *,
    limit: int | None = None,
    graph: str | None = None,
    outcome: str | None = None,
) -> dict:
    """The ``GET /v1/debug/flight`` envelope: the most recent retained
    records (newest first, filtered, bounded) plus the recorder's own
    counters, so the reader can tell "64 records" from "64 of 40000"."""
    records = recorder.records(
        _clamp_limit(limit), graph=graph, outcome=outcome
    )
    return {
        "v": EXPORT_VERSION,
        "kind": "flight",
        "records": [record_to_dict(rec) for rec in records],
        "stats": recorder.stats(),
    }


def slow_payload(
    recorder: FlightRecorder,
    *,
    limit: int | None = None,
    graph: str | None = None,
) -> dict:
    """The ``GET /v1/debug/slow`` envelope: the slowest-N retained slow
    records (descending duration, filtered per graph, bounded) plus
    recorder counters."""
    records = recorder.slow_records(_clamp_limit(limit), graph=graph)
    return {
        "v": EXPORT_VERSION,
        "kind": "slow",
        "records": [record_to_dict(rec) for rec in records],
        "stats": recorder.stats(),
    }


def telemetry_payload(
    telemetry: dict,
    *,
    seq: int,
    unix_ts: float,
    alerts: list | None = None,
    gauges: dict | None = None,
    draining: bool = False,
) -> dict:
    """One ``/v1/debug/stream`` delta frame: the envelope the stream
    pusher sends per tick and :func:`WireClient.stream_telemetry
    <repro.service.wire.client.stream_telemetry>` yields back decoded.

    ``telemetry`` is :meth:`MixingService.telemetry
    <repro.service.MixingService.telemetry>`'s dict (window snapshot +
    SLO verdict + sampler values); ``seq`` numbers the frames of one
    subscription (strictly increasing from 1 — a gap means the server
    restarted the stream); ``alerts`` carries only the SLO transitions
    this subscriber has not seen (the engine's cursor mechanism);
    ``gauges`` adds the wire tier's own instantaneous numbers (queue
    depth, live connections); ``draining`` flags a server in graceful
    drain — the stream stays readable so an operator can watch the
    drain complete.  Floats ride JSON's shortest round-trip ``repr``,
    bitwise like every other wire payload."""
    return {
        "v": TELEMETRY_VERSION,
        "kind": "telemetry",
        "seq": int(seq),
        "unix_ts": float(unix_ts),
        "window": telemetry.get("window"),
        "slo": telemetry.get("slo"),
        "sampler": telemetry.get("sampler"),
        "alerts": list(alerts or ()),
        "gauges": dict(gauges or {}),
        "draining": bool(draining),
    }


def trace_payload(recorder: FlightRecorder, trace_id: str) -> dict | None:
    """The ``GET /v1/debug/trace/<id>`` envelope: the one record for
    ``trace_id`` **with** its span-tree timeline embedded, or ``None``
    when the id is unknown (the endpoint answers 404)."""
    rec = recorder.get(trace_id)
    if rec is None:
        return None
    return {
        "v": EXPORT_VERSION,
        "kind": "trace",
        "record": record_to_dict(rec, spans=True),
    }
