"""The network front door for :class:`~repro.service.MixingService`.

This package puts the serving stack on a socket without adding a single
dependency: HTTP/1.1 and RFC 6455 WebSocket framing are implemented on
raw asyncio streams (:mod:`repro.service.wire.http`), a versioned JSON
protocol carries the full :class:`~repro.service.MixingQuery` knob space
(:mod:`repro.service.wire.protocol`), and
:class:`~repro.service.wire.server.WireServer` fronts the service with
bounded admission, per-query deadlines threaded
into the coalescer's flush timer, a verbatim Prometheus ``GET /metrics``
endpoint, an SLO-aware ``/healthz`` (``?live=1`` bare-liveness fast
path), flight-recorder debug endpoints (``/v1/debug/flight`` /
``/v1/debug/slow`` / ``/v1/debug/trace/<id>``), a live-telemetry push
stream (``/v1/debug/stream`` WebSocket — rolling-window snapshots, SLO
alerts, runtime gauges; see :mod:`repro.obs.live` /
:mod:`repro.obs.slo` and ``tools/obs_top.py``), and graceful drain.
:mod:`repro.service.wire.client` is the matching client (one-shot HTTP,
a multiplexing WebSocket session, debug-endpoint helpers, and the
:func:`~repro.service.wire.client.stream_telemetry` async iterator).

The contract is the library-wide one: **the wire changes transport,
never answers** — a result decoded off the socket is bitwise identical,
floats included, to the in-process ``await service.submit(query)``
return, and every admitted query is answered or cleanly errored even
through drain (``tests/test_wire_protocol.py``,
``tests/test_wire_faults.py``, ``tests/test_wire_serving.py``).
"""

from repro.service.wire.client import (
    WireClient,
    debug_flight,
    debug_slow,
    debug_trace,
    http_get,
    http_query,
    stream_telemetry,
)
from repro.service.wire.protocol import (
    ERROR_STATUS,
    PROTOCOL_VERSION,
    WireError,
)
from repro.service.wire.server import WireServer

__all__ = [
    "ERROR_STATUS",
    "PROTOCOL_VERSION",
    "WireClient",
    "WireError",
    "WireServer",
    "debug_flight",
    "debug_slow",
    "debug_trace",
    "http_get",
    "http_query",
    "stream_telemetry",
]
