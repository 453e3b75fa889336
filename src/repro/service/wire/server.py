"""The network front door: an asyncio HTTP + WebSocket wire server over
:class:`~repro.service.MixingService`.

Routes
------

* ``POST /v1/query`` — one protocol request
  (:mod:`repro.service.wire.protocol`) per HTTP request; the response
  status mirrors the typed error taxonomy (200 / 400 / 404 / 422 / 429 /
  503 / 504).
* ``GET /v1/ws`` — WebSocket upgrade; each text frame is one protocol
  request, answered by a text frame carrying the same ``id`` (answers may
  arrive out of request order — queries on one connection run
  concurrently, which is what lets a single socket drive a coalesced
  batch).
* ``GET /metrics`` — ``service.metrics.render()`` served **verbatim**
  (Prometheus text).  The wire layer's own counters are registered on a
  registry the service's composes in, so one scrape covers wire +
  cache + coalescer + registry + executor + kernel families.
* ``GET /healthz`` — health JSON: ``status`` is ``ok`` / ``degraded``
  (SLO breach — degraded is not dead) / ``draining``, plus the drain
  flag, queue depth, the current SLO verdict and a rolling-window
  summary.  ``?live=1`` short-circuits to the bare liveness probe
  (``{"status": "ok"}``) with none of the evaluation cost.
* ``GET /v1/debug/stream`` — observe-only WebSocket push: versioned
  JSON telemetry delta frames (rolling-window snapshot, SLO verdict +
  new transition alerts, queue-depth/connection gauges, resource-sampler
  values) every ``?interval=`` seconds (default 1 s).  Like the other
  debug paths it is excluded from the connection gauge and stays
  readable during drain — an operator can watch the drain complete;
  the stream closes with a proper close frame when the server does.
  :func:`~repro.service.wire.client.stream_telemetry` (and
  ``WireClient.stream_telemetry``) is the client half;
  ``tools/obs_top.py`` a terminal dashboard on top.
* ``GET /v1/debug/flight`` / ``/v1/debug/slow`` /
  ``/v1/debug/trace/<id>`` — the service's flight recorder
  (:mod:`repro.obs.flight`) in the stable export schema
  (:mod:`repro.obs.export`): recent / slowest-N query records
  (``?limit=&graph=&outcome=`` filters — an unknown query parameter is
  a 400 ``bad_request``, never silently ignored — response sizes
  bounded server-side) and one query's full span timeline by trace id.
  Debug and metrics endpoints are *observe-only*: they stay served
  while draining, and they are excluded from the query-path connection
  gauge — a scrape never observes itself.

Admission and backpressure
--------------------------

Admission is a **bounded queue**: at most ``max_pending`` queries may be
in flight past the front door.  A query arriving beyond the bound is
*rejected immediately* with a typed ``overloaded`` error (HTTP 429) —
explicit backpressure instead of unbounded buffering, so a client herd
degrades into fast, visible rejections rather than silent latency
collapse.  Rejected queries consume no engine work.  While draining,
new queries are answered ``shutting_down`` (503) instead.

Deadlines ride the query objects themselves
(:attr:`~repro.service.MixingQuery.deadline`): the service threads them
into the coalescer (deadline-aware flush) and answers late queries with
``deadline_exceeded`` (504) — see :mod:`repro.service.coalescer`.

Counter accounting is exact and closed:
``requests = admitted + rejected`` and
``admitted = answered + expired + errored`` — every query that enters
ends in exactly one bucket (the soak test asserts both equalities under
hundreds of concurrent clients).

Lifecycle
---------

:meth:`WireServer.aclose` (or leaving the ``async with`` block) stops
accepting connections, flips the draining flag (new queries on live
connections are 503'd), waits for every in-flight query, HTTP and
WebSocket alike, to be answered and its response written, closes
WebSocket streams with a proper close frame, and — only then — returns.
The server does *not* own the service: composing
``async with MixingService(...) as svc, WireServer(svc) as server:``
drains the wire first and the coalescer second, so every admitted query
is answered and owned executors shut down leak-free.

**The wire changes transport, never answers**: a response body is the
bitwise-identical result the in-process ``await service.submit(query)``
returns, floats included (see :mod:`repro.service.wire.protocol`).
"""

from __future__ import annotations

import asyncio
import math
import time
from urllib.parse import parse_qs

from repro.obs import MetricsRegistry, trace
from repro.obs import export as flight_export
from repro.service.errors import OverloadedError, ServiceClosedError
from repro.service.wire import http as _http
from repro.service.wire import protocol
from repro.service.wire.http import (
    OP_CLOSE,
    OP_TEXT,
    HttpError,
    Request,
    render_response,
    ws_accept_key,
    ws_encode_frame,
    ws_read_message,
)

__all__ = ["WireServer"]


class WireServer:
    """Serve a :class:`~repro.service.MixingService` over HTTP + WebSocket.

    Parameters
    ----------
    service:
        The service to front.  Not owned: the caller closes it (after
        this server has drained).  The server registers its wire metrics
        on the service's composed registry so ``GET /metrics`` covers
        every tier.
    host, port:
        Bind address; ``port=0`` (the default) picks an ephemeral port,
        exposed as :attr:`port` / :attr:`url` after :meth:`start`.
    max_pending:
        The admission bound: maximum queries in flight past the front
        door before new arrivals are rejected with ``overloaded`` (429).
    """

    def __init__(
        self,
        service,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_pending: int = 256,
    ):
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        self.service = service
        self.host = host
        self._requested_port = int(port)
        self.max_pending = int(max_pending)
        self._server: asyncio.AbstractServer | None = None
        self._draining = False
        self._pending = 0
        self._pending_max = 0  # high-water mark of _pending
        self._conn_tasks: set[asyncio.Task] = set()
        # Every query being answered, HTTP or WebSocket: aclose() waits
        # for these (answer and response write) before it cancels
        # connections.
        self._query_tasks: set[asyncio.Task] = set()

        self.metrics = MetricsRegistry()
        self._requests = self.metrics.counter(
            "repro_wire_requests_total",
            "Wire queries received (admitted or rejected).",
        )
        self._admitted = self.metrics.counter(
            "repro_wire_admitted_total",
            "Wire queries admitted past the front door.",
        )
        self._rejected = self.metrics.counter(
            "repro_wire_rejected_total",
            "Wire queries rejected by admission (backpressure or drain).",
        )
        self._answered = self.metrics.counter(
            "repro_wire_answered_total",
            "Admitted wire queries answered with a result.",
        )
        self._expired = self.metrics.counter(
            "repro_wire_expired_total",
            "Admitted wire queries answered with deadline_exceeded.",
        )
        self._errored = self.metrics.counter(
            "repro_wire_errors_total",
            "Admitted wire queries answered with a typed error "
            "(other than deadline_exceeded).",
        )
        self._queue_depth = self.metrics.gauge(
            "repro_wire_queue_depth",
            "Wire queries currently in flight past admission.",
        )
        self._latency = self.metrics.histogram(
            "repro_wire_request_seconds",
            "Wire request latency, admission to response encode.",
        )
        self._connections = self.metrics.gauge(
            "repro_wire_connections", "Open wire connections."
        )
        self._disconnects = self.metrics.counter(
            "repro_wire_client_disconnects_total",
            "Connections dropped by the peer with queries in flight.",
        )
        self._debug_requests = self.metrics.counter(
            "repro_wire_debug_requests_total",
            "Debug-endpoint requests served.",
            labels=("endpoint",),
        )
        self._stream_subscribers = self.metrics.gauge(
            "repro_wire_stream_subscribers",
            "Open /v1/debug/stream telemetry subscriptions.",
        )
        self._stream_frames = self.metrics.counter(
            "repro_wire_stream_frames_total",
            "Telemetry delta frames pushed to stream subscribers.",
        )
        # One scrape covers everything: /metrics serves the *service's*
        # composed registry verbatim, and these counters ride along.
        service.metrics.include(self.metrics)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> "WireServer":
        """Bind and start accepting connections (idempotent)."""
        if self._server is None:
            self._server = await asyncio.start_server(
                self._handle_conn, self.host, self._requested_port
            )
        return self

    @property
    def port(self) -> int:
        """The bound TCP port (after :meth:`start`)."""
        if self._server is None:
            raise RuntimeError("server not started")
        return self._server.sockets[0].getsockname()[1]

    @property
    def url(self) -> str:
        """Base ``http://host:port`` URL of the running server."""
        return f"http://{self.host}:{self.port}"

    async def aclose(self) -> None:
        """Graceful drain: stop accepting, 503 new queries, answer every
        in-flight one, close WebSocket streams with a close frame, and
        return once every connection task has finished.  Idempotent."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Every admitted query resolves (the service never drops work) —
        # including ones that arrive on live connections *during* the
        # drain (they are answered shutting_down, which is still an
        # answer, so the set can briefly regrow).
        while self._query_tasks:
            await asyncio.gather(
                *list(self._query_tasks), return_exceptions=True
            )
        # Only now — every answer written — unblock connections idling in
        # a read: cancellation reaches the WS session's cleanup, which
        # sends the close frame, and the handler's finally closes the
        # socket.
        for task in list(self._conn_tasks):
            task.cancel()
        while self._conn_tasks:
            await asyncio.gather(
                *list(self._conn_tasks), return_exceptions=True
            )

    async def __aenter__(self) -> "WireServer":
        """Start (if needed) and enter the serving context."""
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        """Drain and close on context exit."""
        await self.aclose()

    def stats(self) -> dict:
        """Wire counters as one dict: requests / admitted / rejected /
        answered / expired / errored, current queue depth, its high-water
        mark since start (``queue_depth_max``, kept at admission, so it
        counts queries admitted and answered between two samples) and open
        connections."""
        return {
            "requests": self._requests.value,
            "admitted": self._admitted.value,
            "rejected": self._rejected.value,
            "answered": self._answered.value,
            "expired": self._expired.value,
            "errored": self._errored.value,
            "queue_depth": self._pending,
            "queue_depth_max": self._pending_max,
            "connections": self._connections.value,
            "stream_subscribers": self._stream_subscribers.value,
            "stream_frames": self._stream_frames.value,
        }

    # ------------------------------------------------------------------ #
    # Query handling (transport-independent)
    # ------------------------------------------------------------------ #

    def _track(self, coro) -> asyncio.Task:
        """Run one query's answer (and its response write) as a task that
        :meth:`aclose` waits for before it cancels any connection."""
        task = asyncio.ensure_future(coro)
        self._query_tasks.add(task)
        task.add_done_callback(self._query_tasks.discard)
        return task

    async def _answer(self, payload: bytes, transport: str) -> tuple[dict, int]:
        """Decode, admit and answer one protocol request; returns
        ``(response_object, http_status)``.  Never raises — every failure
        mode maps to a typed error envelope, and the counters account for
        the query exactly once."""
        self._requests.inc()
        req_id = None
        try:
            obj = protocol.loads(payload)
            req_id = obj.get("id") if isinstance(obj, dict) else None
            if self._draining:
                raise ServiceClosedError("server is draining")
            if self._pending >= self.max_pending:
                raise OverloadedError(
                    f"{self._pending} queries in flight (bound "
                    f"{self.max_pending}); retry with backoff"
                )
        except BaseException as exc:
            self._rejected.inc()
            code, message = protocol.error_code_for(exc)
            return (
                protocol.encode_error_response(req_id, code, message),
                protocol.ERROR_STATUS[code],
            )
        # Past admission: exactly one of answered/expired/errored.
        self._admitted.inc()
        self._pending += 1
        self._pending_max = max(self._pending_max, self._pending)
        self._queue_depth.set(self._pending)
        tid = self.service.flight.next_trace_id()
        t0 = time.perf_counter()
        try:
            with trace("wire_request", transport=transport):
                req_id, query = protocol.decode_request(obj)
                result = await self.service.submit(query, trace_id=tid)
            self._answered.inc()
            return protocol.encode_response(req_id, result), 200
        except BaseException as exc:
            code, message = protocol.error_code_for(exc)
            if code == "deadline_exceeded":
                self._expired.inc()
            else:
                self._errored.inc()
            return (
                protocol.encode_error_response(req_id, code, message),
                protocol.ERROR_STATUS[code],
            )
        finally:
            self._pending -= 1
            self._queue_depth.set(self._pending)
            self._latency.observe(time.perf_counter() - t0, exemplar=tid)

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #

    #: Paths that only *observe* the server (scrapes, health probes,
    #: flight-recorder reads).  Connections that never leave this set are
    #: excluded from the query-path connection gauge, so a ``/metrics``
    #: scrape compares verbatim with a locally rendered registry — the
    #: scrape never observes itself.
    _OBSERVE_PATHS = ("/metrics", "/healthz")
    _OBSERVE_PREFIX = "/v1/debug/"

    @classmethod
    def _is_observe_only(cls, path: str) -> bool:
        return path in cls._OBSERVE_PATHS or path.startswith(
            cls._OBSERVE_PREFIX
        )

    async def _handle_conn(self, reader, writer) -> None:
        """One accepted TCP connection: HTTP keep-alive loop, possibly
        upgraded to a WebSocket session.  The connection gauge counts the
        connection only once it issues a non-observe-only request."""
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        conn_state = {"counted": False}
        try:
            await self._http_loop(reader, writer, conn_state)
        except asyncio.CancelledError:
            # Drain: aclose() cancels idle connections after the last
            # answer is written.  Finish normally — a task left in the
            # cancelled state makes asyncio's streams machinery log a
            # spurious "Exception in callback" on teardown.
            pass
        except (
            HttpError,
            ConnectionError,
            asyncio.IncompleteReadError,
            TimeoutError,
        ):
            pass  # peer misbehaved or went away; drop the connection
        finally:
            if conn_state["counted"]:
                self._connections.inc(-1)
            self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    def _count_conn(self, conn_state: dict) -> None:
        """Admit this connection into the connection gauge (idempotent;
        called on the first query-path request or WS upgrade)."""
        if not conn_state["counted"]:
            conn_state["counted"] = True
            self._connections.inc()

    async def _http_loop(self, reader, writer, conn_state: dict) -> None:
        while True:
            request = await _http.read_request(reader)
            if request is None:
                return
            if self._is_ws_upgrade(request):
                if request.path.split("?", 1)[0] == self._STREAM_PATH:
                    # Observe-only, like the other debug paths: a
                    # telemetry subscriber never joins the connection
                    # gauge and stays served during drain.
                    await self._stream_session(reader, writer, request)
                    return
                self._count_conn(conn_state)
                await self._ws_session(reader, writer, request)
                return
            path = request.path.split("?", 1)[0]
            if not self._is_observe_only(path):
                self._count_conn(conn_state)
            keep_alive = (
                request.header("connection").lower() != "close"
                and not self._draining
            )
            respond = self._respond(request, writer, keep_alive)
            if path == "/v1/query":
                # A query is answered through drain, like a WS frame.
                await self._track(respond)
            else:
                await respond
            if not keep_alive:
                return

    async def _respond(
        self, request: Request, writer, keep_alive: bool
    ) -> None:
        """Route one plain-HTTP request and write its response."""
        try:
            status, body, ctype = await self._route(request)
        except Exception as exc:  # noqa: BLE001 - answered as 500
            status, body, ctype = self._error_route(
                500, "internal", f"{type(exc).__name__}: {exc}"
            )
        writer.write(
            render_response(
                status, body, content_type=ctype, keep_alive=keep_alive
            )
        )
        await writer.drain()

    async def _route(self, request: Request) -> tuple[int, bytes, str]:
        """Dispatch one plain-HTTP request → (status, body, content type)."""
        method, path = request.method, request.path.split("?", 1)[0]
        if path == "/metrics" and method == "GET":
            # The service's composed Prometheus payload, verbatim.
            return (
                200,
                self.service.metrics.render().encode("utf-8"),
                "text/plain; version=0.0.4",
            )
        if path == "/healthz" and method == "GET":
            return 200, self._healthz_body(request), "application/json"
        if path.startswith(self._OBSERVE_PREFIX) and method == "GET":
            return self._route_debug(request, path)
        if path == "/v1/query":
            if method != "POST":
                return self._error_route(405, "bad_request", "POST /v1/query")
            response, status = await self._answer(request.body, "http")
            return status, protocol.dumps(response), "application/json"
        if path == "/v1/ws":
            return self._error_route(
                426, "bad_request", "/v1/ws requires a WebSocket upgrade"
            )
        return self._error_route(
            404, "not_found", f"no route {method} {path}"
        )

    def _healthz_body(self, request: Request) -> bytes:
        """The ``/healthz`` response body.  ``?live=1`` is the bare
        liveness fast path — a constant ``{"status": "ok"}`` with no SLO
        evaluation, for probes that only ask "is the process serving".
        The full body reports ``status`` (``draining`` / ``degraded`` on
        an SLO breach / ``ok`` — degraded is not dead, so the HTTP
        status stays 200 and readiness policy is the caller's), the
        drain flag, queue occupancy, the SLO verdict, and a
        rolling-window summary."""
        params = parse_qs(request.path.partition("?")[2])
        if params.get("live", [""])[-1] == "1":
            return protocol.dumps({"status": "ok"})
        engine = self.service.slo_engine
        verdict = engine.evaluate().to_dict() if engine is not None else None
        live = self.service.live
        window = None
        if live is not None:
            snap = live.snapshot()
            window = {
                "count": snap["count"],
                "errors": snap["errors"],
                "rate": snap["rate"],
                "error_rate": snap["error_rate"],
                "quantiles": snap["quantiles"],
                "covered": snap["covered"],
            }
        if self._draining:
            status = "draining"
        elif verdict is not None and verdict["status"] == "breach":
            status = "degraded"
        else:
            status = "ok"
        return protocol.dumps(
            {
                "status": status,
                "draining": self._draining,
                "queue_depth": self._pending,
                "max_pending": self.max_pending,
                "slo": verdict,
                "window": window,
            }
        )

    #: Query parameters each flight-recorder debug route reads; any
    #: other name is rejected, like an unknown field of a wire query.
    _DEBUG_PARAMS = {
        "/v1/debug/flight": ("limit", "graph", "outcome"),
        "/v1/debug/slow": ("limit", "graph"),
    }

    def _route_debug(self, request: Request, path: str) -> tuple[int, bytes, str]:
        """Serve one flight-recorder debug endpoint (``/v1/debug/flight``,
        ``/v1/debug/slow``, ``/v1/debug/trace/<id>``).  Responses are
        bounded (the export layer clamps ``limit``), observe-only (served
        during drain, excluded from the connection gauge), and JSON in
        the stable :mod:`repro.obs.export` schema.  An unknown query
        parameter is a 400 ``bad_request``: a filter the route does not
        read must not return unfiltered records that look filtered."""
        flight = self.service.flight
        params = parse_qs(
            request.path.partition("?")[2], keep_blank_values=True
        )
        trace_prefix = self._OBSERVE_PREFIX + "trace/"
        allowed = (
            () if path.startswith(trace_prefix)
            else self._DEBUG_PARAMS.get(path)
        )
        unknown = sorted(set(params) - set(allowed or ()))
        if allowed is not None and unknown:
            return self._error_route(
                400, "bad_request", f"unknown query parameters: {unknown}"
            )

        def param(name: str) -> str | None:
            values = params.get(name)
            return (values[-1] or None) if values else None

        try:
            limit = (
                int(param("limit")) if param("limit") is not None else None
            )
        except ValueError:
            return self._error_route(
                400, "bad_request", f"bad limit {param('limit')!r}"
            )
        if path == "/v1/debug/flight":
            self._debug_requests.labels(endpoint="flight").inc()
            payload = flight_export.flight_payload(
                flight,
                limit=limit,
                graph=param("graph"),
                outcome=param("outcome"),
            )
            return 200, protocol.dumps(payload), "application/json"
        if path == "/v1/debug/slow":
            self._debug_requests.labels(endpoint="slow").inc()
            payload = flight_export.slow_payload(
                flight,
                limit=limit,
                graph=param("graph"),
            )
            return 200, protocol.dumps(payload), "application/json"
        if path == self._STREAM_PATH:
            return self._error_route(
                426, "bad_request",
                f"{self._STREAM_PATH} requires a WebSocket upgrade",
            )
        if path.startswith(trace_prefix):
            self._debug_requests.labels(endpoint="trace").inc()
            trace_id = path[len(trace_prefix):]
            payload = flight_export.trace_payload(flight, trace_id)
            if payload is None:
                return self._error_route(
                    404, "not_found", f"no flight record {trace_id!r}"
                )
            return 200, protocol.dumps(payload), "application/json"
        return self._error_route(
            404, "not_found", f"no debug route {path}"
        )

    @staticmethod
    def _error_route(
        status: int, code: str, message: str
    ) -> tuple[int, bytes, str]:
        """A plain-HTTP route's error answer: one protocol envelope."""
        return (
            status,
            protocol.dumps(
                protocol.encode_error_response(None, code, message)
            ),
            "application/json",
        )

    # ------------------------------------------------------------------ #
    # WebSocket session
    # ------------------------------------------------------------------ #

    #: The telemetry-push WebSocket path (observe-only, like the other
    #: ``/v1/debug/`` routes).
    _STREAM_PATH = "/v1/debug/stream"

    @classmethod
    def _is_ws_upgrade(cls, request: Request) -> bool:
        return (
            "upgrade" in request.header("connection").lower()
            and request.header("upgrade").lower() == "websocket"
            and request.path.split("?", 1)[0] in ("/v1/ws", cls._STREAM_PATH)
        )

    async def _ws_handshake(self, writer, request: Request) -> bool:
        """Answer one WebSocket upgrade (101 + accept key); False (after
        a 400) when the client sent no ``Sec-WebSocket-Key``."""
        key = request.header("sec-websocket-key")
        if not key:
            writer.write(
                render_response(400, b"missing Sec-WebSocket-Key",
                                content_type="text/plain", keep_alive=False)
            )
            await writer.drain()
            return False
        writer.write(
            render_response(
                101,
                b"",
                keep_alive=True,
                extra_headers=(
                    ("Upgrade", "websocket"),
                    ("Connection", "Upgrade"),
                    ("Sec-WebSocket-Accept", ws_accept_key(key)),
                ),
            )
        )
        await writer.drain()
        return True

    async def _ws_session(self, reader, writer, request: Request) -> None:
        """One upgraded WebSocket connection: every text frame is an
        independent protocol request answered concurrently (a response
        frame carries the request's ``id``); the session ends on a close
        frame, peer EOF, or server drain."""
        if not await self._ws_handshake(writer, request):
            return
        send_lock = asyncio.Lock()
        inflight: set[asyncio.Task] = set()

        async def answer_one(payload: bytes) -> None:
            response, _status = await self._answer(payload, "ws")
            async with send_lock:
                try:
                    writer.write(
                        ws_encode_frame(OP_TEXT, protocol.dumps(response))
                    )
                    await writer.drain()
                except (ConnectionError, RuntimeError, OSError):
                    # Peer gone mid-answer: the solve completed (and fed
                    # the cache/co-waiters); delivery alone failed.
                    self._disconnects.inc()

        try:
            while True:
                opcode, payload = await ws_read_message(
                    reader, writer, require_mask=True
                )
                if opcode == OP_CLOSE:
                    break
                task = self._track(answer_one(payload))
                inflight.add(task)
                task.add_done_callback(inflight.discard)
        except (ConnectionError, asyncio.IncompleteReadError):
            if inflight:
                self._disconnects.inc()
        finally:
            # Answer everything already admitted before closing the frame
            # stream — drain never abandons an in-flight query.
            if inflight:
                await asyncio.gather(*list(inflight), return_exceptions=True)
            try:
                async with send_lock:
                    writer.write(ws_encode_frame(OP_CLOSE, b"\x03\xe8"))
                    await writer.drain()
            except (ConnectionError, RuntimeError, OSError):
                pass

    # ------------------------------------------------------------------ #
    # Telemetry push stream
    # ------------------------------------------------------------------ #

    #: Clamp bounds for the subscriber-chosen push interval (seconds).
    _STREAM_MIN_INTERVAL = 0.05
    _STREAM_MAX_INTERVAL = 60.0

    def _telemetry_frame(self, seq: int, alert_cursor: int) -> tuple[dict, int]:
        """Build one telemetry delta frame: the service's live view
        (window snapshot + SLO verdict + sampler values), the SLO
        transition alerts this subscriber has not seen (advancing its
        cursor), and the wire tier's own instantaneous gauges."""
        telemetry = self.service.telemetry()
        alerts: list = []
        engine = self.service.slo_engine
        if engine is not None:
            alerts, alert_cursor = engine.alerts(alert_cursor)
        frame = flight_export.telemetry_payload(
            telemetry,
            seq=seq,
            unix_ts=time.time(),
            alerts=alerts,
            gauges={
                "queue_depth": self._pending,
                "connections": self._connections.value,
                "max_pending": self.max_pending,
                "stream_subscribers": self._stream_subscribers.value,
            },
            draining=self._draining,
        )
        return frame, alert_cursor

    async def _stream_session(self, reader, writer, request: Request) -> None:
        """One ``GET /v1/debug/stream`` subscription: push a versioned
        telemetry delta frame every ``?interval=`` seconds (clamped)
        until the client sends a close frame, disconnects, or the server
        finishes draining (the stream stays live *during* the drain —
        :meth:`aclose` cancels subscriber connections only after the
        last query is answered — and closes with a proper close frame)."""
        params = parse_qs(request.path.partition("?")[2])
        try:
            interval = float(params.get("interval", ["1.0"])[-1])
        except ValueError:
            interval = 1.0
        if not math.isfinite(interval):
            interval = 1.0
        interval = min(
            max(interval, self._STREAM_MIN_INTERVAL),
            self._STREAM_MAX_INTERVAL,
        )
        if not await self._ws_handshake(writer, request):
            return
        self._debug_requests.labels(endpoint="stream").inc()
        self._stream_subscribers.inc()
        closed = asyncio.ensure_future(self._stream_watch(reader, writer))
        seq = 0
        alert_cursor = 0
        try:
            while not closed.done():
                seq += 1
                frame, alert_cursor = self._telemetry_frame(seq, alert_cursor)
                writer.write(ws_encode_frame(OP_TEXT, protocol.dumps(frame)))
                await writer.drain()
                self._stream_frames.inc()
                await asyncio.wait({closed}, timeout=interval)
        except (ConnectionError, RuntimeError, OSError):
            pass  # subscriber went away mid-push
        finally:
            self._stream_subscribers.inc(-1)
            closed.cancel()
            await asyncio.gather(closed, return_exceptions=True)
            try:
                writer.write(ws_encode_frame(OP_CLOSE, b"\x03\xe8"))
                await writer.drain()
            except (
                ConnectionError, RuntimeError, OSError,
                asyncio.CancelledError,
            ):
                pass

    @staticmethod
    async def _stream_watch(reader, writer) -> None:
        """Await the subscriber's close: reads (and discards) incoming
        frames — answering pings inline — until a close frame or EOF.
        The push loop wakes as soon as this task completes."""
        try:
            while True:
                opcode, _payload = await ws_read_message(
                    reader, writer, require_mask=True
                )
                if opcode == OP_CLOSE:
                    return
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            return
