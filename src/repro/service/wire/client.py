"""Asyncio clients for the wire protocol.

Two shapes, matching the two transports:

* :func:`http_query` — one-shot: open a connection, ``POST /v1/query``,
  decode the answer (typed exceptions for error envelopes), close.
  Also :func:`http_get` for the plain-text endpoints (``/metrics``,
  ``/healthz``), the :func:`debug_flight` / :func:`debug_slow` /
  :func:`debug_trace` helpers for the server's flight-recorder debug
  endpoints (decoded JSON in the :mod:`repro.obs.export` schema), and
  :func:`stream_telemetry` — an async iterator over the server's
  ``/v1/debug/stream`` live-telemetry push.
* :class:`WireClient` — a persistent WebSocket session: queries are
  submitted concurrently over one socket, correlated back to their
  futures by the request ``id`` the server echoes (answers may arrive in
  any order — a coalesced batch resolves its whole cohort at once).

Both decode with :func:`repro.service.wire.protocol.decode_response`, so
a remote failure raises the *same* typed exception an in-process
``service.submit`` call would (:class:`~repro.service.errors.\
DeadlineExceededError`, :class:`~repro.service.errors.OverloadedError`,
:class:`~repro.errors.ConvergenceError`, ``KeyError`` for unknown
graphs, ...), and a remote success returns a bitwise-identical
:class:`~repro.walks.local_mixing.LocalMixingResult`.
"""

from __future__ import annotations

import asyncio
import base64
import itertools
import os
from urllib.parse import quote

from repro.service.wire import protocol
from repro.service.wire.http import (
    OP_CLOSE,
    OP_TEXT,
    HttpError,
    read_response,
    render_request,
    ws_accept_key,
    ws_encode_frame,
    ws_read_message,
)

__all__ = [
    "WireClient",
    "debug_flight",
    "debug_slow",
    "debug_trace",
    "http_get",
    "http_query",
    "stream_telemetry",
]


async def http_get(host: str, port: int, path: str) -> tuple[int, bytes]:
    """One-shot ``GET path`` → ``(status, body)`` (no protocol decode —
    for ``/metrics`` and ``/healthz``)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            render_request(
                "GET", path, host=f"{host}:{port}",
                extra_headers=(("Connection", "close"),),
            )
        )
        await writer.drain()
        response = await read_response(reader)
        return int(response.method), response.body
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def _debug_qs(limit=None, graph=None, outcome=None) -> str:
    pairs = [
        (name, value)
        for name, value in (
            ("limit", limit),
            ("graph", graph),
            ("outcome", outcome),
        )
        if value is not None
    ]
    if not pairs:
        return ""
    return "?" + "&".join(f"{name}={quote(str(value))}" for name, value in pairs)


async def _debug_get(host: str, port: int, path: str) -> dict:
    status, body = await http_get(host, port, path)
    obj = protocol.loads(body)
    if status != 200:
        err = (obj.get("error") or {}) if isinstance(obj, dict) else {}
        raise protocol.exception_for_code(
            err.get("code", "internal"),
            err.get("message", f"debug endpoint answered {status}"),
        )
    return obj


async def debug_flight(
    host: str,
    port: int,
    *,
    limit: int | None = None,
    graph: str | None = None,
    outcome: str | None = None,
) -> dict:
    """``GET /v1/debug/flight``: the server's most recent flight records
    (newest first, optionally filtered, server-bounded) as the decoded
    export envelope ``{"v", "kind", "records", "stats"}``."""
    return await _debug_get(
        host,
        port,
        "/v1/debug/flight"
        + _debug_qs(limit=limit, graph=graph, outcome=outcome),
    )


async def debug_slow(
    host: str,
    port: int,
    *,
    limit: int | None = None,
    graph: str | None = None,
) -> dict:
    """``GET /v1/debug/slow``: the server's slowest retained queries
    (descending duration, optionally filtered per graph)."""
    return await _debug_get(
        host, port, "/v1/debug/slow" + _debug_qs(limit=limit, graph=graph)
    )


async def debug_trace(host: str, port: int, trace_id: str) -> dict:
    """``GET /v1/debug/trace/<id>``: one query's flight record with its
    full span timeline embedded; raises ``KeyError`` (the ``not_found``
    taxonomy) when the server retains no such record."""
    return await _debug_get(
        host, port, f"/v1/debug/trace/{quote(trace_id)}"
    )


async def stream_telemetry(
    host: str,
    port: int,
    *,
    interval: float = 1.0,
    max_frames: int | None = None,
):
    """Subscribe to ``GET /v1/debug/stream`` and yield decoded telemetry
    delta frames (the :func:`repro.obs.export.telemetry_payload`
    envelope: window snapshot, SLO verdict, unseen alerts, wire gauges,
    sampler values) as an async iterator.

    Opens its own connection — the subscription is observe-only on the
    server, so it never counts against the query-path connection gauge
    and keeps yielding during a server drain.  Stops after
    ``max_frames`` frames (``None``: until the server closes or the
    consumer breaks out; the generator's ``finally`` sends a client
    close frame either way)::

        async for frame in stream_telemetry(host, port, interval=0.5):
            print(frame["seq"], frame["window"]["rate"])
    """
    reader, writer = await asyncio.open_connection(host, port)
    key = base64.b64encode(os.urandom(16)).decode("latin-1")
    path = f"/v1/debug/stream?interval={interval}"
    try:
        writer.write(
            render_request(
                "GET", path, host=f"{host}:{port}",
                extra_headers=(
                    ("Connection", "Upgrade"),
                    ("Upgrade", "websocket"),
                    ("Sec-WebSocket-Key", key),
                    ("Sec-WebSocket-Version", "13"),
                ),
            )
        )
        await writer.drain()
        response = await read_response(reader)
        if (
            response.method != "101"
            or response.header("sec-websocket-accept") != ws_accept_key(key)
        ):
            raise HttpError(
                f"telemetry stream handshake refused: {response.method} "
                f"{response.path}"
            )
        served = 0
        while max_frames is None or served < max_frames:
            opcode, payload = await ws_read_message(
                reader, writer, require_mask=False
            )
            if opcode == OP_CLOSE:
                return
            served += 1
            yield protocol.loads(payload)
    finally:
        try:
            writer.write(ws_encode_frame(OP_CLOSE, b"\x03\xe8", mask=True))
            await writer.drain()
        except (ConnectionError, RuntimeError, OSError):
            pass
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def http_query(host: str, port: int, query) -> object:
    """One-shot ``POST /v1/query`` for one
    :class:`~repro.service.MixingQuery`: returns the decoded
    :class:`~repro.walks.local_mixing.LocalMixingResult` or raises the
    typed exception the error envelope stands for."""
    body = protocol.dumps(protocol.encode_request(query, id=0))
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            render_request(
                "POST", "/v1/query", host=f"{host}:{port}", body=body,
                extra_headers=(("Connection", "close"),),
            )
        )
        await writer.drain()
        response = await read_response(reader)
        _id, result = protocol.decode_response(protocol.loads(response.body))
        return result
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class WireClient:
    """A persistent WebSocket session against a
    :class:`~repro.service.wire.WireServer`.

    ``await client.submit(query)`` has the exact signature and semantics
    of :meth:`MixingService.submit <repro.service.MixingService.submit>`
    — concurrent submissions multiplex over the one socket and resolve
    out of order by correlation id, which is precisely what lets a
    single client drive a server-side coalesced batch.  Use as an async
    context manager::

        async with WireClient(host, port) as client:
            result = await client.submit(query)
    """

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self._reader = None
        self._writer = None
        self._ids = itertools.count()
        self._waiters: dict[int, asyncio.Future] = {}
        self._recv_task: asyncio.Task | None = None
        self._send_lock = asyncio.Lock()
        self._closed = False

    async def connect(self) -> "WireClient":
        """Open the socket and perform the RFC 6455 handshake."""
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )
        key = base64.b64encode(os.urandom(16)).decode("latin-1")
        self._writer.write(
            render_request(
                "GET", "/v1/ws", host=f"{self.host}:{self.port}",
                extra_headers=(
                    ("Connection", "Upgrade"),
                    ("Upgrade", "websocket"),
                    ("Sec-WebSocket-Key", key),
                    ("Sec-WebSocket-Version", "13"),
                ),
            )
        )
        await self._writer.drain()
        response = await read_response(self._reader)
        if (
            response.method != "101"
            or response.header("sec-websocket-accept") != ws_accept_key(key)
        ):
            raise HttpError(
                f"WebSocket handshake refused: {response.method} "
                f"{response.path}"
            )
        self._recv_task = asyncio.ensure_future(self._recv_loop())
        return self

    async def submit(self, query) -> object:
        """Send one query, await its (possibly out-of-order) answer:
        the decoded result, or the typed exception for its error
        envelope."""
        if self._closed or self._writer is None:
            raise RuntimeError("WireClient is not connected")
        req_id = next(self._ids)
        fut = asyncio.get_running_loop().create_future()
        self._waiters[req_id] = fut
        payload = protocol.dumps(protocol.encode_request(query, id=req_id))
        try:
            async with self._send_lock:
                self._writer.write(ws_encode_frame(OP_TEXT, payload, mask=True))
                await self._writer.drain()
        except BaseException:
            self._waiters.pop(req_id, None)
            raise
        return await fut

    async def _recv_loop(self) -> None:
        """Demultiplex response frames to their waiting futures."""
        try:
            while True:
                opcode, payload = await ws_read_message(
                    self._reader, self._writer, require_mask=False
                )
                if opcode == OP_CLOSE:
                    raise ConnectionResetError("server closed the session")
                obj = protocol.loads(payload)
                fut = self._waiters.pop(obj.get("id"), None)
                if fut is None or fut.done():
                    continue
                try:
                    _id, result = protocol.decode_response(obj)
                except Exception as exc:
                    fut.set_exception(exc)
                else:
                    fut.set_result(result)
        except BaseException as exc:
            # Connection gone: fail every still-pending waiter.
            waiters, self._waiters = self._waiters, {}
            for fut in waiters.values():
                if not fut.done():
                    fut.set_exception(
                        ConnectionResetError(f"wire session ended: {exc!r}")
                    )
            if isinstance(exc, asyncio.CancelledError):
                raise

    async def aclose(self) -> None:
        """Send a close frame, stop the receive loop, close the socket.
        Pending waiters (if any) fail with ``ConnectionResetError``."""
        if self._closed:
            return
        self._closed = True
        if self._writer is not None:
            try:
                async with self._send_lock:
                    self._writer.write(
                        ws_encode_frame(OP_CLOSE, b"\x03\xe8", mask=True)
                    )
                    await self._writer.drain()
            except (ConnectionError, RuntimeError, OSError):
                pass
        if self._recv_task is not None:
            self._recv_task.cancel()
            try:
                await self._recv_task
            except (asyncio.CancelledError, Exception):
                pass
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def stream_telemetry(
        self, *, interval: float = 1.0, max_frames: int | None = None
    ):
        """The module-level :func:`stream_telemetry` against this
        client's server (its own observe-only connection, independent of
        the query session): an async iterator of telemetry frames."""
        return stream_telemetry(
            self.host, self.port, interval=interval, max_frames=max_frames
        )

    async def __aenter__(self) -> "WireClient":
        """Connect and enter the session context."""
        return await self.connect()

    async def __aexit__(self, *exc) -> None:
        """Close the session on context exit."""
        await self.aclose()
