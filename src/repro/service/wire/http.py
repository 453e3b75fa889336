"""Minimal HTTP/1.1 parsing and RFC 6455 WebSocket framing on asyncio
streams.

The serving image ships no third-party HTTP stack, so the wire layer
carries its own — deliberately small: request-line + headers +
``Content-Length`` bodies (no chunked transfer, no multipart), keep-alive
connections, and the WebSocket subset the protocol needs (text, close,
ping/pong frames; 7/16/64-bit payload lengths; client-to-server masking
required per the RFC, server-to-client frames unmasked; no fragmented
messages — every protocol object fits one frame).  Both the server
(:mod:`repro.service.wire.server`) and the client
(:mod:`repro.service.wire.client`) are built on these primitives, so the
framing code is exercised from both ends in every wire test.
"""

from __future__ import annotations

import asyncio
import base64
import hashlib
import os
import struct
from dataclasses import dataclass, field

__all__ = [
    "HttpError",
    "Request",
    "read_request",
    "read_response",
    "render_request",
    "render_response",
    "ws_accept_key",
    "ws_encode_frame",
    "ws_read_message",
    "OP_TEXT",
    "OP_CLOSE",
    "OP_PING",
    "OP_PONG",
]

#: Hard bounds a remote peer cannot talk us past.
MAX_HEADER_BYTES = 32 * 1024
MAX_BODY_BYTES = 8 * 1024 * 1024
MAX_WS_PAYLOAD = 8 * 1024 * 1024
#: Control frames (close/ping/pong) carry at most 125 bytes (RFC 6455 §5.5).
MAX_WS_CONTROL_PAYLOAD = 125

#: The RFC 6455 handshake GUID.
WS_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

#: WebSocket opcodes (the subset the wire protocol uses).
OP_TEXT = 0x1
OP_BINARY = 0x2
OP_CLOSE = 0x8
OP_PING = 0x9
OP_PONG = 0xA

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    422: "Unprocessable Entity",
    426: "Upgrade Required",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
    101: "Switching Protocols",
}


class HttpError(Exception):
    """A malformed or over-limit HTTP message (connection-fatal: the
    stream cannot be trusted to be request-aligned afterwards)."""


@dataclass
class Request:
    """One parsed HTTP request (or, client-side, response — ``method``
    then holds the status code as a string and ``path`` the reason)."""

    method: str
    path: str
    headers: dict = field(default_factory=dict)
    body: bytes = b""

    def header(self, name: str, default: str = "") -> str:
        """Case-insensitive header lookup."""
        return self.headers.get(name.lower(), default)


async def _read_head(reader) -> list[str] | None:
    """Read request/status line + headers up to the blank line; ``None``
    on clean EOF before any byte (keep-alive peer went away)."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except Exception as exc:  # IncompleteReadError, LimitOverrunError
        if isinstance(exc, asyncio.IncompleteReadError):
            if not exc.partial:
                return None
            raise HttpError("connection closed mid-request") from exc
        raise HttpError(f"unreadable HTTP head: {exc}") from exc
    if len(head) > MAX_HEADER_BYTES:
        raise HttpError("HTTP head too large")
    return head.decode("latin-1").split("\r\n")[:-2]


def _parse_headers(lines: list[str]) -> dict:
    headers: dict = {}
    for line in lines:
        name, sep, value = line.partition(":")
        if not sep:
            raise HttpError(f"malformed header line {line!r}")
        name = name.strip().lower()
        if name == "content-length" and name in headers:
            # Which copy frames the body is ambiguous: request smuggling.
            raise HttpError("repeated Content-Length header")
        headers[name] = value.strip()
    return headers


async def _read_body(reader, headers: dict) -> bytes:
    length = headers.get("content-length", "0")
    # RFC 9112: 1*DIGIT.  int() would also take a sign, "_" and non-ASCII
    # digits.
    if not (length.isascii() and length.isdigit()):
        raise HttpError(f"bad Content-Length {length[:32]!r}")
    # The length check first: int() refuses strings over 4300 digits.
    if len(length) > len(str(MAX_BODY_BYTES)) or int(length) > MAX_BODY_BYTES:
        raise HttpError(f"unacceptable Content-Length {length[:32]}")
    n = int(length)
    if "chunked" in headers.get("transfer-encoding", "").lower():
        raise HttpError("chunked transfer encoding not supported")
    if n == 0:
        return b""
    try:
        return await reader.readexactly(n)
    except Exception as exc:
        raise HttpError("connection closed mid-body") from exc


async def read_request(reader) -> Request | None:
    """Parse one HTTP request off the stream (``None`` on clean EOF)."""
    lines = await _read_head(reader)
    if lines is None:
        return None
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpError(f"malformed request line {lines[0]!r}")
    headers = _parse_headers(lines[1:])
    body = await _read_body(reader, headers)
    return Request(method=parts[0].upper(), path=parts[1],
                   headers=headers, body=body)


async def read_response(reader) -> Request:
    """Parse one HTTP response off the stream (client side): returns a
    :class:`Request` whose ``method`` is the status code string."""
    lines = await _read_head(reader)
    if lines is None:
        raise HttpError("connection closed before response")
    parts = lines[0].split(" ", 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
        raise HttpError(f"malformed status line {lines[0]!r}")
    headers = _parse_headers(lines[1:])
    body = await _read_body(reader, headers)
    return Request(method=parts[1], path=parts[2] if len(parts) > 2 else "",
                   headers=headers, body=body)


def render_response(
    status: int,
    body: bytes = b"",
    *,
    content_type: str = "application/json",
    keep_alive: bool = True,
    extra_headers: tuple = (),
) -> bytes:
    """Serialize one HTTP response (Content-Length framing always)."""
    reason = _REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    if body:
        lines.append(f"Content-Type: {content_type}")
    for name, value in extra_headers:
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def render_request(
    method: str,
    path: str,
    *,
    host: str,
    body: bytes = b"",
    content_type: str = "application/json",
    extra_headers: tuple = (),
) -> bytes:
    """Serialize one HTTP request (client side)."""
    lines = [
        f"{method} {path} HTTP/1.1",
        f"Host: {host}",
        f"Content-Length: {len(body)}",
    ]
    if body:
        lines.append(f"Content-Type: {content_type}")
    for name, value in extra_headers:
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def ws_accept_key(client_key: str) -> str:
    """The ``Sec-WebSocket-Accept`` value for a handshake ``client_key``
    (RFC 6455 §4.2.2: SHA-1 of key + GUID, base64)."""
    digest = hashlib.sha1((client_key + WS_GUID).encode("latin-1")).digest()
    return base64.b64encode(digest).decode("latin-1")


def ws_encode_frame(opcode: int, payload: bytes, *, mask: bool = False) -> bytes:
    """Serialize one unfragmented WebSocket frame.  Servers send
    unmasked (``mask=False``); clients must mask (``mask=True``, fresh
    random masking key per frame)."""
    head = bytearray([0x80 | opcode])
    n = len(payload)
    mask_bit = 0x80 if mask else 0
    if n < 126:
        head.append(mask_bit | n)
    elif n < 1 << 16:
        head.append(mask_bit | 126)
        head += struct.pack("!H", n)
    else:
        head.append(mask_bit | 127)
        head += struct.pack("!Q", n)
    if mask:
        key = os.urandom(4)
        head += key
        payload = bytes(b ^ key[i % 4] for i, b in enumerate(payload))
    return bytes(head) + payload


async def _ws_read_frame(reader, *, require_mask: bool):
    """Read one raw frame → ``(fin, opcode, payload)``."""
    head = await reader.readexactly(2)
    fin = bool(head[0] & 0x80)
    opcode = head[0] & 0x0F
    masked = bool(head[1] & 0x80)
    n = head[1] & 0x7F
    if n == 126:
        (n,) = struct.unpack("!H", await reader.readexactly(2))
    elif n == 127:
        (n,) = struct.unpack("!Q", await reader.readexactly(8))
    if n > MAX_WS_PAYLOAD:
        raise HttpError(f"WebSocket payload of {n} bytes over limit")
    if opcode & 0x8 and n > MAX_WS_CONTROL_PAYLOAD:
        raise HttpError(
            f"WebSocket control frame of {n} bytes over the "
            f"{MAX_WS_CONTROL_PAYLOAD}-byte limit (RFC 6455 §5.5)"
        )
    if require_mask and not masked:
        raise HttpError("client frames must be masked (RFC 6455 §5.3)")
    key = await reader.readexactly(4) if masked else None
    payload = await reader.readexactly(n) if n else b""
    if key is not None:
        payload = bytes(b ^ key[i % 4] for i, b in enumerate(payload))
    return fin, opcode, payload


async def ws_read_message(reader, writer, *, require_mask: bool):
    """Read the next *data or close* message: answers pings inline,
    ignores pongs, rejects fragmentation and binary frames.  Returns
    ``(opcode, payload)`` where opcode is :data:`OP_TEXT` or
    :data:`OP_CLOSE`."""
    while True:
        fin, opcode, payload = await _ws_read_frame(
            reader, require_mask=require_mask
        )
        if not fin or opcode == 0x0:
            raise HttpError("fragmented WebSocket messages not supported")
        if opcode == OP_PING:
            writer.write(
                ws_encode_frame(OP_PONG, payload, mask=not require_mask)
            )
            await writer.drain()
            continue
        if opcode == OP_PONG:
            continue
        if opcode == OP_BINARY:
            raise HttpError("binary WebSocket frames not supported")
        if opcode not in (OP_TEXT, OP_CLOSE):
            raise HttpError(f"unsupported WebSocket opcode {opcode:#x}")
        return opcode, payload
