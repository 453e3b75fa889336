"""Tests for the wire protocol (repro.service.wire.protocol) and the
HTTP/WebSocket framing primitives (repro.service.wire.http).

The load-bearing property is **exactness over the wire**: encode→JSON→
decode is the identity on the full :class:`MixingQuery` knob space and on
:class:`LocalMixingResult` — floats bitwise, via JSON's shortest
round-trip ``repr`` — so a result decoded off the socket *is* the object
the server computed.  Hypothesis drives the round-trips over the whole
space; golden fixtures (``tests/data/wire_golden_*.json``) pin the
serialized format itself against silent drift; and the error taxonomy
maps exceptions → codes → exceptions consistently in both directions.
"""

import asyncio
import json
import struct
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import batched_local_mixing_times
from repro.errors import ConvergenceError, GraphError
from repro.graphs import generators as gen
from repro.service import (
    DeadlineExceededError,
    GraphRegistry,
    MixingQuery,
    MixingService,
    OverloadedError,
    ServiceClosedError,
)
from repro.service.errors import error_code
from repro.service.wire import (
    ERROR_STATUS,
    PROTOCOL_VERSION,
    WireError,
    WireServer,
)
from repro.service.wire import http as wire_http
from repro.service.wire.client import http_get
from repro.service.wire import protocol
from repro.walks.local_mixing import LocalMixingResult

DATA = Path(__file__).parent / "data"

# --------------------------------------------------------------------- #
# Hypothesis strategies over the full knob space
# --------------------------------------------------------------------- #

_floats = st.floats(
    allow_nan=False, allow_infinity=False, allow_subnormal=True, width=64
)
_sizes = st.one_of(
    st.just("all"),
    st.lists(st.integers(min_value=1, max_value=10_000), min_size=1,
             max_size=8),
)

_queries = st.builds(
    MixingQuery,
    graph=st.text(min_size=1, max_size=12),
    source=st.integers(min_value=0, max_value=10_000),
    beta=_floats,
    eps=_floats,
    sizes=_sizes,
    threshold_factor=_floats,
    grid_factor=st.one_of(st.none(), _floats),
    t_schedule=st.sampled_from(["all", "doubling"]),
    t_max=st.one_of(st.none(), st.integers(min_value=1, max_value=10**6)),
    lazy=st.booleans(),
    require_source=st.booleans(),
    batch_size=st.one_of(st.none(), st.integers(min_value=1, max_value=512)),
    deadline=st.one_of(st.none(), st.floats(min_value=1e-6, max_value=1e6,
                                            allow_nan=False)),
)

_results = st.builds(
    LocalMixingResult,
    time=st.integers(min_value=0, max_value=10**9),
    set_size=st.integers(min_value=0, max_value=10**9),
    deviation=_floats,
    threshold=_floats,
    steps_checked=st.integers(min_value=0, max_value=10**9),
    sizes_checked=st.integers(min_value=0, max_value=10**9),
)

_ids = st.one_of(st.none(), st.integers(), st.text(max_size=20))

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


# --------------------------------------------------------------------- #
# Round-trips (the identity over the wire)
# --------------------------------------------------------------------- #


class TestRoundTrips:
    @given(query=_queries, id=_ids)
    @settings(max_examples=200, deadline=None)
    def test_request_round_trip_is_identity(self, query, id):
        """encode→JSON bytes→decode reproduces the exact query object
        (floats bitwise) and echoes the correlation id."""
        wire = protocol.dumps(protocol.encode_request(query, id=id))
        got_id, got = protocol.decode_request(protocol.loads(wire))
        assert got_id == id
        assert got == query
        # Bitwise, not just ==: pin the IEEE-754 bit patterns too.
        for name in ("beta", "eps", "threshold_factor"):
            assert struct.pack("<d", getattr(got, name)) == struct.pack(
                "<d", getattr(query, name)
            )

    @given(result=_results, id=_ids)
    @settings(max_examples=200, deadline=None)
    def test_response_round_trip_is_identity(self, result, id):
        wire = protocol.dumps(protocol.encode_response(id, result))
        got_id, got = protocol.decode_response(protocol.loads(wire))
        assert got_id == id
        assert got == result
        assert struct.pack("<d", got.deviation) == struct.pack(
            "<d", result.deviation
        )

    @given(query=_queries)
    @settings(max_examples=50, deadline=None)
    def test_every_knob_is_spelled_explicitly(self, query):
        """The wire form carries the whole knob space — no implicit
        defaults a version skew could silently reinterpret."""
        obj = protocol.encode_query(query)
        assert set(obj) == {"graph"} | set(protocol._QUERY_FIELDS)

    def test_decoded_query_canonicalizes_identically(self, expander16):
        """A query that crossed the wire lands on the same semantic key
        and ``batch_size`` as the in-process original — same cache line,
        same coalescing group."""
        q = MixingQuery("g", 5, beta=4.0, eps=0.25, sizes=(4, 8, 12),
                        batch_size=3)
        rt = protocol.decode_query(protocol.encode_query(q))
        assert rt.semantic_key(expander16) == q.semantic_key(expander16)
        assert rt.batch_size == q.batch_size


# --------------------------------------------------------------------- #
# Strictness (reject, never guess)
# --------------------------------------------------------------------- #


class TestStrictness:
    def _decode(self, obj):
        return protocol.decode_request(obj)

    def test_wrong_version_rejected(self):
        req = protocol.encode_request(MixingQuery("g", 0, beta=4.0))
        req["v"] = PROTOCOL_VERSION + 1
        with pytest.raises(WireError, match="version") as e:
            self._decode(req)
        assert e.value.code == "bad_request"

    def test_unknown_op_rejected(self):
        req = protocol.encode_request(MixingQuery("g", 0, beta=4.0))
        req["op"] = "mutate"
        with pytest.raises(WireError, match="op"):
            self._decode(req)

    def test_unknown_query_field_rejected(self):
        req = protocol.encode_request(MixingQuery("g", 0, beta=4.0))
        req["query"]["betaa"] = 4.0
        with pytest.raises(WireError, match="betaa"):
            self._decode(req)

    def test_method_field_rejected(self):
        # Protocol v3 dropped the field: τ has one method.
        with pytest.raises(WireError, match="method") as e:
            protocol.decode_query(
                {"graph": "g", "source": 0, "beta": 4.0, "method": "iterative"}
            )
        assert e.value.code == "bad_request"

    @pytest.mark.parametrize(
        "version,dropped",
        [(3, {"target": "uniform", "priority": 7}), (4, {"priority": 7})],
        ids=["v3", "v4"],
    )
    def test_old_golden_body_gets_the_version_error(self, version, dropped):
        # An old body: the golden request plus the fields it still sent.
        old = json.loads((DATA / "wire_golden_request.json").read_text())
        old["v"] = version
        old["query"].update(dropped)
        with pytest.raises(WireError, match="version") as e:
            protocol.decode_request(old)
        assert e.value.code == "bad_request"

    @pytest.mark.parametrize(
        "field,value", [("target", "uniform"), ("priority", 7)]
    )
    def test_dropped_field_rejected(self, field, value):
        # v4 dropped ``target`` (τ has one target), v5 ``priority``.
        req = protocol.encode_request(MixingQuery("g", 0, beta=4.0))
        req["query"][field] = value
        with pytest.raises(WireError) as e:
            protocol.decode_request(req)
        assert e.value.code == "bad_request"
        assert str(e.value) == f"unknown query fields: [{field!r}]"

    def test_graph_object_refused_at_encode(self, expander16):
        with pytest.raises(WireError, match="registered name"):
            protocol.encode_query(MixingQuery(expander16, 0, beta=4.0))

    def test_missing_source_rejected(self):
        with pytest.raises(WireError, match="source"):
            protocol.decode_query({"graph": "g", "beta": 4.0})

    def test_invalid_json_is_bad_request(self):
        with pytest.raises(WireError) as e:
            protocol.loads(b"{nope")
        assert e.value.code == "bad_request"
        with pytest.raises(WireError):
            protocol.loads(b"[1,2]")

    def test_malformed_result_rejected(self):
        with pytest.raises(WireError, match="result"):
            protocol.decode_result({"time": 1})


def _hostile_request(field: str, fragment: str) -> bytes:
    """A valid request body whose ``query.<field>`` is the raw JSON text
    ``fragment`` (spelled as a client would send it, so ``NaN`` and
    ``1e400`` reach the parser as text)."""
    req = protocol.encode_request(MixingQuery("g", 1, beta=4.0), id=1)
    req["query"][field] = "__HOSTILE__"
    return protocol.dumps(req).replace(b'"__HOSTILE__"', fragment.encode())


#: Field values Python would quietly coerce into a different query.
_HOSTILE_FIELDS = [
    ("lazy", '"false"'),
    ("source", "1.9"),
    ("source", "true"),
    ("sizes", "[2.7]"),
    ("sizes", "[1e400]"),
    ("t_max", "20.5"),
    ("batch_size", "true"),
    ("deadline", "NaN"),
    ("deadline", "Infinity"),
]


class TestFieldTypes:
    @pytest.mark.parametrize("field,fragment", _HOSTILE_FIELDS)
    def test_mistyped_field_is_bad_request(self, field, fragment):
        with pytest.raises(WireError) as e:
            protocol.decode_request(
                protocol.loads(_hostile_request(field, fragment))
            )
        assert e.value.code == "bad_request"

    @given(
        query=st.fixed_dictionaries(
            {
                name: st.one_of(valid, _json_values)
                for name, valid in {
                    "graph": st.text(min_size=1, max_size=4),
                    "source": st.integers(min_value=0, max_value=99),
                    "beta": _floats,
                    "eps": _floats,
                    "sizes": _sizes,
                    "threshold_factor": _floats,
                    "grid_factor": st.one_of(st.none(), _floats),
                    "t_schedule": st.sampled_from(["all", "doubling"]),
                    "t_max": st.one_of(st.none(), st.integers()),
                    "lazy": st.booleans(),
                    "require_source": st.booleans(),
                    "batch_size": st.one_of(st.none(), st.integers()),
                    "deadline": st.one_of(st.none(), _floats),
                }.items()
            }
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_decode_reproduces_or_rejects(self, query):
        """Any JSON value in any field either decodes to a query that
        re-encodes to exactly what was sent, or is a ``bad_request`` —
        never a silently different query, never another exception."""
        req = {"v": PROTOCOL_VERSION, "op": "query", "query": query}
        try:
            _id, got = protocol.decode_request(req)
        except WireError as exc:
            assert exc.code == "bad_request"
        else:
            assert protocol.encode_query(got) == query

    def test_flight_endpoint_survives_a_hostile_query(self, expander16):
        """``"deadline": Infinity`` is refused at decode, so it leaves no
        flight record that the listing cannot export: the listing still
        answers 200."""

        async def main():
            reg = GraphRegistry()
            reg.register("g", expander16)
            async with MixingService(registry=reg, window=0.0) as svc:
                async with WireServer(svc) as server:
                    reader, writer = await asyncio.open_connection(
                        server.host, server.port
                    )
                    try:
                        writer.write(
                            wire_http.render_request(
                                "POST", "/v1/query",
                                host=f"{server.host}:{server.port}",
                                body=_hostile_request("deadline", "Infinity"),
                                extra_headers=(("Connection", "close"),),
                            )
                        )
                        await writer.drain()
                        answer = await wire_http.read_response(reader)
                    finally:
                        writer.close()
                    listing = await http_get(
                        server.host, server.port,
                        "/v1/debug/flight?limit=256",
                    )
            return int(answer.method), listing[0]

        answered, listed = asyncio.run(asyncio.wait_for(main(), timeout=30))
        assert answered == 400
        assert listed == 200


# --------------------------------------------------------------------- #
# Golden fixtures (format pinning)
# --------------------------------------------------------------------- #


class TestGoldenFixtures:
    def test_golden_request_decodes_and_reencodes(self):
        golden = json.loads((DATA / "wire_golden_request.json").read_text())
        req_id, query = protocol.decode_request(golden)
        assert req_id == "golden-1"
        assert query == MixingQuery(
            "expander", 3, beta=4.0, eps=0.25, t_max=3000,
            deadline=2.5,
        )
        # Re-encoding reproduces the golden object exactly.
        assert protocol.encode_request(query, id=req_id) == golden

    def test_golden_response_decodes_and_reencodes(self):
        golden = json.loads((DATA / "wire_golden_response.json").read_text())
        resp_id, result = protocol.decode_response(golden)
        assert resp_id == "golden-1"
        assert protocol.encode_response(resp_id, result) == golden

    def test_golden_response_is_the_engine_answer(self):
        """The golden result is the *actual* engine answer for the golden
        query on its fixture graph — the wire format pins real values."""
        golden_req = json.loads(
            (DATA / "wire_golden_request.json").read_text()
        )
        _id, query = protocol.decode_request(golden_req)
        g = gen.random_regular(24, 4, seed=7)
        direct = batched_local_mixing_times(
            g, sources=[query.source], **query.engine_kwargs()
        )[0]
        golden_resp = json.loads(
            (DATA / "wire_golden_response.json").read_text()
        )
        _id, golden_result = protocol.decode_response(golden_resp)
        assert golden_result == direct


# --------------------------------------------------------------------- #
# Error taxonomy
# --------------------------------------------------------------------- #


_EXC_CODES = [
    (DeadlineExceededError("late"), "deadline_exceeded"),
    (OverloadedError("full"), "overloaded"),
    (ServiceClosedError("bye"), "shutting_down"),
    (ConvergenceError("no"), "unconverged"),
    (KeyError("no graph registered under 'g'"), "not_found"),
    (ValueError("bad"), "bad_request"),
    (TypeError("bad"), "bad_request"),
    (GraphError("bad"), "bad_request"),
    (RuntimeError("boom"), "internal"),
]


class TestErrorTaxonomy:
    @pytest.mark.parametrize("exc,code", _EXC_CODES)
    def test_exception_to_code(self, exc, code):
        got_code, message = protocol.error_code_for(exc)
        assert got_code == code
        assert message
        assert code in ERROR_STATUS

    @pytest.mark.parametrize("code", sorted(ERROR_STATUS))
    def test_code_to_exception_round_trips(self, code):
        """Every wire code rebuilds an exception that maps back to the
        same code — remote failures raise what in-process callers catch."""
        exc = protocol.exception_for_code(code, "msg")
        got_code, _ = protocol.error_code_for(exc)
        assert got_code == code

    @pytest.mark.parametrize("exc,code", _EXC_CODES)
    def test_flight_outcome_equals_wire_code(self, exc, code):
        """A query failing with ``exc`` leaves a flight record whose
        outcome is the code the wire answers with; only an exception
        outside the taxonomy differs, keeping its type name."""
        registry = GraphRegistry()

        def fail(ref):
            raise exc

        registry.resolve = fail

        async def main():
            async with MixingService(registry=registry) as svc:
                with pytest.raises(type(exc)):
                    await svc.submit(MixingQuery("g", 0, beta=4.0))
                return svc.flight.records()

        (record,) = asyncio.run(main())
        assert protocol.error_code_for(exc)[0] == code
        if code == "internal":
            assert error_code(exc) is None
            assert record.outcome == f"error:{type(exc).__name__}"
        else:
            assert error_code(exc) == record.outcome == code

    def test_error_envelope_round_trip(self):
        obj = protocol.encode_error_response("id-9", "overloaded", "full up")
        with pytest.raises(OverloadedError, match="full up"):
            protocol.decode_response(protocol.loads(protocol.dumps(obj)))

    def test_wire_error_rejects_unknown_code(self):
        with pytest.raises(ValueError):
            WireError("teapot", "short and stout")
        with pytest.raises(ValueError):
            protocol.encode_error_response(None, "teapot", "nope")

    def test_http_status_mapping(self):
        assert WireError("overloaded", "x").http_status == 429
        assert WireError("deadline_exceeded", "x").http_status == 504
        assert WireError("shutting_down", "x").http_status == 503


# --------------------------------------------------------------------- #
# HTTP + WebSocket framing primitives
# --------------------------------------------------------------------- #


def _feed_reader(data: bytes) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.feed_eof()
    return reader


class TestFraming:
    def test_ws_accept_key_rfc_vector(self):
        # RFC 6455 §1.3's worked example.
        assert (
            wire_http.ws_accept_key("dGhlIHNhbXBsZSBub25jZQ==")
            == "s3pPLMBiTxaQ9kYGzzhZRbK+xOo="
        )

    @pytest.mark.parametrize("size", [0, 1, 125, 126, 65535, 65536])
    @pytest.mark.parametrize("mask", [False, True])
    def test_ws_frame_round_trip(self, size, mask):
        """Frame encode→decode is the identity across all three payload
        length encodings, masked and unmasked."""
        payload = bytes(i % 251 for i in range(size))

        async def main():
            frame = wire_http.ws_encode_frame(
                wire_http.OP_TEXT, payload, mask=mask
            )
            reader = _feed_reader(frame)
            fin, opcode, got = await wire_http._ws_read_frame(
                reader, require_mask=mask
            )
            assert fin and opcode == wire_http.OP_TEXT
            assert got == payload

        asyncio.run(main())

    def test_unmasked_client_frame_rejected(self):
        async def main():
            frame = wire_http.ws_encode_frame(wire_http.OP_TEXT, b"x")
            with pytest.raises(wire_http.HttpError, match="masked"):
                await wire_http._ws_read_frame(
                    _feed_reader(frame), require_mask=True
                )

        asyncio.run(main())

    def test_http_request_round_trip(self):
        async def main():
            raw = wire_http.render_request(
                "POST", "/v1/query", host="h:1", body=b'{"v":1}'
            )
            req = await wire_http.read_request(_feed_reader(raw))
            assert req.method == "POST"
            assert req.path == "/v1/query"
            assert req.body == b'{"v":1}'
            assert req.header("HOST") == "h:1"
            assert req.header("content-length") == "7"

        asyncio.run(main())

    def test_http_response_round_trip(self):
        async def main():
            raw = wire_http.render_response(429, b"slow down",
                                            content_type="text/plain")
            resp = await wire_http.read_response(_feed_reader(raw))
            assert resp.method == "429"
            assert resp.body == b"slow down"

        asyncio.run(main())

    def test_clean_eof_is_none_mid_request_is_error(self):
        async def main():
            assert await wire_http.read_request(_feed_reader(b"")) is None
            with pytest.raises(wire_http.HttpError):
                await wire_http.read_request(_feed_reader(b"GET / HTTP/1.1"))

        asyncio.run(main())

    def test_oversized_body_rejected(self):
        async def main():
            raw = (
                b"POST /v1/query HTTP/1.1\r\nContent-Length: "
                + str(wire_http.MAX_BODY_BYTES + 1).encode()
                + b"\r\n\r\n"
            )
            with pytest.raises(wire_http.HttpError, match="Content-Length"):
                await wire_http.read_request(_feed_reader(raw))

        asyncio.run(main())

    @pytest.mark.parametrize(
        "header",
        [
            b"Content-Length: +4",
            b"Content-Length: 0_4",
            b"Content-Length: -0",
            b"Content-Length: 4\r\nContent-Length: 2",
        ],
        ids=["sign", "underscore", "negative-zero", "repeated"],
    )
    def test_malformed_content_length_rejected(self, header):
        # RFC 9112: Content-Length = 1*DIGIT, and one framing per message
        # (a second copy could leave bytes on the stream as a request).
        async def main():
            raw = b"POST /v1/query HTTP/1.1\r\n" + header + b"\r\n\r\nabcd"
            with pytest.raises(wire_http.HttpError, match="Content-Length"):
                await wire_http.read_request(_feed_reader(raw))

        asyncio.run(main())

    @pytest.mark.parametrize(
        "headers",
        [
            b"Content-Length : 4",
            b"Host: h\r\n Content-Length: 4",
            b"Transfer-Encoding: gzip\r\nContent-Length: 4",
            b"Transfer-Encoding: chunked\r\nContent-Length: 4",
        ],
        ids=["space-before-colon", "obs-fold", "te-gzip", "te-chunked"],
    )
    def test_ambiguous_framing_rejected(self, headers):
        # RFC 9112 §5.1: whitespace in a field name is a 400; §6.3: a
        # Transfer-Encoding this server cannot decode is a 400 too.
        async def main():
            raw = b"POST /v1/query HTTP/1.1\r\n" + headers + b"\r\n\r\nabcd"
            with pytest.raises(wire_http.HttpError):
                await wire_http.read_request(_feed_reader(raw))

        asyncio.run(main())

    def test_content_length_over_int_digit_limit_rejected(self):
        async def main():
            raw = b"POST / HTTP/1.1\r\nContent-Length: " + b"9" * 5000
            with pytest.raises(wire_http.HttpError, match="Content-Length"):
                await wire_http.read_request(_feed_reader(raw + b"\r\n\r\n"))

        asyncio.run(main())
