"""End-to-end wire serving tests: the /metrics endpoint contract and the
concurrency soak.

The soak (marked ``slow``) drives one server with C ∈ {8, 64, 256}
concurrent WebSocket clients hammering a small hot-key pool — the
worst-case mix of coalescing, in-flight dedup and cache hits — and then
asserts the two serving invariants *exactly*: every one of the hundreds
of answers is bitwise identical to the direct engine call, and the wire
counters account for every request
(``requests = admitted + rejected``,
``admitted = answered + expired + errored``) with zero lost.

The /metrics test reuses the Prometheus line-format checker from
``tests/test_obs.py`` (same parsing helper, so the wire endpoint is held
to the identical format bar as the in-process renderer) and proves the
endpoint serves the service's composed registry *verbatim* — byte-equal
to a local ``service.metrics.render()``: observe-only connections
(scrapes, health probes, debug reads) are excluded from the connection
gauge, so a scrape never observes itself.

No pytest-asyncio in the image — each test drives its own event loop via
``asyncio.run``.
"""

import asyncio
import json

import pytest

from repro.engine import batched_local_mixing_times
from repro.graphs import generators as gen
from repro.obs import observability
from repro.obs.export import EXPORT_VERSION, MAX_EXPORT_RECORDS
from repro.service import GraphRegistry, MixingQuery, MixingService
from repro.service import ServiceClosedError
from repro.service.wire import (
    PROTOCOL_VERSION,
    WireClient,
    WireServer,
    debug_flight,
    debug_slow,
    debug_trace,
    http_get,
    http_query,
)
from repro.service.wire import http as wire_http
from repro.service.wire import protocol
from test_obs import _assert_prometheus_parseable

BETA = 4.0
EPS = 0.25


@pytest.fixture(scope="module")
def expander():
    return gen.random_regular(24, 4, seed=7)


@pytest.fixture(scope="module")
def expander_direct(expander):
    return batched_local_mixing_times(expander, BETA, EPS)


def wire_query(source, **overrides):
    kw = dict(beta=BETA, eps=EPS)
    kw.update(overrides)
    return MixingQuery("g", source, **kw)


def make_registry(graph):
    reg = GraphRegistry()
    reg.register("g", graph)
    return reg


# --------------------------------------------------------------------- #
# GET /metrics
# --------------------------------------------------------------------- #


class TestMetricsEndpoint:
    def test_metrics_parse_families_and_verbatim(
        self, expander, expander_direct
    ):
        """After live traffic, /metrics must (a) be well-formed Prometheus
        text by the same checker the in-process renderer passes, (b)
        carry the wire families alongside every composed lower-layer
        family, and (c) be the service registry's render verbatim."""

        async def main():
            reg = make_registry(expander)
            async with MixingService(registry=reg, window=0.005) as svc:
                async with WireServer(svc) as server:
                    async with WireClient(
                        server.host, server.port
                    ) as client:
                        results = await asyncio.gather(
                            *(client.submit(wire_query(s))
                              for s in range(8))
                        )
                    assert results == expander_direct[:8]
                    status, body = await http_get(
                        server.host, server.port, "/metrics"
                    )
                    local = svc.metrics.render()
                    health_status, health = await http_get(
                        server.host, server.port, "/healthz"
                    )
            return status, body.decode("utf-8"), local, health_status

        status, text, local, health_status = asyncio.run(main())
        assert status == 200 and health_status == 200
        _assert_prometheus_parseable(text)
        # Wire families present next to every composed layer's.
        for family in (
            "repro_wire_requests_total",
            "repro_wire_admitted_total",
            "repro_wire_rejected_total",
            "repro_wire_answered_total",
            "repro_wire_expired_total",
            "repro_wire_errors_total",
            "repro_wire_queue_depth",
            "repro_wire_request_seconds_bucket",
            "repro_cache_hits_total",
            "repro_coalescer_batches_total",
            "repro_registry_resolves_total",
        ):
            assert family in text, f"missing family {family}"
        # Verbatim: the scrape connection is observe-only and excluded
        # from the connection gauge, so the bodies match byte-for-byte.
        assert text == local


# --------------------------------------------------------------------- #
# Flight-recorder debug endpoints
# --------------------------------------------------------------------- #


class TestDebugEndpoints:
    def test_flight_slow_and_trace_round_trip(
        self, expander, expander_direct
    ):
        """After live traffic: /v1/debug/flight lists the completed
        queries newest first, /v1/debug/slow ranks them by duration, and
        /v1/debug/trace/<id> serves one record with its span timeline —
        all in the versioned export envelope, all JSON-decodable by the
        client helpers."""

        async def main():
            reg = make_registry(expander)
            async with MixingService(
                registry=reg, window=0.005, slow_threshold=0.0
            ) as svc:
                async with WireServer(svc) as server:
                    with observability(True):
                        async with WireClient(
                            server.host, server.port
                        ) as client:
                            results = await asyncio.gather(
                                *(client.submit(wire_query(s))
                                  for s in range(6))
                            )
                    assert results == expander_direct[:6]
                    flight = await debug_flight(server.host, server.port)
                    slow = await debug_slow(server.host, server.port)
                    tid = flight["records"][0]["trace_id"]
                    timeline = await debug_trace(
                        server.host, server.port, tid
                    )
                    with pytest.raises(KeyError):
                        await debug_trace(
                            server.host, server.port, "q-unknown"
                        )
                    stats = server.stats()
            return flight, slow, tid, timeline, stats

        flight, slow, tid, timeline, stats = asyncio.run(main())
        assert flight["v"] == EXPORT_VERSION and flight["kind"] == "flight"
        assert len(flight["records"]) == 6
        assert flight["stats"]["records"] == 6
        for rec in flight["records"]:
            assert rec["outcome"] == "ok"
            assert rec["trace_id"].startswith("q-")
            assert "spans" not in rec  # listings never embed timelines
        # slow_threshold=0.0 admits everything; ranked by duration.
        durations = [r["duration"] for r in slow["records"]]
        assert durations == sorted(durations, reverse=True)
        assert timeline["kind"] == "trace"
        assert timeline["record"]["trace_id"] == tid
        assert timeline["record"]["spans"]["name"] == "query"
        # Debug reads are observe-only: no connection ever counted.
        assert stats["connections"] == 0

    def test_limit_is_clamped_and_validated(self, expander):
        async def main():
            reg = make_registry(expander)
            async with MixingService(registry=reg, window=0.0) as svc:
                async with WireServer(svc) as server:
                    for s in range(4):
                        await http_query(
                            server.host, server.port, wire_query(s)
                        )
                    greedy = await debug_flight(
                        server.host, server.port, limit=10 ** 9
                    )
                    none = await debug_flight(
                        server.host, server.port, limit=0
                    )
                    status, _body = await http_get(
                        server.host, server.port,
                        "/v1/debug/flight?limit=abc",
                    )
                    missing, _ = await http_get(
                        server.host, server.port, "/v1/debug/nothing"
                    )
            return greedy, none, status, missing

        greedy, none, status, missing = asyncio.run(main())
        assert len(greedy["records"]) == min(4, MAX_EXPORT_RECORDS)
        assert none["records"] == []
        assert none["stats"]["records"] == 4  # counters still visible
        assert status == 400
        assert missing == 404

    def test_unknown_query_parameters_rejected(self, expander):
        """A filter a route does not read is a 400, not an unfiltered
        listing that looks filtered (the rule ``decode_query`` applies to
        unknown query fields)."""

        async def main():
            reg = make_registry(expander)
            async with MixingService(registry=reg, window=0.0) as svc:
                async with WireServer(svc) as server:
                    await http_query(server.host, server.port, wire_query(0))
                    out = {}
                    for path in (
                        "/v1/debug/flight?backend=float32",
                        "/v1/debug/flight?graph=x&prefilter=",
                        "/v1/debug/slow?outcome=ok",
                        "/v1/debug/trace/q-0?limit=1",
                        "/v1/debug/flight?limit=1&outcome=ok",
                    ):
                        out[path] = await http_get(
                            server.host, server.port, path
                        )
            return out

        out = asyncio.run(main())
        for path, (status, body) in list(out.items())[:4]:
            assert status == 400, path
            err = json.loads(body)["error"]
            assert err["code"] == "bad_request"
            assert "unknown query parameters" in err["message"]
        status, body = out["/v1/debug/flight?limit=1&outcome=ok"]
        assert status == 200
        assert len(json.loads(body)["records"]) == 1

    def test_debug_endpoints_served_during_drain(
        self, expander, expander_direct
    ):
        """Drain refuses new *queries* but keeps the observe-only debug
        endpoints readable — exactly when an operator most wants the
        flight log."""

        async def main():
            reg = make_registry(expander)
            async with MixingService(registry=reg, window=0.0) as svc:
                async with WireServer(svc) as server:
                    r = await http_query(
                        server.host, server.port, wire_query(0)
                    )
                    assert r == expander_direct[0]
                    server._draining = True
                    try:
                        flight = await debug_flight(
                            server.host, server.port
                        )
                        health, _ = await http_get(
                            server.host, server.port, "/healthz"
                        )
                        with pytest.raises(ServiceClosedError):
                            await http_query(
                                server.host, server.port, wire_query(1)
                            )
                    finally:
                        server._draining = False
            return flight, health

        flight, health = asyncio.run(main())
        assert health == 200
        assert len(flight["records"]) == 1
        assert flight["records"][0]["outcome"] == "ok"


# --------------------------------------------------------------------- #
# Protocol version
# --------------------------------------------------------------------- #


class TestProtocolVersion:
    def test_v1_and_removed_knobs_get_typed_bad_request(self, expander):
        """Every v1 encoder sent ``backend``/``prefilter``; v2 dropped
        both.  A v1 request gets the typed version error, and a v2
        request carrying either field gets the unknown-field error —
        both a 400 ``bad_request`` from the live server."""
        v2 = protocol.encode_request(wire_query(0), id=1)
        v1 = json.loads(json.dumps(v2))
        v1["v"] = 1
        v1["query"].update(prefilter="fused", backend=None)
        bodies = {"v1": v1}
        for name, value in (("backend", "reference"), ("prefilter", "fused")):
            req = json.loads(json.dumps(v2))
            req["query"][name] = value
            bodies[name] = req

        async def post(server, obj):
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            try:
                writer.write(
                    wire_http.render_request(
                        "POST", "/v1/query",
                        host=f"{server.host}:{server.port}",
                        body=protocol.dumps(obj),
                        extra_headers=(("Connection", "close"),),
                    )
                )
                await writer.drain()
                response = await wire_http.read_response(reader)
            finally:
                writer.close()
            return int(response.method), protocol.loads(response.body)

        async def main():
            reg = make_registry(expander)
            async with MixingService(registry=reg, window=0.0) as svc:
                async with WireServer(svc) as server:
                    out = {k: await post(server, b) for k, b in bodies.items()}
                    out["v2"] = await post(server, v2)
            return out

        out = asyncio.run(main())
        for key, match in (
            ("v1", "unsupported protocol version 1"),
            ("backend", "unknown query fields: ['backend']"),
            ("prefilter", "unknown query fields: ['prefilter']"),
        ):
            status, obj = out[key]
            assert status == 400, key
            assert obj["ok"] is False and obj["v"] == PROTOCOL_VERSION
            assert obj["error"]["code"] == "bad_request"
            assert match in obj["error"]["message"], obj
        status, obj = out["v2"]
        assert status == 200 and obj["ok"] is True


class TestNegativeTMax:
    def test_typed_bad_request_in_process_and_on_the_wire(self, expander):
        """``t_max=-1`` is a bad argument, not an unconverged solve and
        not an internal error: the service records ``bad_request`` and
        both wire clients raise the ``ValueError`` it stands for."""
        bad = wire_query(0, t_max=-1)

        async def outcome(submit):
            try:
                await submit(bad)
            except Exception as exc:  # noqa: BLE001 - the type is the point
                return type(exc), str(exc)
            return None

        async def main():
            reg = make_registry(expander)
            async with MixingService(registry=reg, window=0.0) as svc:
                out = {"service": await outcome(svc.submit)}
                async with WireServer(svc) as server:
                    out["http"] = await outcome(
                        lambda q: http_query(server.host, server.port, q)
                    )
                    async with WireClient(server.host, server.port) as client:
                        out["ws"] = await outcome(client.submit)
                records = svc.flight.records()
            return out, [r.outcome for r in records]

        out, outcomes = asyncio.run(main())
        for door, got in out.items():
            assert got == (ValueError, "t_max must be non-negative"), door
        assert outcomes and set(outcomes) == {"bad_request"}


# --------------------------------------------------------------------- #
# Concurrency soak
# --------------------------------------------------------------------- #


@pytest.mark.slow
class TestConcurrencySoak:
    @pytest.mark.parametrize("n_clients", [8, 64, 256])
    def test_soak_bitwise_identity_and_exact_accounting(
        self, n_clients, expander, expander_direct
    ):
        """C concurrent WebSocket clients, each firing a burst over a hot
        source pool: all C×burst answers bitwise exact, and the wire
        counters account for every single request."""
        burst = 4
        hot = [0, 1, 2, 5, 9]  # hot-key herd: heavy dedup + cache traffic

        async def one_client(server, i):
            async with WireClient(server.host, server.port) as client:
                sources = [
                    hot[(i + j) % len(hot)] if (i + j) % 2 else
                    (i * burst + j) % expander.n
                    for j in range(burst)
                ]
                results = await asyncio.gather(
                    *(client.submit(wire_query(s)) for s in sources)
                )
                return sources, results

        async def main():
            reg = make_registry(expander)
            async with MixingService(registry=reg, window=0.002) as svc:
                async with WireServer(
                    svc, max_pending=n_clients * burst
                ) as server:
                    per_client = await asyncio.gather(
                        *(one_client(server, i) for i in range(n_clients))
                    )
                    stats = server.stats()
            return per_client, stats

        per_client, stats = asyncio.run(main())
        checked = 0
        for sources, results in per_client:
            for s, r in zip(sources, results):
                assert r == expander_direct[s], (s, r)
                checked += 1
        assert checked == n_clients * burst
        # Exact accounting: nothing lost, nothing double-counted.
        assert stats["requests"] == n_clients * burst
        assert stats["requests"] == stats["admitted"] + stats["rejected"]
        assert stats["admitted"] == (
            stats["answered"] + stats["expired"] + stats["errored"]
        )
        assert stats["rejected"] == 0
        assert stats["expired"] == 0
        assert stats["errored"] == 0
        assert stats["answered"] == n_clients * burst
        assert stats["queue_depth"] == 0
        assert stats["connections"] == 0
