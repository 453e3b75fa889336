"""End-to-end tests for live-telemetry push streaming and the enriched
health endpoint.

Covers the full operator loop over a real socket: subscribe to
``GET /v1/debug/stream``, receive versioned delta frames whose windowed
numbers stay consistent with a concurrent cumulative ``/metrics``
scrape, keep streaming while the server drains, and watch the SLO
verdict walk ok → breach → ok driven deterministically by the wire
deadline fault harness (already-expired deadlines — no timing races on
the error side, only the window aging on recovery).  The ``obs_top``
dashboard is smoke-tested as a real subprocess in ``--plain`` mode.

No pytest-asyncio in the image — each test drives its own event loop via
``asyncio.run``.
"""

import asyncio
import importlib.util
import pathlib
import sys

import pytest

from repro.engine import batched_local_mixing_times
from repro.graphs import generators as gen
from repro.obs import SLO
from repro.obs.export import TELEMETRY_VERSION
from repro.service import (
    DeadlineExceededError,
    GraphRegistry,
    MixingQuery,
    MixingService,
)
from repro.service.wire import (
    WireClient,
    WireServer,
    http_get,
    stream_telemetry,
)
from repro.service.wire import protocol

BETA = 4.0
EPS = 0.25

REPO = pathlib.Path(__file__).resolve().parent.parent


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
# GET /v1/debug/stream
# --------------------------------------------------------------------- #


class TestTelemetryStream:
    def test_frames_versioned_monotonic_and_consistent(
        self, expander, expander_direct
    ):
        """Three pushed frames: versioned envelope, strictly increasing
        ``seq``, a window whose count can never exceed the cumulative
        total from a concurrent /metrics scrape (cumulative >= windowed),
        and wire gauges that see the subscriber itself."""

        async def main():
            reg = make_registry(expander)
            async with MixingService(registry=reg, window=0.0) as svc:
                async with WireServer(svc) as server:
                    async with WireClient(
                        server.host, server.port
                    ) as client:
                        results = await asyncio.gather(
                            *(client.submit(wire_query(s))
                              for s in range(5))
                        )
                        frames = []
                        async for frame in client.stream_telemetry(
                            interval=0.05, max_frames=3
                        ):
                            frames.append(frame)
                        _status, scrape = await http_get(
                            server.host, server.port, "/metrics"
                        )
                    stats = server.stats()
            return results, frames, scrape.decode(), stats

        results, frames, scrape, stats = asyncio.run(main())
        assert results == expander_direct[:5]
        assert len(frames) == 3
        seqs = [f["seq"] for f in frames]
        assert seqs == sorted(seqs) and len(set(seqs)) == 3
        for frame in frames:
            assert frame["v"] == TELEMETRY_VERSION
            assert frame["kind"] == "telemetry"
            assert frame["unix_ts"] > 0.0
            assert frame["draining"] is False
            assert frame["window"]["count"] == 5
            assert frame["window"]["errors"] == 0
            # Windowed <= cumulative/lifetime, always.
            assert frame["window"]["count"] <= frame["window"]["total"]
            gauges = frame["gauges"]
            assert gauges["stream_subscribers"] == 1
            assert gauges["queue_depth"] == 0
            assert gauges["max_pending"] == 256
            # The query WebSocket is the only counted connection; the
            # stream subscription itself is observe-only.
            assert gauges["connections"] == 1
        # The concurrent cumulative scrape agrees: 5 queries recorded.
        assert "repro_service_query_seconds_count 5" in scrape
        assert "repro_wire_stream_subscribers 0" in scrape
        assert "repro_wire_stream_frames_total 3" in scrape
        # After teardown both sessions are gone; none ever leaked into
        # the query connection gauge.
        assert stats["connections"] == 0

    def test_stream_is_observe_only_and_counts_frames(self, expander):
        """A stream-only client never touches the query connection gauge
        or admission counters."""

        async def main():
            reg = make_registry(expander)
            async with MixingService(registry=reg, window=0.0) as svc:
                async with WireServer(svc) as server:
                    frames = []
                    async for frame in stream_telemetry(
                        server.host, server.port,
                        interval=0.05, max_frames=2,
                    ):
                        frames.append(frame)
                    stats = server.stats()
            return frames, stats

        frames, stats = asyncio.run(main())
        assert len(frames) == 2
        assert stats["connections"] == 0
        assert stats["requests"] == 0
        assert stats["stream_frames"] >= 2

    def test_stream_during_drain(self, expander, expander_direct):
        """Drain refuses new queries but the telemetry stream stays
        readable and flags ``draining`` — exactly when the operator is
        watching the queue empty out."""

        async def main():
            reg = make_registry(expander)
            async with MixingService(registry=reg, window=0.0) as svc:
                async with WireServer(svc) as server:
                    r = await asyncio.ensure_future(
                        _one_query(server, wire_query(0))
                    )
                    server._draining = True
                    try:
                        frames = []
                        async for frame in stream_telemetry(
                            server.host, server.port,
                            interval=0.05, max_frames=2,
                        ):
                            frames.append(frame)
                        status, body = await http_get(
                            server.host, server.port, "/healthz"
                        )
                    finally:
                        server._draining = False
            return r, frames, status, protocol.loads(body)

        r, frames, status, health = asyncio.run(main())
        assert r == expander_direct[0]
        assert len(frames) == 2
        assert all(f["draining"] is True for f in frames)
        assert status == 200  # draining is not dead
        assert health["status"] == "draining"
        assert health["window"]["count"] == 1

    def test_plain_get_without_upgrade_is_426(self, expander):
        async def main():
            reg = make_registry(expander)
            async with MixingService(registry=reg, window=0.0) as svc:
                async with WireServer(svc) as server:
                    return await http_get(
                        server.host, server.port, "/v1/debug/stream"
                    )

        status, body = asyncio.run(main())
        assert status == 426
        assert b"upgrade" in body.lower()

    def test_interval_is_clamped_not_rejected(self, expander):
        """A hostile ``?interval=0`` (or garbage) must not spin the
        server: the subscription still works at the clamped floor."""

        async def main():
            reg = make_registry(expander)
            async with MixingService(registry=reg, window=0.0) as svc:
                async with WireServer(svc) as server:
                    got = []
                    async for frame in stream_telemetry(
                        server.host, server.port,
                        interval=0.0, max_frames=2,
                    ):
                        got.append(frame["seq"])
                    return got

        seqs = asyncio.run(main())
        assert len(seqs) == 2


async def _one_query(server, query):
    async with WireClient(server.host, server.port) as client:
        return await client.submit(query)


# --------------------------------------------------------------------- #
# SLO ok -> breach -> ok via the deadline fault harness
# --------------------------------------------------------------------- #


class TestSLOOverWire:
    def test_slo_breach_and_recovery_via_deadline_faults(
        self, expander, expander_direct
    ):
        """Drive the verdict through a full ok → breach → ok cycle with
        already-expired deadlines (``deadline=-1.0`` → immediate
        ``deadline_exceeded``, no timing races), observed through the
        enriched /healthz and the streamed frames; recovery happens when
        the errors age past the short live window."""

        async def healthz(server):
            status, body = await http_get(
                server.host, server.port, "/healthz"
            )
            assert status == 200
            return protocol.loads(body)

        async def main():
            reg = make_registry(expander)
            async with MixingService(
                registry=reg, window=0.0,
                live_buckets=4, live_bucket_width=0.25,
                slo=SLO(
                    target_latency=30.0, availability=0.9, window=1.0
                ),
            ) as svc:
                async with WireServer(svc) as server:
                    async with WireClient(
                        server.host, server.port
                    ) as client:
                        r = await client.submit(wire_query(0))
                        ok_health = await healthz(server)
                        for _ in range(5):
                            with pytest.raises(DeadlineExceededError):
                                await client.submit(
                                    wire_query(1, deadline=-1.0)
                                )
                        breach_health = await healthz(server)
                        breach_frames = [
                            f async for f in client.stream_telemetry(
                                interval=0.05, max_frames=1
                            )
                        ]
                        # Recovery: age every error past the 1 s live
                        # window span, then land one fresh success.
                        await asyncio.sleep(1.3)
                        r2 = await client.submit(wire_query(2))
                        recovered_health = await healthz(server)
                    alerts, _seq = svc.slo_engine.alerts(0)
            return (
                r, r2, ok_health, breach_health, breach_frames,
                recovered_health, alerts,
            )

        (r, r2, ok_health, breach_health, breach_frames,
         recovered_health, alerts) = asyncio.run(main())
        assert r == expander_direct[0]
        assert r2 == expander_direct[2]

        assert ok_health["status"] == "ok"
        assert ok_health["slo"]["status"] == "ok"

        assert breach_health["status"] == "degraded"
        assert breach_health["slo"]["status"] == "breach"
        assert "availability" in breach_health["slo"]["reasons"]
        assert breach_health["slo"]["burn_rate"] > 1.0
        assert breach_health["window"]["errors"] == 5
        frame = breach_frames[0]
        assert frame["slo"]["status"] == "breach"
        # The breach transition alert rode along in the first frame.
        assert [(a["from"], a["to"]) for a in frame["alerts"]] == [
            ("ok", "breach")
        ]

        assert recovered_health["status"] == "ok"
        assert recovered_health["slo"]["status"] == "ok"
        transitions = [(a["from"], a["to"]) for a in alerts]
        assert transitions == [("ok", "breach"), ("breach", "ok")]


# --------------------------------------------------------------------- #
# Enriched /healthz
# --------------------------------------------------------------------- #


class TestHealthz:
    def test_live_fast_path_and_full_body(self, expander, expander_direct):
        async def main():
            reg = make_registry(expander)
            async with MixingService(registry=reg, window=0.0) as svc:
                async with WireServer(svc) as server:
                    r = await _one_query(server, wire_query(3))
                    _s, bare = await http_get(
                        server.host, server.port, "/healthz?live=1"
                    )
                    _s, full = await http_get(
                        server.host, server.port, "/healthz"
                    )
            return r, protocol.loads(bare), protocol.loads(full)

        r, bare, full = asyncio.run(main())
        assert r == expander_direct[3]
        # Bare liveness: constant body, no telemetry evaluation.
        assert bare == {"status": "ok"}
        assert full["status"] == "ok"
        assert full["draining"] is False
        assert full["queue_depth"] == 0
        assert full["max_pending"] == 256
        assert full["slo"] is None  # no SLO configured on this service
        assert full["window"]["count"] == 1
        assert full["window"]["errors"] == 0
        assert full["window"]["quantiles"]["p50"] is not None


# --------------------------------------------------------------------- #
# obs_top dashboard
# --------------------------------------------------------------------- #


def _load_obs_top():
    spec = importlib.util.spec_from_file_location(
        "obs_top", REPO / "tools" / "obs_top.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class TestObsTop:
    def test_render_frame_pure(self):
        obs_top = _load_obs_top()
        text = obs_top.render_frame(
            {
                "v": 2, "seq": 7, "draining": True,
                "window": {
                    "count": 12, "covered": 3.0, "rate": 4.0,
                    "errors": 2, "error_rate": 2 / 12,
                    "quantiles": {"p50": 0.002, "p95": 0.4, "p99": 1.2},
                    "keys": [
                        {"count": 10, "outcome": "ok", "graph": "gA"},
                        {"count": 2, "outcome": "deadline_exceeded",
                         "graph": None},
                    ],
                },
                "slo": {
                    "status": "breach", "slo": "api",
                    "availability": 10 / 12, "burn_rate": 1.67,
                    "error_budget": 0.0, "latency": 0.4,
                    "latency_target": 0.25,
                },
                "alerts": [
                    {"seq": 1, "slo": "api", "from": "ok", "to": "breach"}
                ],
                "gauges": {
                    "queue_depth": 1, "max_pending": 256,
                    "connections": 3, "stream_subscribers": 1,
                },
                "sampler": {
                    "loop_lag_seconds": 0.0002,
                    "rss_bytes": 48.5 * 1024 * 1024,
                    "gc_collections_gen0": 12,
                    "repro_runtime_coalescer_depth": 2,
                    "repro_runtime_inflight_batches": 1,
                },
            }
        )
        assert "seq=7" in text and "[DRAINING]" in text
        assert "12 req / 3s" in text
        assert "p95=400.0ms" in text
        assert "deadline_exceeded" in text
        assert "[BREACH]" in text and "burn=1.67" in text
        assert "ALERT    #1 api: ok -> breach" in text
        assert "queue=1/256" in text and "streams=1" in text
        assert "rss=48.5MiB" in text

    def test_render_frame_minimal(self):
        obs_top = _load_obs_top()
        text = obs_top.render_frame({"v": 2, "seq": 0})
        assert "live telemetry disabled" in text

    def test_plain_mode_subprocess_smoke(self, expander):
        """The real CLI against a real server: one frame, exit 0."""

        async def main():
            reg = make_registry(expander)
            async with MixingService(registry=reg, window=0.0) as svc:
                async with WireServer(svc) as server:
                    await _one_query(server, wire_query(0))
                    proc = await asyncio.create_subprocess_exec(
                        sys.executable, str(REPO / "tools" / "obs_top.py"),
                        server.host, str(server.port),
                        "--plain", "--frames", "1", "--interval", "0.1",
                        stdout=asyncio.subprocess.PIPE,
                        stderr=asyncio.subprocess.PIPE,
                        cwd=str(REPO),
                    )
                    out, err = await asyncio.wait_for(
                        proc.communicate(), timeout=30
                    )
            return proc.returncode, out.decode(), err.decode()

        code, out, err = asyncio.run(main())
        assert code == 0, err
        assert "obs_top  seq=" in out
        assert "1 req" in out
