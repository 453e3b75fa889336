"""O2 — live telemetry overhead: window + SLO + sampler + one subscriber.

Claims (live telemetry subsystem, this PR's tentpole):

1. **Identity** — the E1 all-sources workload served through
   :class:`~repro.service.MixingService` answers bitwise identically
   with the full live-telemetry stack enabled (60×1 s rolling window,
   SLO engine, runtime resource sampler, and one real WebSocket
   subscriber on ``/v1/debug/stream``) and with all of it disabled
   (``live_buckets=0``).  The window records on the completion path and
   the stream only *reads* — neither ever enters the computation.
2. **Overhead** — the enabled stack costs **< 3 %** wall clock against
   the disabled path on the same workload, timed min-of-``2·REPEATS``
   with alternating pair order (same protocol as the O1 flight-recorder
   gate: alternation cancels drift bias, the minimum shrugs scheduler
   spikes).  The subscriber is live *while the queries run* — the gate
   prices the telemetry an operator would actually have open.
3. **Coverage** — the paid-for telemetry exists: the window holds one
   observation per query with interpolated quantiles, the SLO verdict
   evaluates over real traffic, the sampler has published runtime
   gauges, and the subscriber received at least one versioned frame.

Quick mode (``REPRO_BENCH_QUICK=1``, the CI smoke) shrinks the instance;
the identity and overhead gates run everywhere.
"""

import asyncio

from repro.engine import batched_local_mixing_times
from repro.graphs import random_regular
from repro.obs import SLO, BenchReporter
from repro.obs.export import TELEMETRY_VERSION
from repro.service import GraphRegistry, MixingQuery, MixingService
from repro.service.wire import WireServer, stream_telemetry
from repro.utils import format_table

BETA = 4
REPEATS = 3
OVERHEAD_GATE = 0.03


async def _drain_stream(server, frames):
    """One live subscriber: consume pushed frames for as long as the
    serving run lasts, collecting them into ``frames``."""
    async for frame in stream_telemetry(
        server.host, server.port, interval=0.1
    ):
        frames.append(frame)


def serve_all_sources(g, *, telemetry: bool):
    """Answer the all-sources E1 workload through a fresh MixingService
    behind a WireServer (cache off, immediate flush — every query costs
    its own solve).  ``telemetry=True`` turns on the full live stack —
    window, SLO engine, resource sampler — and keeps one WebSocket
    stream subscriber attached for the duration; ``False`` disables all
    of it.  Returns (results, closed service, received frames)."""

    async def main():
        reg = GraphRegistry()
        reg.register("g", g)
        kw = dict(
            registry=reg, window=0.0, cache_size=0, flight_capacity=0
        )
        if telemetry:
            kw.update(
                live_buckets=60,
                sampler_interval=0.25,
                slo=SLO(target_latency=60.0, availability=0.5),
            )
        else:
            kw["live_buckets"] = 0
        frames = []
        async with MixingService(**kw) as svc:
            async with WireServer(svc) as server:
                sub = None
                if telemetry:
                    sub = asyncio.ensure_future(
                        _drain_stream(server, frames)
                    )
                results = [
                    await svc.submit(MixingQuery("g", s, beta=BETA))
                    for s in range(g.n)
                ]
                if sub is not None:
                    sub.cancel()
                    try:
                        await sub
                    except asyncio.CancelledError:
                        pass
        return results, svc, frames

    return asyncio.run(main())


def test_o2_live_telemetry_overhead(record_table, quick_mode):
    n, d = (120, 6) if quick_mode else (400, 8)
    g = random_regular(n, d, seed=1)
    rep = BenchReporter("o2_live")
    direct = batched_local_mixing_times(g, BETA)

    serve_all_sources(g, telemetry=False)  # warm-up: caches, pools

    # Same protocol as the O1 flight gate: alternating pair order
    # cancels slow drift, min-of-N shrugs scheduler spikes.
    repeats = 2 * REPEATS
    res_on = res_off = svc_on = frames_on = None
    for i in range(repeats):
        modes = [("off", False), ("on", True)]
        if i % 2:
            modes.reverse()
        for label, enabled in modes:
            with rep.section(f"live_{label}:rep{i}"):
                res, svc, frames = serve_all_sources(g, telemetry=enabled)
            if enabled:
                res_on, svc_on, frames_on = res, svc, frames
            else:
                res_off = res
    t_off = min(rep.seconds(f"live_off:rep{i}") for i in range(repeats))
    t_on = min(rep.seconds(f"live_on:rep{i}") for i in range(repeats))

    # Identity: live telemetry is a pure observer — on, off, and the
    # direct engine call all agree bitwise.
    assert res_on == res_off == direct, (
        "results diverged between live telemetry on / off / direct"
    )

    overhead = t_on / t_off - 1.0
    assert overhead < OVERHEAD_GATE, (
        f"live telemetry overhead {overhead:+.1%} breaches the "
        f"{OVERHEAD_GATE:.0%} gate (off {t_off:.3f}s, on {t_on:.3f}s, "
        f"min of {repeats})"
    )

    # Coverage: the paid-for telemetry exists.
    window = svc_on.live.snapshot()
    assert window["total"] == g.n  # one observation per query, lifetime
    assert window["quantiles"]["p50"] is not None
    verdict = svc_on.slo_engine.evaluate()
    assert verdict.status == "ok"  # generous SLO: healthy traffic
    sampler = svc_on.sampler.values()
    assert sampler["rss_bytes"] > 0
    assert "repro_runtime_coalescer_depth" in sampler
    assert frames_on, "the stream subscriber received no frames"
    assert all(f["v"] == TELEMETRY_VERSION for f in frames_on)
    assert frames_on[-1]["gauges"]["stream_subscribers"] == 1

    table = format_table(
        ["mode", f"wall s (min of {repeats})", "overhead", "frames"],
        [
            ["telemetry off", f"{t_off:.3f}", "-", "-"],
            [
                "telemetry on", f"{t_on:.3f}", f"{overhead:+.1%}",
                str(len(frames_on)),
            ],
        ],
        title=(
            f"O2: live-telemetry overhead (window + SLO + sampler + one "
            f"stream subscriber), E1 workload via MixingService "
            f"(n={g.n}, d={d}, tau(beta={BETA})) — bitwise identity "
            f"asserted, gate < {OVERHEAD_GATE:.0%}"
        ),
    )
    record_table("o2_live", table, metrics=rep.snapshot())
