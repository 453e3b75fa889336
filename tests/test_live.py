"""Unit tests for live telemetry: RollingWindow, ResourceSampler, SLO.

Everything time-dependent runs on an injected fake clock, so bucket
aging, span-restricted snapshots and SLO verdict transitions are exact
and deterministic — no sleeps.  The service-integration half checks the
window is fed from the same completion path as the flight recorder
(every outcome, error outcomes included), that results stay bitwise
identical with live telemetry on or off, and that ``telemetry()``
exposes the stream's view.  The end-to-end stream/wire tests live in
``tests/test_wire_stream.py``.
"""

import asyncio
import threading

import pytest

from repro.engine import batched_local_mixing_times
from repro.graphs import generators as gen
from repro.obs import (
    SLO,
    MetricsRegistry,
    ResourceSampler,
    RollingWindow,
    SLOEngine,
)
from repro.service import GraphRegistry, MixingQuery, MixingService

BETA = 4.0
EPS = 0.25


class FakeClock:
    """A hand-advanced monotonic clock."""

    def __init__(self, t=0.0):
        self.t = float(t)

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


@pytest.fixture(scope="module")
def expander():
    return gen.random_regular(24, 4, seed=7)


@pytest.fixture(scope="module")
def expander_direct(expander):
    return batched_local_mixing_times(expander, BETA, EPS)


def make_registry(graph):
    reg = GraphRegistry()
    reg.register("g", graph)
    return reg


# --------------------------------------------------------------------- #
# RollingWindow
# --------------------------------------------------------------------- #


class TestRollingWindow:
    def test_counts_rates_and_keys(self):
        clock = FakeClock()
        w = RollingWindow(10, width=1.0, clock=clock)
        for _ in range(20):
            w.record(0.01, graph="gA", outcome="ok")
        for _ in range(5):
            w.record(0.3, graph="gB", outcome="deadline_exceeded")
        clock.advance(4.0)
        snap = w.snapshot()
        assert snap["count"] == 25
        assert snap["errors"] == 5
        assert snap["error_rate"] == 5 / 25
        # covered = min(now - t0, span) = 4s -> rate = 25/4
        assert snap["covered"] == 4.0
        assert snap["rate"] == 25 / 4.0
        assert snap["total"] == 25
        rows = {(r["graph"], r["outcome"]): r["count"]
                for r in snap["keys"]}
        assert rows == {
            ("gA", "ok"): 20,
            ("gB", "deadline_exceeded"): 5,
        }
        # Sorted by descending count.
        assert snap["keys"][0]["count"] == 20

    def test_buckets_age_out_but_total_is_lifetime(self):
        clock = FakeClock()
        w = RollingWindow(5, width=1.0, clock=clock)
        w.record(0.01)
        clock.advance(2.0)
        w.record(0.01)
        assert w.snapshot()["count"] == 2
        clock.advance(4.0)  # first record now older than the 5s span
        snap = w.snapshot()
        assert snap["count"] == 1
        clock.advance(10.0)  # everything aged out
        snap = w.snapshot()
        assert snap["count"] == 0
        assert snap["errors"] == 0
        assert snap["quantiles"]["p50"] is None
        assert snap["total"] == 2  # lifetime count never ages out

    def test_slot_reuse_resets_stale_epochs(self):
        clock = FakeClock()
        w = RollingWindow(3, width=1.0, clock=clock)
        for _ in range(7):
            w.record(0.01)
        clock.advance(3.0)  # same slot indices, new epochs
        w.record(0.5)
        snap = w.snapshot()
        assert snap["count"] == 1
        assert snap["sum"] == 0.5

    def test_span_restricted_snapshot(self):
        clock = FakeClock()
        w = RollingWindow(10, width=1.0, clock=clock)
        w.record(0.01)  # lands in bucket 0
        clock.advance(5.0)
        for _ in range(3):
            w.record(0.01)  # bucket 5
        # Full window sees both; the trailing 2s only the recent burst.
        assert w.snapshot()["count"] == 4
        narrow = w.snapshot(span=2.0)
        assert narrow["count"] == 3
        assert narrow["span"] == 2.0

    def test_quantile_interpolation_known_values(self):
        clock = FakeClock()
        w = RollingWindow(4, width=1.0,
                          bounds=(0.1, 0.2, 0.4), clock=clock)
        # 10 obs in (0, 0.1], 10 in (0.1, 0.2]: p50 at exactly the
        # first bucket's upper bound, p75 midway into the second.
        for _ in range(10):
            w.record(0.05)
        for _ in range(10):
            w.record(0.15)
        snap = w.snapshot()
        assert snap["quantiles"]["p50"] == pytest.approx(0.1)
        assert snap["quantiles"]["p95"] == pytest.approx(
            0.1 + 0.1 * (0.95 * 20 - 10) / 10
        )
        # An observation beyond the last finite bound pins to it.
        w.record(99.0)
        assert w.snapshot()["quantiles"]["p99"] == 0.4
        assert w.quantiles()["p99"] == 0.4

    def test_latency_histogram_bounds_vocabulary(self):
        clock = FakeClock()
        w = RollingWindow(2, width=1.0, clock=clock)
        from repro.obs import Histogram

        assert w.bounds == tuple(Histogram.DEFAULT_BUCKETS)
        w.record(0.001)  # le-inclusive: lands in the first bucket
        snap = w.snapshot()
        assert snap["latency"][0] == 1
        assert snap["bounds"] == list(w.bounds)

    def test_validation(self):
        with pytest.raises(ValueError):
            RollingWindow(0)
        with pytest.raises(ValueError):
            RollingWindow(10, width=0.0)
        with pytest.raises(ValueError):
            RollingWindow(10, bounds=(0.2, 0.1))
        with pytest.raises(ValueError):
            RollingWindow(10, bounds=())

    def test_thread_hammer_exact_totals(self):
        clock = FakeClock()
        w = RollingWindow(60, width=1.0, clock=clock)
        n_threads, per_thread = 8, 500

        def hammer(i):
            for j in range(per_thread):
                w.record(
                    0.002 * (j % 7),
                    graph=f"g{i % 2}",
                    outcome="ok" if j % 5 else "unconverged",
                )

        threads = [
            threading.Thread(target=hammer, args=(i,))
            for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = w.snapshot()
        assert snap["count"] == n_threads * per_thread
        assert snap["errors"] == n_threads * (per_thread // 5)
        assert sum(r["count"] for r in snap["keys"]) == snap["count"]
        assert sum(snap["latency"]) == snap["count"]

    def test_stats_shape(self):
        w = RollingWindow(6, width=0.5)
        w.record(0.01)
        assert w.stats() == {
            "total": 1, "buckets": 6, "width": 0.5, "span": 3.0,
        }


# --------------------------------------------------------------------- #
# ResourceSampler
# --------------------------------------------------------------------- #


class TestResourceSampler:
    def test_sample_once_values_and_gauges(self):
        reg = MetricsRegistry()
        depth = {"value": 7}
        s = ResourceSampler(
            interval=0.5,
            registry=reg,
            sources={"repro_test_depth": lambda: depth["value"]},
        )
        values = s.sample_once(0.0125)
        assert values["loop_lag_seconds"] == 0.0125
        assert values["rss_bytes"] > 0  # /proc/self/statm exists on linux
        assert values["repro_test_depth"] == 7.0
        assert "gc_objects_gen0" in values
        assert "gc_collections_gen2" in values
        assert s.values() == values
        snap = reg.snapshot()
        assert snap["repro_runtime_loop_lag_seconds"]["series"][0][
            "value"] == 0.0125
        assert snap["repro_test_depth"]["series"][0]["value"] == 7.0
        assert snap["repro_runtime_samples_total"]["series"][0]["value"] == 1
        depth["value"] = 9
        assert s.sample_once()["repro_test_depth"] == 9.0

    def test_failing_source_samples_zero(self):
        def boom():
            raise RuntimeError("gauge exploded")

        s = ResourceSampler(interval=1.0, sources={"repro_test_bad": boom})
        assert s.sample_once()["repro_test_bad"] == 0.0

    def test_background_task_lifecycle(self):
        async def main():
            s = ResourceSampler(interval=0.02)
            assert not s.running
            assert s.values() == {}  # no tick yet
            s.start()
            assert s.running
            assert s.values() != {}  # start() takes an immediate sample
            first = s.values()
            for _ in range(100):
                await asyncio.sleep(0.01)
                if s.metrics.counter(
                    "repro_runtime_samples_total"
                ).value > 1:
                    break
            assert s.metrics.counter(
                "repro_runtime_samples_total"
            ).value > 1
            await s.aclose()
            assert not s.running
            await s.aclose()  # idempotent
            return first

        first = asyncio.run(main())
        assert "rss_bytes" in first

    def test_validation(self):
        with pytest.raises(ValueError):
            ResourceSampler(interval=0.0)


# --------------------------------------------------------------------- #
# SLO engine
# --------------------------------------------------------------------- #


def make_engine(clock, *, availability=0.9, target_latency=0.5,
                window=10.0, **kw):
    w = RollingWindow(10, width=1.0, clock=clock)
    slo = SLO(
        target_latency=target_latency,
        availability=availability,
        window=window,
        **kw,
    )
    return w, SLOEngine(slo, w, clock=clock)


class TestSLO:
    def test_validation(self):
        with pytest.raises(ValueError):
            SLO(target_latency=0.0, availability=0.99)
        with pytest.raises(ValueError):
            SLO(target_latency=0.5, availability=1.0)
        with pytest.raises(ValueError):
            SLO(target_latency=0.5, availability=0.99, window=0.0)
        with pytest.raises(ValueError):
            SLO(target_latency=0.5, availability=0.99, quantile=1.5)
        with pytest.raises(ValueError):
            SLO(target_latency=0.5, availability=0.99, warn_burn=0.0)
        with pytest.raises(ValueError):
            SLO(target_latency=0.5, availability=0.99,
                warn_latency_ratio=0.0)

    def test_empty_window_is_vacuously_ok(self):
        clock = FakeClock()
        _w, eng = make_engine(clock)
        v = eng.evaluate()
        assert v.status == "ok"
        assert v.count == 0
        assert v.latency is None
        assert v.error_budget == 1.0
        assert v.rank == 0

    def test_availability_breach_and_burn_math(self):
        clock = FakeClock()
        w, eng = make_engine(clock, availability=0.9)
        for _ in range(16):
            w.record(0.01)
        for _ in range(4):
            w.record(0.01, outcome="unconverged")
        v = eng.evaluate()
        # error rate 0.2 > budget 0.1 -> breach; burn = 0.2/0.1 = 2.
        assert v.status == "breach"
        assert "availability" in v.reasons
        assert v.availability == pytest.approx(0.8)
        assert v.burn_rate == pytest.approx(2.0)
        assert v.error_budget == 0.0

    def test_latency_breach(self):
        clock = FakeClock()
        w, eng = make_engine(clock, target_latency=0.05)
        for _ in range(20):
            w.record(0.3)  # p95 lands way over 50ms
        v = eng.evaluate()
        assert v.status == "breach"
        assert v.reasons == ("latency",)
        assert v.latency > 0.05

    def test_warn_on_burn_rate_before_breach(self):
        clock = FakeClock()
        w, eng = make_engine(clock, availability=0.9, warn_burn=0.5)
        # error rate 6% < 10% budget, but burn 0.6 >= warn_burn 0.5.
        for _ in range(94):
            w.record(0.01)
        for _ in range(6):
            w.record(0.01, outcome="unconverged")
        v = eng.evaluate()
        assert v.status == "warn"
        assert "burn_rate" in v.reasons
        assert 0.0 < v.error_budget < 1.0

    def test_warn_on_latency_approach(self):
        clock = FakeClock()
        w, eng = make_engine(
            clock, target_latency=0.6, warn_latency_ratio=0.5
        )
        for _ in range(20):
            w.record(0.45)  # > 0.3 warn line, < 0.6 target
        v = eng.evaluate()
        assert v.status == "warn"
        assert "latency_warn" in v.reasons

    def test_transition_alerts_and_cursor(self):
        clock = FakeClock()
        w, eng = make_engine(clock, availability=0.9, window=5.0)
        assert eng.evaluate().status == "ok"
        alerts, cursor = eng.alerts(0)
        assert alerts == [] and cursor == 0  # ok -> ok: no event
        for _ in range(10):
            w.record(0.01, outcome="unconverged")
        assert eng.evaluate().status == "breach"
        assert eng.evaluate().status == "breach"  # steady: no new event
        alerts, cursor = eng.alerts(cursor)
        assert [(a["from"], a["to"]) for a in alerts] == [("ok", "breach")]
        assert alerts[0]["unix_ts"] == clock.t
        # Recovery: age the errors out past the SLO window.
        clock.advance(20.0)
        w.record(0.01)
        assert eng.evaluate().status == "ok"
        alerts, cursor = eng.alerts(cursor)
        assert [(a["from"], a["to"]) for a in alerts] == [("breach", "ok")]
        # Cursor is exactly-once: nothing new without a transition.
        assert eng.alerts(cursor)[0] == []
        assert eng.last_status == "ok"
        assert eng.stats()["status"] == "ok"
        assert eng.stats()["seq"] == 2

    def test_alert_ring_is_bounded(self):
        clock = FakeClock()
        w = RollingWindow(10, width=1.0, clock=clock)
        slo = SLO(target_latency=0.5, availability=0.9, window=2.0)
        eng = SLOEngine(slo, w, alert_capacity=4, clock=clock)
        for _ in range(6):  # each flip ok->breach->ok... is one alert
            for _ in range(5):
                w.record(0.01, outcome="unconverged")
            eng.evaluate()
            clock.advance(15.0)
            eng.evaluate()
        alerts, seq = eng.alerts(0)
        assert len(alerts) == 4  # oldest evicted
        assert seq == 12
        assert eng.stats()["alerts"] == 4

    def test_gauges_published(self):
        clock = FakeClock()
        reg = MetricsRegistry()
        w = RollingWindow(10, width=1.0, clock=clock)
        eng = SLOEngine(
            SLO(target_latency=0.5, availability=0.9, name="api"),
            w, registry=reg, clock=clock,
        )
        for _ in range(5):
            w.record(0.01, outcome="unconverged")
        eng.evaluate()
        snap = reg.snapshot()
        series = snap["repro_slo_status"]["series"][0]
        assert series["labels"] == {"slo": "api"}
        assert series["value"] == 2  # breach
        assert snap["repro_slo_alerts_total"]["series"][0]["value"] == 1
        assert snap["repro_slo_burn_rate"]["series"][0]["value"] > 1.0


# --------------------------------------------------------------------- #
# Service integration
# --------------------------------------------------------------------- #


class TestServiceLiveTelemetry:
    def test_window_fed_for_every_outcome(self, expander, expander_direct):
        async def main():
            reg = make_registry(expander)
            async with MixingService(registry=reg, window=0.0) as svc:
                r = await svc.submit(
                    MixingQuery("g", 0, beta=BETA, eps=EPS)
                )
                with pytest.raises(KeyError):
                    await svc.submit(
                        MixingQuery("missing", 0, beta=BETA, eps=EPS)
                    )
                return r, svc.live.snapshot(), svc.stats()

        r, snap, stats = asyncio.run(main())
        assert r == expander_direct[0]
        assert snap["count"] == 2
        assert snap["errors"] == 1
        outcomes = {row["outcome"] for row in snap["keys"]}
        assert outcomes == {"ok", "not_found"}
        ok_row = next(
            row for row in snap["keys"] if row["outcome"] == "ok"
        )
        assert ok_row["graph"] is not None  # same structural key family
        assert stats["live"]["total"] == 2

    def test_disabled_and_identity_on_off(self, expander, expander_direct):
        async def run(live_buckets):
            reg = make_registry(expander)
            async with MixingService(
                registry=reg, window=0.0, cache_size=0,
                live_buckets=live_buckets,
            ) as svc:
                results = [
                    await svc.submit(MixingQuery("g", s, beta=BETA, eps=EPS))
                    for s in range(6)
                ]
                return results, svc.live, svc.stats()

        on, live_on, stats_on = asyncio.run(run(60))
        off, live_off, stats_off = asyncio.run(run(0))
        assert on == off == expander_direct[:6]
        assert live_on.stats()["total"] == 6
        assert live_off is None
        assert "live" in stats_on and "live" not in stats_off

    def test_slo_requires_live(self):
        with pytest.raises(ValueError):
            MixingService(
                live_buckets=0,
                slo=SLO(target_latency=0.5, availability=0.99),
            )

    def test_telemetry_and_sampler_lifecycle(self, expander):
        async def main():
            reg = make_registry(expander)
            svc = MixingService(
                registry=reg, window=0.0,
                slo=SLO(target_latency=30.0, availability=0.5),
                sampler_interval=0.05,
            )
            assert svc.sampler is None  # lazy: starts with first submit
            async with svc:
                await svc.submit(MixingQuery("g", 1, beta=BETA, eps=EPS))
                assert svc.sampler is not None and svc.sampler.running
                tel = svc.telemetry()
                sampler = svc.sampler
            return tel, sampler

        tel, sampler = asyncio.run(main())
        assert tel["window"]["count"] == 1
        assert tel["slo"]["status"] == "ok"
        assert tel["sampler"]["rss_bytes"] > 0
        assert "repro_runtime_coalescer_depth" in tel["sampler"]
        assert "repro_runtime_inflight_batches" in tel["sampler"]
        assert not sampler.running  # aclose stopped it

    def test_telemetry_with_everything_disabled(self, expander):
        async def main():
            reg = make_registry(expander)
            async with MixingService(
                registry=reg, window=0.0, live_buckets=0
            ) as svc:
                await svc.submit(MixingQuery("g", 0, beta=BETA, eps=EPS))
                return svc.telemetry()

        tel = asyncio.run(main())
        assert tel == {"window": None, "slo": None, "sampler": None}
