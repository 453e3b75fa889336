"""Flight recorder tests: the ring contracts, the service feed, and the
stable JSON export.

Three layers, matching the module split:

* :class:`repro.obs.flight.FlightRecorder` in isolation — exact record
  accounting through wraparound and a multi-thread hammer, the slow-ring
  admission/ordering rules, trace-id lookup across both rings, filters,
  and the ``capacity=0`` kill switch.
* The :class:`~repro.service.MixingService` feed — every completed query
  (successes *and* typed failures) leaves exactly one record with the
  right outcome / cache disposition, stage timings and batch facts
  appear when tracing is on, and **results are bitwise identical with
  the recorder on or off** (the purity half of the contract).
* :mod:`repro.obs.export` — the dict → JSON → dict round trip is bitwise
  over awkward floats, listing payloads are bounded server-side, and the
  trace payload embeds the span timeline.

No pytest-asyncio in the image — service tests drive their own event
loop via ``asyncio.run``.
"""

import asyncio
import json
import threading
from collections import namedtuple

import pytest

from repro.engine import batched_local_mixing_times
from repro.graphs import generators as gen
from repro.obs import (
    FlightRecorder,
    QueryRecord,
    flight_payload,
    graph_key,
    observability,
    record_to_dict,
    slow_payload,
    trace_payload,
)
from repro.obs.export import (
    DEFAULT_EXPORT_RECORDS,
    EXPORT_VERSION,
    MAX_EXPORT_RECORDS,
    knobs_to_dict,
)
from repro.service import (
    DeadlineExceededError,
    GraphRegistry,
    MixingQuery,
    MixingService,
)

BETA = 4.0
EPS = 0.25


def make_rec(i, *, duration=0.0, graph="g", outcome="ok"):
    return QueryRecord(
        trace_id=f"q-{i}",
        graph=graph,
        source=i,
        outcome=outcome,
        duration=duration,
    )


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


def query(source, **overrides):
    kw = dict(beta=BETA, eps=EPS)
    kw.update(overrides)
    return MixingQuery("g", source, **kw)


# --------------------------------------------------------------------- #
# The ring in isolation
# --------------------------------------------------------------------- #


class TestRing:
    def test_wraparound_keeps_newest_and_counts_everything(self):
        fr = FlightRecorder(8)
        for i in range(20):
            fr.record(make_rec(i))
        got = fr.records()
        assert [r.source for r in got] == list(range(19, 11, -1))
        st = fr.stats()
        assert st["records"] == 20
        assert st["retained"] == 8
        assert st["capacity"] == 8

    def test_capacity_zero_disables_everything(self):
        fr = FlightRecorder(0)
        assert not fr.enabled
        fr.record(make_rec(0, duration=99.0, outcome="bad_request"))
        st = fr.stats()
        assert st["records"] == 0
        assert st["slow"] == 0
        assert st["errors"] == 0
        assert fr.records() == []
        assert fr.slow_records() == []
        assert fr.get("q-0") is None

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            FlightRecorder(-1)
        with pytest.raises(ValueError):
            FlightRecorder(4, slow_capacity=0)
        with pytest.raises(ValueError):
            FlightRecorder(4, slow_threshold=-0.1)

    def test_slow_ring_admission_ordering_and_bound(self):
        fr = FlightRecorder(64, slow_threshold=0.5, slow_capacity=3)
        fr.record(make_rec(0, duration=0.4))  # below threshold
        fr.record(make_rec(1, duration=0.5))  # edge: admitted (>=)
        fr.record(make_rec(2, duration=2.0))
        fr.record(make_rec(3, duration=1.0))
        fr.record(make_rec(4, duration=1.0))  # tie with 3: newer first
        # slow_capacity=3 evicted the oldest slow record (source 1).
        slow = fr.slow_records()
        assert [r.source for r in slow] == [2, 4, 3]
        st = fr.stats()
        assert st["slow"] == 4  # the counter saw all admissions
        assert st["slow_retained"] == 3
        assert [r.source for r in fr.slow_records(2)] == [2, 4]

    def test_filters_and_limits(self):
        fr = FlightRecorder(32)
        fr.record(make_rec(0, graph="a"))
        fr.record(make_rec(1, graph="b"))
        fr.record(make_rec(2, graph="a", outcome="deadline_exceeded"))
        assert [r.source for r in fr.records(graph="a")] == [2, 0]
        assert [r.source for r in fr.records(outcome="ok")] == [1, 0]
        assert [
            r.source for r in fr.records(graph="b", outcome="ok")
        ] == [1]
        assert [r.source for r in fr.records(1, graph="a")] == [2]
        assert fr.stats()["errors"] == 1

    def test_negative_limit_rejected_zero_limit_empty(self):
        """Regression: ``limit=-1`` used to slice ``out[:-1]`` and silently
        drop the last record."""
        fr = FlightRecorder(32, slow_threshold=0.5)
        for i in range(3):
            fr.record(make_rec(i, duration=1.0))
        for listing in (fr.records, fr.slow_records):
            assert len(listing()) == 3
            assert listing(0) == []
            with pytest.raises(ValueError, match="limit"):
                listing(-1)

    def test_get_covers_both_rings(self):
        fr = FlightRecorder(2, slow_threshold=0.5, slow_capacity=8)
        fr.record(make_rec(0, duration=1.0))
        fr.record(make_rec(1))
        fr.record(make_rec(2))  # source 0 rolls off the main ring...
        assert fr.get("q-1").source == 1
        assert fr.get("q-0").duration == 1.0  # ...but survives in slow
        assert fr.get("q-999") is None
        fr.clear()
        assert fr.records() == [] and fr.slow_records() == []
        assert fr.stats()["records"] == 3  # totals are monotonic

    def test_thread_hammer_exact_accounting(self):
        """8 threads × 200 appends racing reads: totals exact, retention
        at the bound, every retained record intact."""
        fr = FlightRecorder(64, slow_threshold=0.5)
        n_threads, per_thread = 8, 200
        start = threading.Barrier(n_threads)

        def writer(t):
            start.wait()
            for j in range(per_thread):
                # Every 4th record is slow — deterministic slow count.
                dur = 1.0 if j % 4 == 0 else 0.0
                fr.record(make_rec(t * per_thread + j, duration=dur))
                if j % 32 == 0:  # readers race the appends
                    fr.records(8)
                    fr.slow_records(8)
                    fr.stats()

        threads = [
            threading.Thread(target=writer, args=(t,))
            for t in range(n_threads)
        ]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        st = fr.stats()
        assert st["records"] == n_threads * per_thread
        assert st["slow"] == n_threads * per_thread // 4
        assert st["retained"] == 64
        got = fr.records()
        assert len(got) == 64
        for rec in got:
            assert rec.trace_id == f"q-{rec.source}"

    def test_graph_key_is_structural_and_memoized(self, expander):
        key = graph_key(expander)
        assert key.startswith(f"{expander.n}n:")
        assert graph_key(expander) is key  # memoized on the object
        twin = gen.random_regular(24, 4, seed=7)
        assert graph_key(twin) == key  # equal structure, equal key
        other = gen.random_regular(24, 4, seed=8)
        assert graph_key(other) != key


# --------------------------------------------------------------------- #
# The service feed
# --------------------------------------------------------------------- #


class TestServiceFeed:
    def test_outcomes_and_cache_dispositions(self, expander, expander_direct):
        """miss → hit → inflight_dedup, plus typed failures: every
        completed query leaves exactly one record with the right outcome
        and disposition."""

        async def main():
            reg = make_registry(expander)
            async with MixingService(registry=reg, window=0.02) as svc:
                r0 = await svc.submit(query(0))        # miss
                r0b = await svc.submit(query(0))       # hit
                herd = await asyncio.gather(           # 1 miss + dedup
                    *(svc.submit(query(1)) for _ in range(4))
                )
                with pytest.raises(KeyError):
                    await svc.submit(
                        MixingQuery("nope", 0, beta=BETA, eps=EPS)
                    )
                with pytest.raises(DeadlineExceededError):
                    await svc.submit(query(2, deadline=-1.0))
                return r0, r0b, herd, svc.flight.records(), svc.stats()

        r0, r0b, herd, records, stats = asyncio.run(main())
        assert r0 == r0b == expander_direct[0]
        assert all(r == expander_direct[1] for r in herd)
        # One record per completed query, newest first.
        assert len(records) == 8
        by_outcome = {}
        for rec in records:
            by_outcome.setdefault(rec.outcome, []).append(rec)
        assert len(by_outcome["ok"]) == 6
        assert len(by_outcome["not_found"]) == 1
        assert len(by_outcome["deadline_exceeded"]) == 1
        dispositions = [r.cache for r in by_outcome["ok"]]
        assert dispositions.count("miss") == 2
        assert dispositions.count("hit") == 1
        assert dispositions.count("inflight_dedup") == 3
        gkey = graph_key(expander)
        for rec in by_outcome["ok"]:
            assert rec.graph == gkey
            assert rec.trace_id.startswith("q-")
            assert rec.knobs is not None
            assert rec.duration >= 0.0 and rec.unix_ts > 0.0
        # The typed failures resolved their graph (or didn't) as far as
        # they got before raising.
        assert by_outcome["not_found"][0].graph is None
        assert stats["flight"]["records"] == 8
        assert stats["flight"]["errors"] == 2

    def test_stages_batch_and_span_under_tracing(
        self, expander, expander_direct
    ):
        async def main():
            reg = make_registry(expander)
            async with MixingService(registry=reg, window=0.02) as svc:
                with observability(True):
                    r = await svc.submit(query(3))
                return r, svc.flight.records(1)[0]

        r, rec = asyncio.run(main())
        assert r == expander_direct[3]
        assert rec.span is not None and rec.span.name == "query"
        assert "coalesced_batch" in rec.stages
        assert "engine_solve" in rec.stages
        assert rec.batch is not None and rec.batch["sources"] == 1
        assert all(v >= 0.0 for v in rec.stages.values())

    def test_tracing_off_records_are_lean(self, expander):
        async def main():
            reg = make_registry(expander)
            async with MixingService(registry=reg, window=0.0) as svc:
                await svc.submit(query(5))
                return svc.flight.records(1)[0]

        rec = asyncio.run(main())
        assert rec.span is None
        assert rec.stages == {} and rec.kernels == {}
        assert rec.batch is None
        assert rec.outcome == "ok" and rec.cache == "miss"

    @pytest.mark.parametrize("overrides", [{}, {"batch_size": 3}])
    def test_recorder_on_off_bitwise_identity(
        self, expander, expander_direct, overrides
    ):
        """flight_capacity=0 (recorder off) vs the default: the answers
        are bitwise identical — recording never touches the
        computation."""

        async def run(flight_capacity):
            reg = make_registry(expander)
            async with MixingService(
                registry=reg, window=0.0, cache_size=0,
                flight_capacity=flight_capacity,
            ) as svc:
                results = [
                    await svc.submit(query(s, **overrides))
                    for s in range(8)
                ]
                return results, svc.flight.stats()["records"]

        on, n_on = asyncio.run(run(1024))
        off, n_off = asyncio.run(run(0))
        assert on == off
        assert n_on == 8 and n_off == 0
        if not overrides:
            assert on == expander_direct[:8]


# --------------------------------------------------------------------- #
# Export schema
# --------------------------------------------------------------------- #


class TestExport:
    def test_record_dict_json_round_trip_is_bitwise(self):
        Knobs = namedtuple("Knobs", ["beta", "eps", "sizes"])
        rec = QueryRecord(
            trace_id="q-7",
            graph="24n:deadbeef",
            source=3,
            outcome="ok",
            duration=0.1 + 0.2,  # 0.30000000000000004: repr must survive
            knobs=Knobs(beta=4.0, eps=1e-17, sizes=(1, 2, 4)),
            cache="miss",
            batch={"sources": 2, "trigger": "window_flushes"},
            kernels={"float64/step": {"calls": 3, "seconds": 2**-29}},
            stages={"engine_solve": 5e-324},  # smallest subnormal
            priority=2,
            deadline=0.25,
            unix_ts=1.7e308,
        )
        d = record_to_dict(rec)
        back = json.loads(json.dumps(d))
        assert back == d  # == on floats is bitwise for non-NaN values
        assert back["duration"] == 0.30000000000000004
        assert back["knobs"] == {
            "beta": 4.0, "eps": 1e-17, "sizes": [1, 2, 4],
        }
        assert back["stages"]["engine_solve"] == 5e-324
        assert "spans" not in d  # bulk listings never embed the timeline

    def test_knobs_to_dict_passthrough_and_none(self):
        assert knobs_to_dict(None) is None
        assert knobs_to_dict({"beta": 4.0}) == {"beta": 4.0}

    def test_listing_payloads_are_bounded(self):
        fr = FlightRecorder(2 * MAX_EXPORT_RECORDS)
        for i in range(2 * MAX_EXPORT_RECORDS):
            fr.record(make_rec(i, duration=1.0))
        default = flight_payload(fr)
        assert default["v"] == EXPORT_VERSION and default["kind"] == "flight"
        assert len(default["records"]) == DEFAULT_EXPORT_RECORDS
        assert default["stats"]["records"] == 2 * MAX_EXPORT_RECORDS
        greedy = flight_payload(fr, limit=10 ** 9)
        assert len(greedy["records"]) == MAX_EXPORT_RECORDS
        assert len(flight_payload(fr, limit=-5)["records"]) == 0
        slow = slow_payload(fr, limit=10 ** 9)
        assert slow["kind"] == "slow"
        assert len(slow["records"]) == MAX_EXPORT_RECORDS
        json.dumps(default), json.dumps(slow)  # JSON-ready end to end

    def test_trace_payload_embeds_spans_or_none(self, expander):
        async def main():
            reg = make_registry(expander)
            async with MixingService(registry=reg, window=0.0) as svc:
                with observability(True):
                    await svc.submit(query(4))
                return svc.flight

        flight = asyncio.run(main())
        rec = flight.records(1)[0]
        payload = trace_payload(flight, rec.trace_id)
        assert payload["v"] == EXPORT_VERSION and payload["kind"] == "trace"
        spans = payload["record"]["spans"]
        assert spans["name"] == "query"
        assert any(
            child["name"] == "coalesced_batch" for child in spans["children"]
        )
        json.dumps(payload)
        assert trace_payload(flight, "q-unknown") is None
