"""The observability layer: metrics registry, tracing, kernel profiling.

Two contracts dominate:

1. **Purity** — observability never changes results.  Every
   result-producing path (times / profiles / spectra drivers, serial
   and sharded) is bitwise identical with the switch enabled and
   disabled, and the kernel timing closures delegate calls untouched.
2. **Fidelity** — what the registry reports is exactly what happened:
   counters survive a multi-thread hammer with exact totals, histogram
   buckets follow Prometheus ``le`` (inclusive) semantics, spans nest in
   call order, and worker-process spans/kernel profiles aggregate into
   the parent trace at every worker count under both start methods.
"""

from __future__ import annotations

import asyncio
import re
import threading

import numpy as np
import pytest

from repro.engine import (
    batched_local_mixing_profiles,
    batched_local_mixing_spectra,
    batched_local_mixing_times,
    canonical_times_key,
)
from repro.engine import batch as engine_batch
from repro.dynamic import barbell_bridge_schedule, track_local_mixing
from repro.graphs import path_graph, random_regular
from repro.obs import (
    BenchReporter,
    Counter,
    Gauge,
    Histogram,
    KERNEL_LABEL,
    KernelProfiler,
    MetricsRegistry,
    Span,
    attach_or_record,
    clear_traces,
    current_span,
    default_registry,
    diff_kernel_snapshots,
    kernel_profiler,
    machine_fingerprint,
    observability,
    observability_enabled,
    recent_traces,
    set_observability,
    start_span,
    trace,
    use_span,
)
from repro.parallel import ShardExecutor, parallel_local_mixing_times
from repro.service import DeadlineExceededError, MixingQuery, MixingService

BETA = 4.0


@pytest.fixture(autouse=True)
def _obs_reset():
    """Every test starts disabled with an empty trace sink, and leaves
    the global switch the way it found it."""
    prev = set_observability(False)
    clear_traces()
    yield
    set_observability(prev)
    clear_traces()


@pytest.fixture(scope="module")
def small_graph():
    return random_regular(40, 4, seed=3)


# --------------------------------------------------------------------- #
# Metrics primitives
# --------------------------------------------------------------------- #


def test_counter_monotone():
    reg = MetricsRegistry()
    c = reg.counter("repro_test_events_total", "Test events.")
    assert c.value == 0
    c.inc()
    c.inc(4)
    assert c.value == 5
    with pytest.raises(ValueError):
        c.inc(-1)
    # Idempotent get-or-create returns the same object.
    assert reg.counter("repro_test_events_total") is c


def test_gauge_set_inc_and_high_water():
    reg = MetricsRegistry()
    g = reg.gauge("repro_test_depth", "Test depth.")
    g.set(3.0)
    g.inc(-1.5)
    assert g.value == 1.5
    g.set_max(7)
    g.set_max(2)  # lower values never win
    assert g.value == 7


def test_histogram_bucket_boundaries_are_le_inclusive():
    reg = MetricsRegistry()
    h = reg.histogram(
        "repro_test_seconds", "Test latency.", buckets=(1.0, 2.0)
    )
    h.observe(1.0)  # exactly on the edge: counts into le=1.0
    h.observe(1.5)
    h.observe(9.0)  # beyond the last bucket: +Inf only
    assert h.count == 3
    assert h.sum == pytest.approx(11.5)
    # Cumulative per-bucket counts, trailing +Inf included.
    assert h.cumulative_counts() == [1, 2, 3]
    snap = reg.snapshot()["repro_test_seconds"]["series"][0]
    assert snap["buckets"] == {"1.0": 1, "2.0": 2, "+Inf": 3}
    with pytest.raises(ValueError):
        reg.histogram(
            "repro_test_bad", "Not increasing.", buckets=(2.0, 1.0)
        )


def test_histogram_exemplars_last_wins_snapshot_only():
    reg = MetricsRegistry()
    h = reg.histogram(
        "repro_test_tagged_seconds", "Ex.", buckets=(1.0, 2.0)
    )
    h.observe(0.5)  # exemplar-less observations are untagged
    h.observe(0.7, exemplar="q-1")
    h.observe(0.9, exemplar="q-2")  # same bucket: last observation wins
    h.observe(1.5, exemplar="q-3")
    h.observe(9.0, exemplar="q-4")  # overflow bucket
    assert h.exemplars() == {"1.0": "q-2", "2.0": "q-3", "+Inf": "q-4"}
    assert h.count == 5  # tagging never perturbs the counts
    snap = reg.snapshot()["repro_test_tagged_seconds"]["series"][0]
    assert snap["exemplars"] == {"1.0": "q-2", "2.0": "q-3", "+Inf": "q-4"}
    # Exemplars live in the JSON view only: the Prometheus text render
    # carries no trace ids and still parses clean.
    text = reg.render()
    assert "q-2" not in text and 'le="1.0"} 3' in text
    _assert_prometheus_parseable(text)
    # A histogram that never saw an exemplar omits the key entirely.
    h2 = reg.histogram("repro_test_noex_seconds", "Plain.", buckets=(1.0,))
    h2.observe(0.5)
    assert "exemplars" not in reg.snapshot()[
        "repro_test_noex_seconds"
    ]["series"][0]
    assert h2.exemplars() == {}


def test_registry_rejects_kind_and_label_mismatch():
    reg = MetricsRegistry()
    reg.counter("repro_test_things_total", "Things.")
    with pytest.raises(ValueError):
        reg.gauge("repro_test_things_total")
    reg.counter("repro_test_labeled_total", "Labeled.", labels=("kind",))
    with pytest.raises(ValueError):
        reg.counter("repro_test_labeled_total", labels=("other",))
    with pytest.raises(ValueError):
        reg.counter("0bad name")


def test_labeled_children_and_series():
    reg = MetricsRegistry()
    fam = reg.counter(
        "repro_test_calls_total", "Calls.", labels=("backend", "kernel")
    )
    fam.labels(backend="f32", kernel="step").inc(2)
    fam.labels(backend="ref", kernel="step").inc()
    # Same label values → same child.
    assert fam.labels(backend="f32", kernel="step").value == 2
    with pytest.raises(ValueError):
        fam.labels(backend="f32")  # incomplete label set
    series = fam.series()
    assert [lv for lv, _ in series] == [("f32", "step"), ("ref", "step")]
    text = reg.render()
    assert 'repro_test_calls_total{backend="f32",kernel="step"} 2' in text


def test_tracker_stats_match_rendered_counters():
    """The tracker's ``stats`` dict and its Prometheus exposition read the
    same counters: every ``repro_tracker_<key>_total`` line carries
    exactly ``tracker.stats[key]``."""
    base, updates = barbell_bridge_schedule(3, 6, cycles=2, hold=0, seed=1)
    trace = track_local_mixing(base, updates, 3.0, 0.4, t_max=3000)
    stats = trace.tracker.stats
    assert stats["snapshots"] == len(updates) + 1
    assert stats["memo_hits"] >= 1
    text = trace.tracker.metrics.render()
    for key, value in stats.items():
        assert f"repro_tracker_{key}_total {value}\n" in text
    # A plain read-only dict: mutating it cannot corrupt the tracker.
    stats["snapshots"] = -1
    assert trace.tracker.stats["snapshots"] == len(updates) + 1


def test_include_composes_and_dedups():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.counter("repro_test_a_total", "A.").inc()
    b.counter("repro_test_b_total", "B.").inc(2)
    a.include(b)
    a.include(b)  # idempotent
    b.include(a)  # cycles are safe
    text = a.render()
    assert "repro_test_a_total 1" in text
    assert "repro_test_b_total 2" in text
    assert text.count("# HELP repro_test_b_total") == 1
    snap = a.snapshot()
    assert set(snap) >= {"repro_test_a_total", "repro_test_b_total"}
    with pytest.raises(TypeError):
        a.include({})


def test_registry_thread_hammer_exact_totals():
    reg = MetricsRegistry()
    plain = reg.counter("repro_test_hammer_total", "Hammered.")
    fam = reg.counter(
        "repro_test_hammer_labeled_total", "Hammered children.",
        labels=("worker",),
    )
    n_threads, per_thread = 8, 5000

    def pound(i):
        child = fam.labels(worker=str(i % 2))
        for _ in range(per_thread):
            plain.inc()
            child.inc()

    threads = [
        threading.Thread(target=pound, args=(i,)) for i in range(n_threads)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert plain.value == n_threads * per_thread
    assert sum(v.value for _, v in fam.series()) == n_threads * per_thread


_PROM_LABEL = r'[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"'
_PROM_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"  # metric name
    rf"(\{{{_PROM_LABEL}(,{_PROM_LABEL})*\}})?"  # optional label set
    r" [0-9eE.+-]+(inf)?$"  # value
)


def _assert_prometheus_parseable(text: str) -> None:
    """Every non-comment line must be a well-formed sample line."""
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        assert _PROM_LINE.match(line), f"unparseable sample line: {line!r}"


def test_render_is_parseable_prometheus_text():
    reg = MetricsRegistry()
    reg.counter("repro_test_c_total", "C.").inc()
    reg.gauge("repro_test_g", "G.").set(1.25)
    h = reg.histogram("repro_test_h_seconds", "H.", buckets=(0.1, 1.0))
    h.observe(0.05)
    h.observe(2.0)
    fam = reg.counter("repro_test_l_total", "L.", labels=("k",))
    fam.labels(k='quo"te\\n').inc()
    text = reg.render()
    _assert_prometheus_parseable(text)
    assert '_bucket{le="+Inf"} 2' in text
    assert "repro_test_h_seconds_count 2" in text


# --------------------------------------------------------------------- #
# The switch
# --------------------------------------------------------------------- #


def test_observability_switch_and_context():
    assert not observability_enabled()
    prev = set_observability(True)
    assert prev is False and observability_enabled()
    with observability(False):
        assert not observability_enabled()
        with observability(True):
            assert observability_enabled()
        assert not observability_enabled()
    assert observability_enabled()
    set_observability(prev)


# --------------------------------------------------------------------- #
# Tracing
# --------------------------------------------------------------------- #


def test_trace_disabled_is_free_and_yields_none():
    with trace("query") as span:
        assert span is None
    assert start_span("anything") is None
    assert current_span() is None
    assert recent_traces() == []


def test_span_nesting_and_ordering():
    with observability(True):
        with trace("root", source=7) as root:
            with trace("first"):
                with trace("inner"):
                    pass
            with trace("second"):
                pass
    assert root.meta["source"] == 7
    assert [c.name for c in root.children] == ["first", "second"]
    assert [c.name for c in root.children[0].children] == ["inner"]
    assert root.duration is not None and root.duration >= 0
    roots = recent_traces()
    assert roots[-1] is root  # only the root lands in the sink
    assert all(s.name == "root" for s in roots)
    clear_traces()
    assert recent_traces() == []


def test_detached_span_adoption():
    with observability(True):
        shared = start_span("coalesced_batch", detached=True, sources=3)
        shared.finish()
        with trace("query_a") as qa:
            attach_or_record(shared)
        with trace("query_b") as qb:
            attach_or_record(shared)
        attach_or_record(None)  # no-op
    # Both queries adopted the same span object; it never became a root.
    assert qa.children == [shared] and qb.children == [shared]
    assert shared not in recent_traces()


def test_span_dict_roundtrip():
    with observability(True):
        with trace("parent", pid=123) as span:
            with trace("child", kind="times"):
                pass
    clone = Span.from_dict(span.to_dict())
    assert clone.name == "parent" and clone.meta == {"pid": 123}
    assert clone.duration == span.duration
    assert clone.find("child").meta == {"kind": "times"}
    assert clone.to_dict() == span.to_dict()


def test_use_span_reparents_across_threads_via_to_thread():
    async def main():
        with observability(True):
            shared = start_span("batch", detached=True)
            with use_span(shared):
                await asyncio.to_thread(probe)
            shared.finish()
        return shared

    def probe():
        with trace("work"):
            pass

    shared = asyncio.run(main())
    assert [c.name for c in shared.children] == ["work"]


# --------------------------------------------------------------------- #
# Kernel profiling
# --------------------------------------------------------------------- #


def test_kernels_are_plain_functions_when_disabled():
    plain = engine_batch._kernels()
    assert plain is engine_batch._PLAIN_KERNELS
    assert plain.sorted_scan is engine_batch.sorted_scan_arrays
    assert plain.screen is None
    with observability(True):
        timed = engine_batch._kernels()
    assert timed.sorted_scan is not plain.sorted_scan
    assert timed.screen is not None
    P = np.random.default_rng(0).random((12, 3))
    before = kernel_profiler().snapshot()
    S, pre = timed.sorted_scan(P)
    ref_S, ref_pre = plain.sorted_scan(P)
    # The timing closure passes inputs and outputs through untouched.
    assert np.array_equal(S, ref_S) and np.array_equal(pre, ref_pre)
    delta = diff_kernel_snapshots(before, kernel_profiler().snapshot())
    assert delta["kernels"][f"{KERNEL_LABEL}/sorted_scan"]["calls"] == 1


def test_profiler_records_engine_kernel_calls(small_graph):
    profiler = kernel_profiler()
    before = profiler.snapshot()
    with observability(True):
        batched_local_mixing_times(small_graph, BETA, sources=range(8))
    delta = diff_kernel_snapshots(before, kernel_profiler().snapshot())
    kernels = {k.split("/")[1] for k in delta["kernels"]}
    assert "step_block" in kernels
    assert "deviation_lower_bounds" in kernels
    for entry in delta["kernels"].values():
        assert entry["calls"] > 0 and entry["seconds"] >= 0


def test_screening_volume_is_recorded(small_graph):
    profiler = kernel_profiler()
    before = profiler.snapshot()
    with observability(True):
        batched_local_mixing_times(small_graph, BETA, sources=range(8))
    delta = diff_kernel_snapshots(before, kernel_profiler().snapshot())
    screen = delta["screen"][KERNEL_LABEL]
    assert screen["pairs"] > 0
    assert 0 <= screen["flagged"] <= screen["pairs"]


def _result_bits(results):
    return [
        (r.time, r.set_size, r.deviation.hex(), r.steps_checked,
         r.sizes_checked)
        for r in results
    ]


def test_certified_pairs_cover_every_skipped_screen():
    # Long τ on a lazy path: drift credit proves most (R, column) pairs
    # non-hits, so they are counted as certified instead of screened.
    g = path_graph(40)
    plain = batched_local_mixing_times(g, BETA, lazy=True)
    before = kernel_profiler().snapshot()
    with observability(True):
        traced = batched_local_mixing_times(g, BETA, lazy=True)
    delta = diff_kernel_snapshots(before, kernel_profiler().snapshot())
    screen = delta["screen"][KERNEL_LABEL]
    n_cand = len(canonical_times_key(g, BETA, lazy=True).sizes)
    live_column_steps = sum(r.steps_checked for r in traced)
    assert screen["pairs"] + screen["certified"] == (
        live_column_steps * n_cand
    )
    assert screen["certified"] > screen["pairs"]
    assert _result_bits(traced) == _result_bits(plain)


def test_tiled_solve_counters_and_span(monkeypatch):
    # The same closed form on a solve split into 6 column tiles on two
    # pool processes, whose engine_solve span records the split.
    g = path_graph(40)
    n_cand = len(canonical_times_key(g, BETA, lazy=True).sizes)
    plain = batched_local_mixing_times(g, BETA, lazy=True)
    monkeypatch.setattr(engine_batch, "_TILE_BYTES", 8 * g.n * 7)
    monkeypatch.setattr(engine_batch, "_usable_cpus", lambda: 2)
    untraced = batched_local_mixing_times(g, BETA, lazy=True)
    before = kernel_profiler().snapshot()
    with observability(True):
        traced = batched_local_mixing_times(g, BETA, lazy=True)
    delta = diff_kernel_snapshots(before, kernel_profiler().snapshot())
    screen = delta["screen"][KERNEL_LABEL]
    assert screen["pairs"] + screen["certified"] == (
        sum(r.steps_checked for r in traced) * n_cand
    )
    assert _result_bits(traced) == _result_bits(untraced)
    assert _result_bits(traced) == _result_bits(plain)
    (span,) = [s for s in recent_traces() if s.name == "engine_solve"]
    assert (span.meta["tiles"], span.meta["workers"]) == (6, 2)


def test_anchor_certified_pairs_close_the_count(monkeypatch):
    # Size anchors certify whole intervals of set sizes: those pairs are
    # counted as certified, only pairs given a per-size bound as screened,
    # and the closed form still holds on a solve split into 3 tiles on two
    # pool processes.
    g = random_regular(300, 6, seed=4)
    n_cand = len(canonical_times_key(g, BETA).sizes)
    plain = batched_local_mixing_times(g, BETA)
    monkeypatch.setattr(engine_batch, "_TILE_BYTES", 8 * g.n * 100)
    monkeypatch.setattr(engine_batch, "_usable_cpus", lambda: 2)
    untraced = batched_local_mixing_times(g, BETA)
    before = kernel_profiler().snapshot()
    with observability(True):
        traced = batched_local_mixing_times(g, BETA)
    delta = diff_kernel_snapshots(before, kernel_profiler().snapshot())
    screen = delta["screen"][KERNEL_LABEL]
    total = sum(r.steps_checked for r in traced) * n_cand
    assert screen["pairs"] + screen["certified"] == total
    # τ ≈ 10 on this expander, too short for drift credit to skip many
    # screens: most certified pairs are the anchors'.
    assert screen["pairs"] < total // 4
    assert _result_bits(traced) == _result_bits(untraced)
    assert _result_bits(traced) == _result_bits(plain)
    (span,) = [s for s in recent_traces() if s.name == "engine_solve"]
    assert (span.meta["tiles"], span.meta["workers"]) == (3, 2)


def _traced_counts(solve):
    """Kernel call counts and screen volumes of one traced solve."""
    before = kernel_profiler().snapshot()
    with observability(True):
        out = solve()
    delta = diff_kernel_snapshots(before, kernel_profiler().snapshot())
    calls = {k: v["calls"] for k, v in delta["kernels"].items()}
    return _result_bits(out), calls, delta["screen"][KERNEL_LABEL]


def test_pooled_solve_counts_equal_inline(monkeypatch):
    # Worker-side kernel calls and screen volumes fold into the parent's
    # profiler exactly: a pooled solve counts what its tiles count inline.
    g = random_regular(300, 6, seed=4)
    monkeypatch.setattr(engine_batch, "_TILE_BYTES", 8 * g.n * 100)
    monkeypatch.setattr(engine_batch, "_usable_cpus", lambda: 2)
    pooled = _traced_counts(lambda: batched_local_mixing_times(g, BETA))
    (span,) = [s for s in recent_traces() if s.name == "engine_solve"]
    assert span.meta["workers"] == 2
    assert len([c for c in span.children if c.name == "shard_solve"]) == 2
    inline = _traced_counts(
        lambda: batched_local_mixing_times(g, BETA, batch_size=100)
    )
    assert pooled == inline
    assert set(pooled[1]) == {
        f"{KERNEL_LABEL}/{k}" for k in (
            "step_block", "sorted_scan", "split_points",
            "deviation_lower_bounds", "best_sums",
        )
    }


def test_screen_counters_snapshot_merge_reset():
    prof = KernelProfiler(MetricsRegistry())
    prof.record_screen(10, 2, 30)
    snap = prof.snapshot()
    assert snap["screen"][KERNEL_LABEL] == {
        "pairs": 10, "flagged": 2, "certified": 30,
    }
    prof.merge(diff_kernel_snapshots({}, snap))
    assert prof.snapshot()["screen"][KERNEL_LABEL]["certified"] == 60
    prof.reset()
    assert prof.snapshot()["screen"] == {}


def test_exact_verification_is_profiled(small_graph):
    # The verify stage shows up under its own kernel name instead of the
    # unattributed remainder, and timing it changes no result bit.
    plain = batched_local_mixing_times(small_graph, BETA)
    before = kernel_profiler().snapshot()
    with observability(True):
        traced = batched_local_mixing_times(small_graph, BETA)
    delta = diff_kernel_snapshots(before, kernel_profiler().snapshot())
    assert delta["screen"][KERNEL_LABEL]["flagged"] > 0
    assert delta["kernels"][f"{KERNEL_LABEL}/best_sums"]["calls"] > 0
    assert _result_bits(traced) == _result_bits(plain)


# --------------------------------------------------------------------- #
# Purity: identical results with observability on and off
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("kind", ["times", "profiles", "spectra"])
def test_results_identical_enabled_vs_disabled(small_graph, kind):
    g = small_graph

    def solve():
        if kind == "times":
            return batched_local_mixing_times(g, BETA)
        if kind == "profiles":
            return batched_local_mixing_profiles(g, BETA, t_max=40)
        return batched_local_mixing_spectra(g, t_max=40)

    with observability(False):
        base = solve()
    with observability(True):
        instrumented = solve()
    if kind == "profiles":  # profiles are a dense ndarray
        assert np.array_equal(instrumented, base)
    else:
        assert instrumented == base


# --------------------------------------------------------------------- #
# Cross-process span aggregation
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
@pytest.mark.parametrize("w", [1, 2, 4])
def test_worker_spans_aggregate_into_parent_trace(w, start_method):
    g = random_regular(30, 4, seed=5)
    serial = batched_local_mixing_times(g, BETA)
    profiler = kernel_profiler()
    with ShardExecutor(w, start_method=start_method) as ex:
        before = profiler.snapshot()
        with observability(True):
            with trace("parent") as parent:
                par = parallel_local_mixing_times(g, BETA, executor=ex)
    assert par == serial
    shard_spans = [c for c in parent.children if c.name == "shard_solve"]
    assert len(shard_spans) == w
    assert sum(s.meta["sources"] for s in shard_spans) == g.n
    for s in shard_spans:
        assert s.meta["kind"] == "times" and s.meta["pid"] > 0
        assert s.duration is not None
        # The worker's own engine span ships back nested in place.
        assert s.find("engine_solve") is not None
    # Worker kernel profiles merged into the parent's profiler.
    delta = diff_kernel_snapshots(before, profiler.snapshot())
    assert any(
        k.endswith("/step_block") for k in delta["kernels"]
    ), delta


def test_sharded_results_identical_when_disabled():
    """The collect flag is off with observability off, and the executor
    still returns serial-identical results through the 3-tuple channel."""
    g = random_regular(30, 4, seed=5)
    serial = batched_local_mixing_times(g, BETA)
    with ShardExecutor(2) as ex:
        par = parallel_local_mixing_times(g, BETA, executor=ex)
    assert par == serial
    assert recent_traces() == []


# --------------------------------------------------------------------- #
# Service-level composition
# --------------------------------------------------------------------- #


def test_service_metrics_render_covers_every_tier():
    g = random_regular(30, 4, seed=5)
    direct = batched_local_mixing_times(g, BETA)

    async def main():
        async with MixingService(window=0.005, n_workers=2) as svc:
            first = await svc.submit_many(
                [MixingQuery(g, s, beta=BETA) for s in range(6)]
            )
            again = await svc.submit(MixingQuery(g, 0, beta=BETA))
            return first, again, svc.metrics.render(), svc.stats()

    with observability(True):
        results, again, rendered, stats = asyncio.run(main())
    assert results == [direct[s] for s in range(6)]
    assert again == direct[0]
    _assert_prometheus_parseable(rendered)
    for name in (
        "repro_cache_hits_total",
        "repro_cache_misses_total",
        "repro_coalescer_batches_total",
        "repro_registry_resolves_total",
        "repro_executor_tasks_dispatched_total",
        "repro_kernel_calls_total",
        "repro_engine_solve_seconds",
    ):
        assert name in rendered, f"missing {name} in render()"
    assert stats["cache"]["hits"] == 1
    # Every query produced a root trace with its pipeline children.
    queries = [s for s in recent_traces() if s.name == "query"]
    assert len(queries) == 7
    solved = [q for q in queries if q.meta.get("outcome") == "solved"]
    assert solved and all(
        q.find("coalesced_batch") is not None for q in solved
    )
    assert all(q.find("cache_lookup") is not None for q in queries[:6])


def _count_series_writes(monkeypatch) -> list:
    """Patch every metric mutator to log the series object it writes;
    returns the (growing) log."""
    writes: list = []
    for cls, names in (
        (Counter, ("inc",)),
        (Gauge, ("set", "inc", "set_max")),
        (Histogram, ("observe",)),
    ):
        for name in names:
            def logged(self, *args, _orig=getattr(cls, name), **kwargs):
                writes.append(self)
                return _orig(self, *args, **kwargs)

            monkeypatch.setattr(cls, name, logged)
    return writes


@pytest.mark.parametrize("n", [200, 1000])
def test_cache_hit_writes_three_registered_series(monkeypatch, n):
    """A warmed cache hit writes three registered series — registry
    resolve, cache hit, query latency — at every graph size, and feeds
    the window and the flight ring once each from the same record."""
    g = random_regular(n, 8, seed=1)
    hits = 100

    async def main():
        async with MixingService() as svc:
            query = MixingQuery(g, 0, beta=BETA)
            await svc.submit(query)
            writes = _count_series_writes(monkeypatch)
            window0 = svc.live.stats()["total"]
            ring0 = svc.flight.stats()["records"]
            for _ in range(hits):
                await svc.submit(query)
            monkeypatch.undo()
            registered = {
                id(leaf)
                for metric in svc.metrics._collect()
                for _, leaf in metric.series()
            }
            return (
                sum(id(w) in registered for w in writes),
                svc.live.stats()["total"] - window0,
                svc.flight.stats()["records"] - ring0,
                svc.stats()["cache"]["hits"],
            )

    writes, window, ring, cache_hits = asyncio.run(main())
    assert cache_hits == hits
    assert writes == 3 * hits
    assert window == ring == hits


def test_every_outcome_is_counted_once_by_every_view():
    g = random_regular(30, 4, seed=5)

    async def main():
        async with MixingService() as svc:
            for query in (
                MixingQuery(g, 0, beta=BETA),
                MixingQuery(g, 0, beta=BETA),
                MixingQuery(g, 1, beta=BETA, deadline=0.0),
                MixingQuery(g, g.n, beta=BETA),
            ):
                try:
                    await svc.submit(query)
                except (DeadlineExceededError, ValueError):
                    pass
            snap = svc.metrics.snapshot()
            (series,) = snap["repro_service_query_seconds"]["series"]
            outcomes = sorted(r.outcome for r in svc.flight.records())
            return (
                series["count"],
                svc.flight.stats()["records"],
                svc.live.stats()["total"],
                outcomes,
            )

    histogram, flight, window, outcomes = asyncio.run(main())
    assert histogram == flight == window == 4
    assert outcomes == ["bad_request", "deadline_exceeded", "ok", "ok"]


def test_bench_reporter_sections_always_record():
    rep = BenchReporter("unit")
    with rep.section("outer"):
        with rep.section("inner"):
            pass
    assert set(rep.timings) == {"outer", "inner"}
    assert rep.seconds("outer") >= rep.seconds("inner") >= 0
    snap = rep.snapshot()
    assert snap["bench"] == "unit"
    assert set(snap["sections"]) == {"outer", "inner"}
    assert "repro_bench_section_seconds" in snap["metrics"]
    with pytest.raises(KeyError):
        rep.seconds("never_ran")


def test_fingerprint_is_stable_and_stamped_on_snapshots():
    a, b = machine_fingerprint(), machine_fingerprint()
    assert a == b
    assert a["python"] and a["platform"] and a["numpy"]
    assert BenchReporter("unit").snapshot()["machine"] == a
