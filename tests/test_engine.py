"""Tests for the batched multi-source walk engine (repro.engine).

The load-bearing property: every driver output is **identical** — including
bitwise-equal deviations and bookkeeping counters — to the seed per-source
loop it replaces, across graph families with very different spectra (an
expander, the β-barbell, a cycle with its exactly-tied symmetric
probabilities, and a lazy path).
"""

import math
import struct
import sys
import threading
import time
from contextlib import contextmanager
from unittest import mock

try:
    import resource
except ImportError:  # no getrusage on Windows
    resource = None

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import batch as engine_batch
from repro.engine import oracle as oracle_mod
from repro.engine import (
    BlockPropagator,
    batched_local_mixing_profiles,
    batched_local_mixing_spectra,
    batched_local_mixing_times,
    batched_mixing_times,
)
from repro.engine.propagator import csr_step_block
from repro.engine.oracle import (
    exact_best_sums_kernel,
    sorted_scan_arrays,
    split_points_kernel,
)
from repro.constants import DEFAULT_EPS
from repro.errors import BipartiteGraphError, ConvergenceError
from repro.graphs import generators as gen
from repro.spectral.transition import walk_operator
from repro.walks import distribution_at, mixing_time
from repro.walks.distribution import distribution_trajectory
from repro.walks.local_mixing import (
    UniformDeviationOracle,
    graph_local_mixing_time,
    local_mixing_spectrum,
    local_mixing_time,
    window_deviation_sums,
)

FAMILIES = [
    # (graph, beta, lazy) — expander, barbell, odd cycle, bipartite path.
    (gen.random_regular(48, 6, seed=2), 4.0, False),
    (gen.beta_barbell(4, 8), 4.0, False),
    (gen.cycle_graph(15), 3.0, False),
    (gen.path_graph(12), 4.0, True),
]


def _same_bits(a, b):
    """Same shape and the same IEEE-754 bytes (``-0.0`` is not ``0.0``)."""
    return a.shape == b.shape and (
        np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()
    )


def _loop_results(g, beta, lazy, **kwargs):
    return [
        local_mixing_time(g, s, beta, lazy=lazy, **kwargs) for s in range(g.n)
    ]


def _bits(results):
    """A bitwise identity per result: integers as-is, ``deviation`` and
    ``threshold`` by their IEEE-754 bytes (dataclass ``==`` compares
    floats, so it would let ``-0.0`` pass for ``0.0``)."""
    return [
        (
            int(r.time),
            int(r.set_size),
            struct.pack("<d", r.deviation),
            struct.pack("<d", r.threshold),
            int(r.steps_checked),
            int(r.sizes_checked),
        )
        for r in results
    ]


class TestBlockPropagator:
    def test_matches_single_source_trajectory_bitwise(self):
        g = gen.beta_barbell(3, 6)
        sources = [0, 5, g.n - 1]
        prop = BlockPropagator(g, sources)
        refs = [distribution_trajectory(g, s) for s in sources]
        for t, P in prop.trajectory(t_max=12):
            for j, ref in enumerate(refs):
                t_ref, p_ref = next(ref)
                assert t_ref == t
                assert np.array_equal(P[:, j], p_ref)

    def test_lazy_operator(self):
        g = gen.path_graph(8)
        prop = BlockPropagator(g, [3], lazy=True)
        prop.advance_to(5)
        assert np.array_equal(prop.block[:, 0], distribution_at(g, 3, 5, lazy=True))

    def test_drop_columns_keeps_survivors(self):
        g = gen.cycle_graph(9)
        prop = BlockPropagator(g, [0, 4, 7])
        prop.advance_to(3)
        expected = prop.block[:, 2].copy()
        prop.drop_columns(np.array([2]))
        assert prop.k == 1
        assert prop.sources.tolist() == [7]
        assert np.array_equal(prop.block[:, 0], expected)

    @pytest.mark.parametrize("lazy", [False, True])
    @pytest.mark.parametrize("k", [1, 5])
    def test_direct_step_is_matmul_bitwise(self, lazy, k):
        # The step calls scipy's CSR kernel itself; pin it to ``A @ P`` so
        # a scipy release that changes either fails here, not downstream.
        g = gen.random_regular(30, 4, seed=3)
        A = walk_operator(g, lazy=lazy)
        prop = BlockPropagator(g, range(0, 2 * k, 2), lazy=lazy)
        for _ in range(6):
            before = prop.block.copy()
            assert _same_bits(prop.step(), A @ before)
        for keep in ([k - 1, 0], [0]) if k > 1 else ([0],):
            prop.drop_columns(np.array(keep))
            for _ in range(3):
                before = prop.block.copy()
                assert _same_bits(prop.step(), A @ before)
        # Arbitrary values into a dirty output buffer.
        P = np.random.default_rng(k).random((g.n, k))
        out = np.full_like(P, np.nan)
        assert csr_step_block(A, P, out) is out
        assert _same_bits(out, A @ P)

    def test_advance_to_keeps_the_callers_block(self):
        # The τ driver holds the block from before a multi-step advance
        # (the doubling schedule) to charge drift credit against it.
        g = gen.path_graph(10)
        prop = BlockPropagator(g, [0, 4], lazy=True)
        for t in (1, 2, 4, 8, 9, 16, 32):
            held = prop.block
            kept = held.copy()
            P = prop.advance_to(t)
            assert _same_bits(held, kept)
            assert not np.shares_memory(P, held)
            for j, s in enumerate((0, 4)):
                assert _same_bits(P[:, j], distribution_at(g, s, t, lazy=True))
        # A lone step reuses the block from two steps back.
        two_back = prop.block
        prop.step()
        assert np.shares_memory(prop.step(), two_back)

    def test_doubling_schedule_with_drift_credit_matches_loop(self):
        # Lazy P_40 under the doubling schedule: drift credit skips whole
        # screening steps (fewer scans than advances), so the drift of a
        # multi-step advance is charged against the caller's older block.
        g = gen.path_graph(40)
        counts = {"scan": 0, "advance": 0}

        def counting_scan(*args):
            counts["scan"] += 1
            return engine_batch.sorted_scan_arrays(*args)

        class CountingPropagator(BlockPropagator):
            def advance_to(self, t):
                counts["advance"] += 1
                return super().advance_to(t)

        kernels = engine_batch._PLAIN_KERNELS._replace(
            sorted_scan=counting_scan
        )
        with mock.patch.object(engine_batch, "_kernels", lambda: kernels), \
                mock.patch.object(
                    engine_batch, "BlockPropagator", CountingPropagator
                ):
            batched = batched_local_mixing_times(
                g, 4.0, lazy=True, t_schedule="doubling"
            )
        assert 0 < counts["scan"] < counts["advance"]
        assert _bits(batched) == _bits(
            _loop_results(g, 4.0, True, t_schedule="doubling")
        )

    def test_no_block_product_goes_through_scipy_dispatch(self, monkeypatch):
        # Count gate: the step is the direct kernel call, so a solve sends
        # no dense operand through scipy's Python matmul dispatch (the
        # lazy operator's one ``* 0.5`` scalar product is not a step).
        from scipy.sparse import _base

        dispatch = _base._spbase._matmul_dispatch
        dense = []

        def counting(self, other):
            if isinstance(other, np.ndarray):
                dense.append(other.shape)
            return dispatch(self, other)

        monkeypatch.setattr(_base._spbase, "_matmul_dispatch", counting)
        g = gen.path_graph(40)
        walk_operator(g, lazy=True) @ np.ones((g.n, 2))
        assert dense == [(g.n, 2)]  # the spy sees a plain ``A @ P``
        dense.clear()
        batched_local_mixing_times(g, 4.0, lazy=True)
        assert dense == []

    def test_rewind_rejected(self):
        prop = BlockPropagator(gen.cycle_graph(9), [0])
        prop.advance_to(4)
        with pytest.raises(ValueError, match="rewind"):
            prop.advance_to(2)

    def test_validation(self):
        g = gen.cycle_graph(9)
        with pytest.raises(ValueError):
            BlockPropagator(g, [])
        with pytest.raises(ValueError):
            BlockPropagator(g, [9])


class TestBatchedLocalMixingTimes:
    @pytest.mark.parametrize("g,beta,lazy", FAMILIES, ids=lambda v: str(v))
    def test_identical_to_per_source_loop(self, g, beta, lazy):
        batch = batched_local_mixing_times(g, beta, lazy=lazy)
        assert _bits(batch) == _bits(_loop_results(g, beta, lazy))

    def test_identical_under_algorithm2_knobs(self):
        g = gen.beta_barbell(4, 8)
        knobs = dict(sizes="grid", threshold_factor=4.0, t_schedule="doubling")
        batch = batched_local_mixing_times(g, 4.0, **knobs)
        assert _bits(batch) == _bits(_loop_results(g, 4.0, False, **knobs))

    def test_chunked_equals_unchunked(self):
        g = gen.random_regular(30, 4, seed=7)
        full = batched_local_mixing_times(g, 3.0)
        chunked = batched_local_mixing_times(g, 3.0, batch_size=7)
        assert _bits(full) == _bits(chunked)

    def test_source_subset_order(self):
        g = gen.beta_barbell(4, 8)
        sub = batched_local_mixing_times(g, 4.0, sources=[11, 2, 5])
        assert _bits(sub) == _bits(
            local_mixing_time(g, s, 4.0) for s in (11, 2, 5)
        )

    def test_require_source_batched_identically(self):
        # Lifted limit: require_source is handled in-block (no per-source
        # fallback) — results must still be identical to the loop.
        g = gen.beta_barbell(4, 8)
        srcs = [0, 9, 31]
        batch = batched_local_mixing_times(
            g, 4.0, sources=srcs, require_source=True
        )
        assert _bits(batch) == _bits(
            local_mixing_time(g, s, 4.0, require_source=True) for s in srcs
        )

    def test_convergence_error(self):
        g = gen.beta_barbell(4, 8)
        with pytest.raises(ConvergenceError):
            batched_local_mixing_times(g, 1.0, t_max=3)

    def test_bipartite_requires_lazy(self):
        with pytest.raises(BipartiteGraphError):
            batched_local_mixing_times(gen.path_graph(8), 2.0)

    def test_validation(self):
        g = gen.cycle_graph(9)
        with pytest.raises(ValueError):
            batched_local_mixing_times(g, 0.5)
        with pytest.raises(ValueError):
            batched_local_mixing_times(g, 2.0, eps=1.5)
        with pytest.raises(ValueError):
            batched_local_mixing_times(g, 2.0, sources=[])
        with pytest.raises(ValueError):
            batched_local_mixing_times(g, 2.0, sources=[9])
        with pytest.raises(TypeError):  # τ has no method knob
            batched_local_mixing_times(g, 2.0, method="magic")
        with pytest.raises(ValueError):
            batched_local_mixing_times(g, 2.0, t_schedule="fib")
        with pytest.raises(ValueError, match="batch_size"):
            batched_local_mixing_times(g, 2.0, batch_size=0)


def _times_outcome(solve):
    """``_bits`` of a batched solve, or the ``ConvergenceError`` it raised
    (as ``("ConvergenceError", last_length)``)."""
    try:
        return _bits(solve())
    except ConvergenceError as exc:
        return ("ConvergenceError", exc.last_length)


def _loop_outcome(g, beta, sources, **knobs):
    """The per-source reference in the batched driver's terms: all
    results, or the first ``ConvergenceError`` any source raises."""
    return _times_outcome(
        lambda: [local_mixing_time(g, s, beta, **knobs) for s in sources]
    )


#: Graphs for the drift-certificate tests: bipartite ones run lazy.
CERT_GRAPHS = [
    gen.path_graph(10),
    gen.cycle_graph(11),
    gen.beta_barbell(3, 5),
    gen.random_regular(12, 3, seed=5),
]


class TestDriftCertificate:
    """Skipped screens (the drift credit) must never change an answer:
    every batched result stays bitwise equal to the per-source loop."""

    @settings(max_examples=60, deadline=None)
    @given(
        gi=st.integers(0, len(CERT_GRAPHS) - 1),
        lazy=st.booleans(),
        beta=st.sampled_from([1.5, 2.0, 3.0, 4.0]),
        threshold_factor=st.floats(0.2, 4.0),
        sizes=st.sampled_from(["all", "grid"]),
        t_schedule=st.sampled_from(["all", "doubling"]),
        require_source=st.booleans(),
        batch_size=st.sampled_from([None, 1, 4]),
        t_max=st.integers(0, 150),
    )
    def test_batched_equals_loop(
        self, gi, lazy, beta, threshold_factor, sizes, t_schedule,
        require_source, batch_size, t_max,
    ):
        g = CERT_GRAPHS[gi]
        knobs = dict(
            lazy=lazy or g.is_bipartite,
            threshold_factor=threshold_factor,
            sizes=sizes,
            t_schedule=t_schedule,
            require_source=require_source,
            t_max=t_max,
        )
        batch = _times_outcome(
            lambda: batched_local_mixing_times(
                g, beta, batch_size=batch_size, **knobs
            )
        )
        assert batch == _loop_outcome(g, beta, range(g.n), **knobs)

    @pytest.mark.parametrize(
        "g,beta",
        [
            (gen.path_graph(12), 4.0),
            (gen.beta_barbell(3, 5), 3.0),
            (gen.cycle_graph(10), 3.0),
        ],
        ids=["path12", "barbell3_5", "cycle10"],
    )
    def test_thresholds_at_nonmonotone_dips(self, g, beta):
        # ε equal to a profile value at a dip (a step whose best deviation
        # rises again next step, §3 remark) leaves zero margin there, and
        # one ulp above it hits exactly there: the tightest cases for a
        # skipped screen.
        t_max = 40
        prof = batched_local_mixing_profiles(g, beta, lazy=True, t_max=t_max)
        dips = prof[:, 1:-1][
            (prof[:, 1:-1] < prof[:, :-2]) & (prof[:, 1:-1] < prof[:, 2:])
        ]
        dips = np.unique(dips[(dips > 0) & (dips < 1)])
        assert dips.size > 0
        for v in dips[:: max(1, dips.size // 6)]:
            for eps in (float(v), float(np.nextafter(v, np.inf))):
                knobs = dict(lazy=True, t_max=t_max)
                batch = _times_outcome(
                    lambda: batched_local_mixing_times(g, beta, eps, **knobs)
                )
                assert batch == _loop_outcome(
                    g, beta, range(g.n), eps=eps, **knobs
                )


@contextmanager
def _column_tiles(n, width, cpus=2):
    """Solve ``n``-node graphs in tiles of at most ``width`` columns on
    ``cpus`` threads: the tile budget shrunk to ``width`` block columns,
    and the CPU count pinned so the threaded path runs on any machine."""
    with mock.patch.object(
        engine_batch, "_TILE_BYTES", 8 * n * width
    ), mock.patch.object(engine_batch, "_usable_cpus", lambda: cpus):
        yield


def _outcome_with_message(solve):
    """``_bits`` of a solve, or its ``ConvergenceError`` message and
    ``last_length``."""
    try:
        return _bits(solve())
    except ConvergenceError as exc:
        return ("ConvergenceError", str(exc), exc.last_length)


#: Graphs for the column-tile tests: (graph, beta, forced lazy).
TILE_GRAPHS = [
    (gen.beta_barbell(4, 8), 4.0, False),
    (gen.random_regular(40, 4, seed=3), 3.0, False),
    (gen.path_graph(23), 3.0, True),
    (gen.lollipop(8, 10), 2.0, True),
]


class TestColumnTiles:
    """A call split into column tiles on several threads answers exactly
    like one block: tiles never read each other's columns."""

    @settings(max_examples=40, deadline=None)
    @given(
        gi=st.integers(0, len(TILE_GRAPHS) - 1),
        data=st.data(),
        lazy=st.booleans(),
        threshold_factor=st.floats(1.0, 4.0),
        sizes=st.sampled_from(["all", "grid"]),
        require_source=st.booleans(),
        t_schedule=st.sampled_from(["all", "doubling"]),
        t_max=st.sampled_from([4, 300]),
        cpus=st.integers(2, 3),
    )
    def test_tiled_equals_untiled_and_loop(
        self, gi, data, lazy, threshold_factor, sizes, require_source,
        t_schedule, t_max, cpus,
    ):
        g, beta, force_lazy = TILE_GRAPHS[gi]
        # At least 3 tiles, uneven whenever the width does not divide n.
        width = data.draw(st.integers(2, g.n // 3), label="width")
        batch_size = data.draw(
            st.sampled_from([None, 1, width, 2 * width + 1]),
            label="batch_size",
        )
        knobs = dict(
            lazy=lazy or force_lazy,
            threshold_factor=threshold_factor,
            sizes=sizes,
            t_schedule=t_schedule,
            t_max=t_max,
            require_source=require_source,
        )

        def solve(batch_size):
            return _outcome_with_message(
                lambda: batched_local_mixing_times(
                    g, beta, batch_size=batch_size, **knobs
                )
            )

        with _column_tiles(g.n, width, cpus):
            tiles, threads = engine_batch._tile_plan(g.n, g.n, batch_size)
            assert len(tiles) >= 3
            tiled = solve(batch_size)
            # The same tiles on the calling thread only.
            widest = max(hi - lo for lo, hi in tiles)
            assert engine_batch._tile_plan(g.n, g.n, widest) == (tiles, 1)
            serial = solve(widest)
        assert tiled == serial
        whole = solve(None)
        assert tiled == whole
        if tiled[0] == "ConvergenceError":
            return
        sample = data.draw(
            st.lists(st.integers(0, g.n - 1), min_size=1, max_size=4,
                     unique=True),
            label="sample",
        )
        assert [tiled[s] for s in sample] == _bits(
            local_mixing_time(g, s, beta, **knobs) for s in sample
        )

    def test_plan_respects_budget_and_batch_size(self):
        for k, n in [(1000, 1000), (40, 3), (7, 50000), (1, 1)]:
            for batch_size in (None, 1, 3, 50, 400):
                tiles, threads = engine_batch._tile_plan(k, n, batch_size)
                assert tiles[0][0] == 0 and tiles[-1][1] == k
                assert all(a[1] == b[0] for a, b in zip(tiles, tiles[1:]))
                widest = max(hi - lo for lo, hi in tiles)
                assert widest - min(hi - lo for lo, hi in tiles) <= 1
                assert 1 <= threads <= len(tiles)
                if widest > 1:
                    assert 8 * n * widest <= engine_batch._TILE_BYTES
                if batch_size is not None:
                    assert threads * widest <= batch_size

    def test_run_tiles_solves_each_tile_once(self):
        # More threads than CPUs and a tiny switch interval: every tile is
        # solved exactly once and lands in its own slot.
        calls = []

        def solve(lo, hi):
            calls.append(lo)
            return lo

        prev = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            out = engine_batch._run_tiles(
                solve, [(i, i + 1) for i in range(400)], 4
            )
        finally:
            sys.setswitchinterval(prev)
        assert out == list(range(400))
        assert sorted(calls) == list(range(400))

    def test_run_tiles_reraises_and_cancels_the_rest(self):
        started = []

        def solve(lo, hi):
            started.append(lo)
            if lo == 0:
                raise ValueError("tile 0")
            time.sleep(0.01)
            return lo

        with pytest.raises(ValueError, match="tile 0"):
            engine_batch._run_tiles(
                solve, [(i, i + 1) for i in range(50)], 2
            )
        # The tiles not yet started when tile 0 failed are cancelled.
        assert len(started) < 10
        assert engine_batch._run_tiles(solve, [(1, 2), (2, 3)], 2) == [1, 2]

    def test_single_tile_runs_inline_without_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a one-tile call started a pool")

        monkeypatch.setattr(engine_batch, "ThreadPoolExecutor", no_pool)
        batched_local_mixing_times(gen.cycle_graph(15), 3.0)

    def test_call_does_not_wait_for_another_calls_tiles(self, monkeypatch):
        # A call blocked in all of its tiles must not hold up a second
        # call: each call's tiles run on threads of its own.
        monkeypatch.setattr(engine_batch, "_usable_cpus", lambda: 2)
        release = threading.Event()
        blocked = threading.Barrier(3)

        def slow(lo, hi):
            blocked.wait(timeout=60)
            release.wait(timeout=60)
            return lo

        first = threading.Thread(
            target=engine_batch._run_tiles,
            args=(slow, [(0, 1), (1, 2)], 2),
        )
        first.start()
        try:
            blocked.wait(timeout=60)  # both of its threads are busy
            done = []
            second = threading.Thread(
                target=lambda: done.append(
                    engine_batch._run_tiles(
                        lambda lo, hi: lo, [(0, 1), (1, 2), (2, 3)], 2
                    )
                )
            )
            second.start()
            second.join(timeout=30)
            assert done == [[0, 1, 2]]
        finally:
            release.set()
            first.join(timeout=60)

    def test_two_threads_solve_different_graphs(self):
        cases = [TILE_GRAPHS[0], TILE_GRAPHS[2]]
        want = [
            _bits(batched_local_mixing_times(g, beta, lazy=lazy))
            for g, beta, lazy in cases
        ]
        got = [None, None]
        start = threading.Barrier(2)

        def solve(i):
            g, beta, lazy = cases[i]
            start.wait()
            got[i] = [
                _bits(batched_local_mixing_times(g, beta, lazy=lazy))
                for _ in range(3)
            ]

        with _column_tiles(max(g.n for g, _, _ in cases), 5):
            threads = [
                threading.Thread(target=solve, args=(i,)) for i in (0, 1)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=300)
        assert not any(t.is_alive() for t in threads)
        assert got == [[w] * 3 for w in want]


@contextmanager
def _anchor_span(gamma, threshold):
    """Anchor intervals of relative width ``gamma`` for a solve at
    ``threshold`` (the engine derives the width from the threshold)."""
    with mock.patch.object(engine_batch, "_ANCHOR_SHARE", gamma / threshold):
        yield


def _anchor_column(kind, n, seed):
    """One column for the anchor inequality: walk-like, tied, zero-padded,
    heavy, or flat on a support of ``m`` nodes (``p = 1/m`` there, zero
    elsewhere: the shrink-to-``a`` step of the proof is then exact, so
    ``D_R = D_a − (R − a)/R`` at ``R = m``)."""
    rng = np.random.default_rng(seed)
    if kind == "flat":
        p = np.zeros(n)
        p[rng.choice(n, size=int(rng.integers(2, n)), replace=False)] = 1.0
        return p / p.sum()
    if kind == "heavy":  # one entry holds almost all the mass
        p = rng.dirichlet(np.ones(n)) * 1e-3
        p[rng.integers(n)] += 1.0
        return p / p.sum()
    return _column_block(kind, n, 1, seed)[:, 0]


def _exact_minima(p, source, require_source):
    """``D_R`` for ``R = 1..n`` (index ``R``) from the per-source oracle."""
    uo = UniformDeviationOracle(p, source=source)
    return [math.nan] + [
        uo.best_sum(R, require_source=require_source)[0]
        for R in range(1, p.size + 1)
    ]


ANCHOR_KINDS = ["dirichlet", "uniform", "ties", "sparse", "flat", "heavy"]

#: Graphs for the anchored loop-equivalence tests: (graph, beta, lazy).
ANCHOR_GRAPHS = [
    (gen.random_regular(40, 4, seed=3), 3.0, False),
    (gen.beta_barbell(4, 8), 4.0, False),
    (gen.path_graph(23), 3.0, True),
    (gen.lollipop(8, 10), 2.0, True),
    (gen.cycle_graph(31), 1.5, False),
]


class TestSizeAnchors:
    """One lower bound per anchor size certifies a whole interval of set
    sizes: ``D_R ≥ D_a − (R − a)/R`` for ``a ≤ R``.  Certified sizes are
    never screened, so every answer must still equal the per-source loop
    bit for bit."""

    @pytest.mark.parametrize("require_source", [False, True])
    @pytest.mark.parametrize("kind", ANCHOR_KINDS)
    def test_deviation_falls_by_at_most_the_size_gap(self, kind, require_source):
        n = 24
        slack = engine_batch._CREDIT_SLACK * n
        for seed in range(4):
            p = _anchor_column(kind, n, seed)
            D = _exact_minima(p, seed % n, require_source)
            for a in range(1, n + 1):
                for R in range(a, n + 1):
                    assert D[R] >= D[a] - (R - a) / R - slack, (a, R)

    def test_flat_support_makes_the_inequality_tight(self):
        m, n = 12, 30
        p = np.zeros(n)
        p[:m] = 1.0 / m
        D = _exact_minima(p, 0, False)
        for a in range(1, m + 1):
            assert D[m] == pytest.approx(D[a] - (m - a) / m, abs=1e-15)

    @pytest.mark.parametrize("gamma", [0.05, 0.3, 0.9, 5.0])
    def test_anchor_intervals_partition_the_candidates(self, gamma):
        from fractions import Fraction

        Rs = np.arange(7, 201)
        anc, own, delta = engine_batch._size_anchors(Rs, gamma)
        assert anc[0] == 0 and own.sum() == Rs.size
        assert np.array_equal(anc[1:], np.cumsum(own)[:-1])
        for i, m, d in zip(anc, own, delta):
            a = int(Rs[i])
            for R in Rs[i : i + m].tolist():
                assert R - a <= gamma * R
                assert Fraction(d) >= Fraction(R - a, R)
        # Greedy: the next anchor is the first size its predecessor
        # could not own.
        for i, m in zip(anc[:-1], own[:-1]):
            R = int(Rs[i + m])
            assert R - int(Rs[i]) > gamma * R
        assert engine_batch._size_anchors(Rs, 0.0) is None
        assert engine_batch._size_anchors(np.arange(10, 41), 0.0115) is None

    @pytest.mark.parametrize("require_source", [False, True])
    @pytest.mark.parametrize("kind", ANCHOR_KINDS)
    def test_anchor_bound_certifies_every_owned_size(self, kind, require_source):
        # The engine's certificate: LB_a − δ_a − slack, from the screen
        # kernels at the anchors, bounds the exact D_R at every owned R.
        n, k = 40, 5
        P = np.stack(
            [_anchor_column(kind, n, 10 * k + j) for j in range(k)], axis=1
        )
        Rs = np.arange(10, n + 1)
        anc, own, delta = engine_batch._size_anchors(Rs, 0.3)
        S, pre = sorted_scan_arrays(P)
        inv = 1.0 / Rs[anc]
        lb = oracle_mod.deviation_lower_bounds_kernel(
            pre, oracle_mod.screen_grid(Rs[anc], inv, n, k),
            split_points_kernel(S, inv),
        )
        cert = lb - delta[:, None] - engine_batch._CREDIT_SLACK * n
        for j in range(k):
            D = _exact_minima(P[:, j], j, require_source)
            for i, (first, m) in enumerate(zip(anc, own)):
                for R in Rs[first : first + m].tolist():
                    assert cert[i, j] <= D[R], (j, R)

    @settings(max_examples=60, deadline=None)
    @given(
        gi=st.integers(0, len(ANCHOR_GRAPHS) - 1),
        data=st.data(),
        gamma=st.sampled_from([0.1, 0.3, 0.9]),
        eps=st.sampled_from([0.05, DEFAULT_EPS, 0.2]),
        threshold_factor=st.floats(0.5, 3.0),
        require_source=st.booleans(),
        t_schedule=st.sampled_from(["all", "doubling"]),
        t_max=st.sampled_from([3, 12, 400]),
        batch_size=st.sampled_from([None, 1, 5]),
    )
    def test_wide_anchors_equal_loop(
        self, gi, data, gamma, eps, threshold_factor, require_source,
        t_schedule, t_max, batch_size,
    ):
        g, beta, lazy = ANCHOR_GRAPHS[gi]
        width = data.draw(st.sampled_from([g.n, g.n // 3, 4]), label="width")
        knobs = dict(
            eps=eps,
            lazy=lazy,
            threshold_factor=threshold_factor,
            t_schedule=t_schedule,
            t_max=t_max,
            require_source=require_source,
        )
        threshold = eps * threshold_factor
        Rs = np.arange(math.ceil(g.n / beta), g.n + 1)
        assert engine_batch._size_anchors(Rs, gamma) is not None
        with _anchor_span(gamma, threshold), _column_tiles(g.n, width):
            batch = _times_outcome(
                lambda: batched_local_mixing_times(
                    g, beta, batch_size=batch_size, **knobs
                )
            )
        assert batch == _loop_outcome(g, beta, range(g.n), **knobs)

    @pytest.mark.parametrize(
        "gi", range(len(ANCHOR_GRAPHS)),
        ids=["rr40", "barbell4_8", "path23", "lollipop8_10", "cycle31"],
    )
    def test_thresholds_at_sizes_just_past_an_anchor(self, gi):
        # ε equal to an exact D_R(t) at the first size an anchor owns
        # beyond itself leaves zero margin at a certified size, and one ulp
        # above it makes (t, R) hit: the tightest cases for a certificate.
        g, beta, lazy = ANCHOR_GRAPHS[gi]
        gamma, t_max = 0.3, 60
        Rs = np.arange(math.ceil(g.n / beta), g.n + 1)
        anc, own, _ = engine_batch._size_anchors(Rs, gamma)
        past = [int(Rs[i + 1]) for i, m in zip(anc, own) if m > 1]
        values = set()
        for s in (0, g.n // 2):
            for t, p in distribution_trajectory(g, s, lazy=lazy, t_max=t_max):
                uo = UniformDeviationOracle(p)
                values.update(uo.best_sum(R)[0] for R in past)
        values = sorted(v for v in values if 0 < v < 1)
        assert values
        for v in values[:: max(1, len(values) // 5)]:
            for eps in (v, float(np.nextafter(v, np.inf))):
                knobs = dict(eps=eps, lazy=lazy, t_max=t_max)
                with _anchor_span(gamma, eps):
                    batch = _times_outcome(
                        lambda: batched_local_mixing_times(g, beta, **knobs)
                    )
                assert batch == _loop_outcome(g, beta, range(g.n), **knobs)

    @pytest.mark.parametrize("require_source", [False, True])
    def test_unpatched_anchors_on_a_large_graph(self, require_source):
        g, beta = gen.random_regular(320, 6, seed=11), 4.0
        Rs = np.arange(math.ceil(g.n / beta), g.n + 1)
        assert engine_batch._size_anchors(
            Rs, DEFAULT_EPS * engine_batch._ANCHOR_SHARE
        ) is not None
        sources = range(0, g.n, 29)
        knobs = dict(require_source=require_source)
        batch = batched_local_mixing_times(g, beta, sources=sources, **knobs)
        assert _bits(batch) == _bits(
            local_mixing_time(g, s, beta, **knobs) for s in sources
        )

    def test_all_sources_equal_with_anchors_off(self):
        # The benchmark's all-sources graph: every source, anchors on
        # (the default) against anchors off (every size its own anchor).
        g, beta = gen.random_regular(1000, 8, seed=1), 4.0
        on = _bits(batched_local_mixing_times(g, beta))
        with _anchor_span(0.0, DEFAULT_EPS):
            off = _bits(batched_local_mixing_times(g, beta))
        assert on == off


@contextmanager
def _split_points_spy():
    """Solve with plain kernels whose ``split_points`` records a copy of
    every ``(cs, sorted rows)`` it is called with."""
    calls = []
    plain = engine_batch._PLAIN_KERNELS

    def split_points(S, cs):
        calls.append((np.array(cs), S.copy()))
        return plain.split_points(S, cs)

    kernels = plain._replace(split_points=split_points)
    with mock.patch.object(engine_batch, "_kernels", lambda: kernels):
        yield calls


#: Minor page faults allowed in one warmed 125-source solve of
#: ``random_regular(1000, 8)`` (one tile, on the calling thread).  Over 20
#: pytest runs each on a 2-vCPU Linux VM (glibc malloc), the per-tile scan
#: workspace measured 1.5–2.7k and per-step scan arrays 7.7–8.7k.
_TILE_FAULT_BOUND = 5000


class TestScanWorkspace:
    """Each tile screens in one scan workspace that every step refills:
    the drift diff, the column-subset scan and the forward compaction of
    anchor-flagged rows all overwrite rows that later kernels read, so
    every answer must still equal the per-source loop bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(
        gi=st.integers(0, len(ANCHOR_GRAPHS) - 1),
        data=st.data(),
        gamma=st.sampled_from([0.1, 0.3, 0.9]),
        threshold_factor=st.floats(0.5, 3.0),
        require_source=st.booleans(),
        t_schedule=st.sampled_from(["all", "doubling"]),
        chunk=st.sampled_from([8, 97]),
        t_max=st.sampled_from([12, 400]),
    )
    def test_workspace_solve_equals_loop(
        self, gi, data, gamma, threshold_factor, require_source,
        t_schedule, chunk, t_max,
    ):
        g, beta, lazy = ANCHOR_GRAPHS[gi]
        width = data.draw(st.sampled_from([g.n // 3, 4]), label="width")
        knobs = dict(
            lazy=lazy,
            threshold_factor=threshold_factor,
            t_schedule=t_schedule,
            t_max=t_max,
            require_source=require_source,
        )

        def solve(gamma):
            with _anchor_span(gamma, DEFAULT_EPS * threshold_factor):
                return _times_outcome(
                    lambda: batched_local_mixing_times(g, beta, **knobs)
                )

        # Multi-tile plans on two threads, exact-kernel chunks of a few
        # window starts: every step's verification crosses chunk splits.
        with _column_tiles(g.n, width), mock.patch.object(
            oracle_mod, "EXACT_CHUNK_ELEMENTS", chunk
        ):
            batch = solve(gamma)
        assert batch == _loop_outcome(g, beta, range(g.n), **knobs)

    @pytest.mark.parametrize("gi", [0, 2], ids=["rr40", "path23"])
    def test_compacted_rows_are_the_flagged_columns(self, gi):
        # Steps whose anchors flag a strict subset of the screened columns:
        # the interval screen must read exactly those columns' sorted rows,
        # compacted forward in the workspace.  Some steps must move a row
        # that is itself a later copy's source (the order then matters).
        g, beta, lazy = ANCHOR_GRAPHS[gi]
        gamma = 0.1
        Rs = np.arange(math.ceil(g.n / beta), g.n + 1)
        anchor_cs = 1.0 / Rs[engine_batch._size_anchors(Rs, gamma)[0]]
        with _anchor_span(gamma, DEFAULT_EPS), _split_points_spy() as calls:
            batch = batched_local_mixing_times(g, beta, lazy=lazy)
        assert _bits(batch) == _bits(_loop_results(g, beta, lazy))
        ordered = 0
        for (cs, S), (cs2, S2) in zip(calls, calls[1:]):
            if not np.array_equal(cs, anchor_cs) or len(S2) >= len(S):
                continue
            if np.array_equal(cs2, anchor_cs):
                continue  # the next step's anchor screen
            fine, j = [], 0
            for row in S2:  # S2 must be an ordered subset of S's rows
                while not np.array_equal(S[j], row):
                    j += 1
                fine.append(j)
                j += 1
            ordered += any(i < f < len(fine) for i, f in enumerate(fine))
        assert ordered > 0

    @pytest.mark.skipif(
        not hasattr(resource, "RUSAGE_THREAD"),
        reason="needs per-thread getrusage (Linux)",
    )
    def test_one_tile_solve_stays_below_fault_bound(self):
        g = gen.random_regular(1000, 8, seed=1)
        sources = range(125)
        assert engine_batch._tile_plan(125, g.n, None) == ([(0, 125)], 1)
        batched_local_mixing_times(g, 4.0, sources=sources)  # warm
        before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
        batched_local_mixing_times(g, 4.0, sources=sources)
        faults = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - before
        assert faults < _TILE_FAULT_BOUND


class TestGraphLocalMixingTime:
    def test_batch_equals_loop_engine(self):
        g = gen.random_regular(36, 4, seed=4)
        assert graph_local_mixing_time(g, 3.0) == max(
            local_mixing_time(g, s, 3.0).time for s in range(g.n)
        )


class TestBatchedSpectra:
    def test_identical_to_single_source_spectrum(self):
        g = gen.beta_barbell(3, 6)
        spectra = batched_local_mixing_spectra(g, t_max=400)
        for s in range(g.n):
            assert spectra[s] == local_mixing_spectrum(g, s, t_max=400)

    def test_lazy_cycle(self):
        g = gen.cycle_graph(10)
        spectra = batched_local_mixing_spectra(
            g, sources=[0, 5], t_max=300, lazy=True
        )
        for pos, s in enumerate([0, 5]):
            assert spectra[pos] == local_mixing_spectrum(
                g, s, t_max=300, lazy=True
            )

    def test_unmixed_sizes_are_inf(self):
        g = gen.beta_barbell(4, 8)
        spectra = batched_local_mixing_spectra(g, sources=[0], t_max=5)
        assert math.inf in spectra[0].values()


def _bounds_and_minima(P):
    """The screen's lower bounds and the per-source exact minima
    (:func:`_scan_best`) for every ``(R, column)`` pair of ``P``."""
    S, pre = sorted_scan_arrays(P)
    Rs = np.arange(1, P.shape[0] + 1)
    cs = 1.0 / Rs
    lb = oracle_mod.deviation_lower_bounds_kernel(
        pre, oracle_mod.screen_grid(Rs, cs, *P.shape),
        split_points_kernel(S, cs),
    )
    exact = np.array(
        [[_scan_best(S[j], pre[j], R) for j in range(P.shape[1])] for R in Rs]
    )
    return lb, exact


class TestGridKernels:
    def test_lower_bounds_never_exceed_minima(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            P = rng.dirichlet(np.ones(40), size=5).T
            lb, exact = _bounds_and_minima(P)
            assert (lb <= exact + 1e-12).all()
            assert (lb >= 0).all()

    def test_lower_bounds_tight_on_uniform_column(self):
        # Uniform column: every window deviates by exactly 1 − R/n, and the
        # rightmost-window bound attains it for every R.
        p = np.full(20, 1.0 / 20)
        lb, exact = _bounds_and_minima(p[:, None])
        np.testing.assert_allclose(lb[:, 0], exact[:, 0], atol=1e-12)


def _scan_best(z, pre, R):
    """The single-source exact minimum: ``sums[argmin(sums)]`` of the
    shared window formula over every start."""
    sums = window_deviation_sums(z, pre, R, 1.0 / R, np.arange(z.size - R + 1))
    return sums[int(np.argmin(sums))]


def _column_block(kind, n, k, seed):
    rng = np.random.default_rng(seed)
    if kind == "uniform":  # every window ties exactly
        return np.full((n, k), 1.0 / n)
    if kind == "ties":  # few distinct values, many tied windows
        P = rng.integers(0, 3, size=(n, k)).astype(np.float64) + 1.0
        return P / P.sum(axis=0)
    if kind == "sparse":  # walk-like: zeros below every 1/R
        P = rng.random((n, k)) * (rng.random((n, k)) < 0.3)
        P[0] += 1.0
        return P / P.sum(axis=0)
    return rng.dirichlet(np.ones(n), size=k).T


def _kernel_vs_scan(P, flag_seed):
    S, pre = sorted_scan_arrays(P)
    n, k = P.shape
    Rs = np.arange(1, n + 1)
    cs = 1.0 / Rs
    k0 = split_points_kernel(S, cs)
    flags = np.random.default_rng(flag_seed).random((n, k)) < 0.5
    flags[0, 0] = flags[-1, -1] = True  # R = 1 and R = n
    r_idx, cols = np.nonzero(flags)
    got = exact_best_sums_kernel(pre, Rs, cs, k0, r_idx, cols)
    want = np.array(
        [_scan_best(S[j], pre[j], Rs[r]) for r, j in zip(r_idx, cols)]
    )
    return got, want


class TestExactBestSumsKernel:
    """The batched exact verifier is bitwise equal, pair by pair, to the
    single-source scan minimum it replaces."""

    @settings(max_examples=80, deadline=None)
    @given(
        kind=st.sampled_from(["dirichlet", "uniform", "ties", "sparse"]),
        n=st.integers(1, 40),
        k=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_scan_minimum_bitwise(self, kind, n, k, seed):
        got, want = _kernel_vs_scan(_column_block(kind, n, k, seed), seed)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("budget", [1, 7, 100])
    def test_tiny_element_budgets(self, monkeypatch, budget):
        monkeypatch.setattr(oracle_mod, "EXACT_CHUNK_ELEMENTS", budget)
        got, want = _kernel_vs_scan(_column_block("ties", 30, 4, 3), 3)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_flagged_windows_exceed_element_budget(self):
        # About five budgets of window starts: chunk boundaries are crossed.
        P = _column_block("sparse", 400, 8, 11)
        got, want = _kernel_vs_scan(P, 11)
        windows = sum(400 - R + 1 for R in range(1, 401)) * 8 * 0.5
        assert windows > 2 * oracle_mod.EXACT_CHUNK_ELEMENTS
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_no_flagged_pairs(self):
        P = _column_block("dirichlet", 10, 2, 0)
        S, pre = sorted_scan_arrays(P)
        Rs = np.arange(1, 11)
        empty = np.zeros(0, dtype=np.int64)
        out = exact_best_sums_kernel(
            pre, Rs, 1.0 / Rs, split_points_kernel(S, 1.0 / Rs), empty, empty
        )
        assert out.shape == (0,)

    @pytest.mark.parametrize("g,beta,lazy", FAMILIES, ids=lambda v: str(v))
    def test_chunked_solve_identical_to_loop(self, monkeypatch, g, beta, lazy):
        # A budget far below one step's flagged windows: every step's
        # verification crosses many chunk boundaries.
        monkeypatch.setattr(oracle_mod, "EXACT_CHUNK_ELEMENTS", 8)
        srcs = [0, g.n // 2, g.n - 1]
        batch = batched_local_mixing_times(g, beta, sources=srcs, lazy=lazy)
        assert _bits(batch) == _bits(
            local_mixing_time(g, s, beta, lazy=lazy) for s in srcs
        )
        spectra = batched_local_mixing_spectra(
            g, sources=srcs, lazy=lazy, t_max=40
        )
        assert spectra == [
            local_mixing_spectrum(g, s, lazy=lazy, t_max=40) for s in srcs
        ]


class TestBatchedMixingTimes:
    """Satellite: graph_mixing_time's per-source loop rewired onto the
    engine — per-source outputs must be identical for both methods."""

    CASES = [
        (gen.beta_barbell(3, 6), False),
        (gen.cycle_graph(15), False),
        (gen.path_graph(12), True),
        (gen.random_regular(24, 4, seed=3), False),
    ]

    @pytest.mark.parametrize("g,lazy", CASES, ids=lambda v: str(v))
    def test_iterative_identical_to_loop(self, g, lazy):
        batch = batched_mixing_times(g, 0.25, lazy=lazy, method="iterative")
        assert batch == [
            mixing_time(g, s, 0.25, lazy=lazy, method="iterative")
            for s in range(g.n)
        ]

    @pytest.mark.parametrize("g,lazy", CASES, ids=lambda v: str(v))
    def test_spectral_identical_to_loop(self, g, lazy):
        batch = batched_mixing_times(g, 0.25, lazy=lazy, method="spectral")
        assert batch == [
            mixing_time(g, s, 0.25, lazy=lazy, method="spectral")
            for s in range(g.n)
        ]

    def test_source_subset_order(self):
        g = gen.beta_barbell(3, 6)
        srcs = [17, 0, 5]
        assert batched_mixing_times(g, 0.2, sources=srcs) == [
            mixing_time(g, s, 0.2, method="spectral") for s in srcs
        ]

    def test_t0_resolution(self):
        # A near-uniform start mixes at t=0 for loose eps on K_n.
        g = gen.complete_graph(16)
        assert set(batched_mixing_times(g, 0.999)) <= {0, 1}

    def test_convergence_error_both_methods(self):
        g = gen.beta_barbell(3, 6)
        with pytest.raises(ConvergenceError):
            batched_mixing_times(g, 1e-9, t_max=3, method="iterative")
        with pytest.raises(ConvergenceError):
            batched_mixing_times(g, 1e-9, t_max=3, method="spectral")

    #: Both Definition-1 doors for one source.
    DOORS = {
        "mixing_time": lambda g, s, eps, **kw: mixing_time(g, s, eps, **kw),
        "batched": lambda g, s, eps, **kw: batched_mixing_times(
            g, eps, sources=[s], **kw
        )[0],
    }

    @pytest.mark.parametrize("method", ["iterative", "spectral"])
    @pytest.mark.parametrize("door", sorted(DOORS))
    @pytest.mark.parametrize(
        "g,t_max,want",
        [
            # τ = 58 on the barbell: t_max at, past and just before it,
            # none of them a power of two except 64.
            (gen.beta_barbell(3, 6), 58, 58),
            (gen.beta_barbell(3, 6), 59, 58),
            (gen.beta_barbell(3, 6), 64, 58),
            (gen.beta_barbell(3, 6), 57, None),
            # τ = 1 on K_10: t_max = 0 must not probe t = 1.
            (gen.complete_graph(10), 0, None),
            (gen.complete_graph(10), 1, 1),
        ],
        ids=lambda v: str(v),
    )
    def test_t_max_bounds_the_search(self, g, t_max, want, door, method):
        """The answer is τ when τ ≤ t_max and an error otherwise, whatever
        the method: the spectral doubling search probes t_max itself and
        nothing past it."""
        call = self.DOORS[door]
        if want is None:
            with pytest.raises(ConvergenceError):
                call(g, 0, 0.25, t_max=t_max, method=method)
        else:
            assert call(g, 0, 0.25, t_max=t_max, method=method) == want

    def test_validation(self):
        g = gen.cycle_graph(9)
        with pytest.raises(ValueError):
            batched_mixing_times(g, 0.0)
        with pytest.raises(ValueError):
            batched_mixing_times(g, 0.2, method="magic")
        with pytest.raises(BipartiteGraphError):
            batched_mixing_times(gen.path_graph(6), 0.2)


class TestBatchedProfiles:
    """Satellite: local_mixing_profile batched the same way."""

    def test_identical_to_trajectory_loop(self):
        from repro.walks.local_mixing import _candidate_sizes
        from repro.constants import DEFAULT_EPS

        g = gen.beta_barbell(3, 6)
        srcs = [0, 2, 17]
        out = batched_local_mixing_profiles(g, 3.0, sources=srcs, t_max=25)
        cand = _candidate_sizes(g.n, 3.0, "all", DEFAULT_EPS)
        for j, s in enumerate(srcs):
            ref = np.empty(26)
            for t, p in distribution_trajectory(g, s, t_max=25):
                oracle = UniformDeviationOracle(p, source=s)
                ref[t] = min(oracle.best_sum(R)[0] for R in cand)
            assert np.array_equal(out[j], ref)

    def test_lazy_and_grid_sizes(self):
        from repro.walks.local_mixing import local_mixing_profile

        g = gen.path_graph(12)
        out = batched_local_mixing_profiles(
            g, 4.0, sources=[5], sizes="grid", t_max=30, lazy=True
        )
        ref = local_mixing_profile(
            g, 5, 4.0, sizes="grid", t_max=30, lazy=True
        )
        assert np.array_equal(out[0], ref)

    def test_default_sources_all_nodes(self):
        g = gen.cycle_graph(9)
        out = batched_local_mixing_profiles(g, 3.0, t_max=10)
        assert out.shape == (9, 11)
