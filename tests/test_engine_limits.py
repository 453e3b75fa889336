"""Tests for the lifted batched-engine limits (ISSUE 3 tentpole).

Three limits used to force the batched drivers back onto the per-source
loop: ``target="degree"``, ``require_source=True``, and the per-``R``
bracket search in ``_solve_chunk`` (now the fused, search-free lower-bound
prefilter).  These tests pin the load-bearing
property of every lifted limit: **identical** outputs (LocalMixingResult
equality — time, set size, bitwise deviation, threshold, both counters) to
the per-source reference, on regular *and* irregular graphs, including
node-churned dynamic snapshots, plus the degree-target
:class:`~repro.dynamic.MixingTracker` against its from-scratch reference.
"""

import numpy as np
import pytest

from repro.dynamic import (
    DynamicGraph,
    MixingTracker,
    edge_markovian_churn,
    node_churn,
    track_local_mixing,
)
from repro.engine import (
    BatchedDegreeDeviationOracle,
    batched_local_mixing_profiles,
    batched_local_mixing_spectra,
    batched_local_mixing_times,
)
from repro.graphs import generators as gen
from repro.walks.distribution import distribution_trajectory
from repro.walks.local_mixing import (
    UniformDeviationOracle,
    _candidate_sizes,
    _degree_target_best,
    local_mixing_spectrum,
    local_mixing_time,
)

EPS = 0.4
T_MAX = 3000

# Irregular graphs are where the degree target differs from the uniform
# one: a star (maximal degree skew; bipartite, so lazy), a lollipop, and
# the β-barbell (bridge endpoints have degree d+1).
IRREGULAR = [
    (gen.star_graph(10), 2.0, True),
    (gen.lollipop(7, 5), 2.0, True),
    (gen.beta_barbell(3, 6), 3.0, False),
]


def _loop(g, beta, lazy, srcs=None, **kw):
    srcs = range(g.n) if srcs is None else srcs
    return [
        local_mixing_time(g, int(s), beta, EPS, lazy=lazy, t_max=T_MAX, **kw)
        for s in srcs
    ]


def _batch(g, beta, lazy, srcs=None, **kw):
    return batched_local_mixing_times(
        g, beta, EPS, sources=srcs, lazy=lazy, t_max=T_MAX, **kw
    )


class TestBatchedDegreeOracle:
    """The vectorized transcript must be bitwise equal to the scalar
    fixed-point heuristic, tie cases included."""

    def test_bitwise_matches_scalar_heuristic(self):
        rng = np.random.default_rng(3)
        for trial in range(12):
            n = int(rng.integers(6, 40))
            k = int(rng.integers(1, 7))
            d = rng.integers(1, 6, size=n).astype(np.float64)
            P = rng.dirichlet(np.ones(n), size=k).T
            if trial % 3 == 0:  # exact ties across rows and columns
                P[: n // 2] = P[0]
                P /= P.sum(axis=0)
            srcs = rng.integers(0, n, size=k)
            oracle = BatchedDegreeDeviationOracle(P, d, sources=srcs)
            for R in {1, 2, n // 2, n}:
                if R < 1:
                    continue
                for rs in (False, True):
                    got = oracle.best_sums(R, require_source=rs)
                    for j in range(k):
                        ref = _degree_target_best(
                            P[:, j], d, R, int(srcs[j]), rs
                        )
                        assert got[j] == ref

    def test_grid_rows_match_per_size(self):
        rng = np.random.default_rng(4)
        P = rng.dirichlet(np.ones(20), size=5).T
        d = rng.integers(1, 5, size=20).astype(np.float64)
        oracle = BatchedDegreeDeviationOracle(P, d)
        Rs = np.arange(1, 21)
        grid = oracle.best_sums_grid(Rs)
        for i, R in enumerate(Rs):
            assert np.array_equal(grid[i], oracle.best_sums(int(R)))

    def test_reduces_to_uniform_on_regular_graph(self):
        g = gen.random_regular(18, 4, seed=5)
        a = _batch(g, 3.0, False, target="degree")
        b = _batch(g, 3.0, False, target="uniform")
        assert [r.time for r in a] == [r.time for r in b]

    def test_validation(self):
        P = np.ones((6, 2)) / 6
        d = np.ones(6)
        with pytest.raises(ValueError, match="block"):
            BatchedDegreeDeviationOracle(np.ones(6), d)
        with pytest.raises(ValueError, match="length-n"):
            BatchedDegreeDeviationOracle(P, np.ones(5))
        with pytest.raises(ValueError, match="one source per column"):
            BatchedDegreeDeviationOracle(P, d, sources=[0])
        with pytest.raises(ValueError, match="out of range"):
            BatchedDegreeDeviationOracle(P, d, sources=[0, 9])
        oracle = BatchedDegreeDeviationOracle(P, d)
        with pytest.raises(ValueError, match="out of range"):
            oracle.best_sums(7)
        with pytest.raises(ValueError, match="without sources"):
            oracle.best_sums(2, require_source=True)
        with pytest.raises(ValueError, match="non-empty"):
            oracle.best_sums_grid(np.array([], dtype=np.int64))


class TestDegreeTargetEquivalence:
    """Batched vs the per-source loop on irregular graphs."""

    @pytest.mark.parametrize("g,beta,lazy", IRREGULAR, ids=lambda v: str(v))
    def test_identical_to_loop_all_sources(self, g, beta, lazy):
        assert _batch(g, beta, lazy, target="degree") == _loop(
            g, beta, lazy, target="degree"
        )

    def test_node_churned_snapshots_identical(self):
        # Node churn produces irregular intermediate topologies — exactly
        # the workload the degree target exists for.
        g = gen.random_regular(14, 4, seed=7)
        dyn = DynamicGraph(g)
        for upd in node_churn(g, 6, seed=9, attach=3):
            dyn.apply(upd)
            snap = dyn.snapshot()
            assert _batch(snap, 3.0, False, target="degree") == _loop(
                snap, 3.0, False, target="degree"
            )

    def test_degree_with_require_source(self):
        g = gen.lollipop(6, 4)
        got = _batch(g, 2.0, True, target="degree", require_source=True)
        assert got == _loop(
            g, 2.0, True, target="degree", require_source=True
        )

    def test_chunked_degree_equals_unchunked(self):
        g = gen.star_graph(12)
        full = _batch(g, 2.0, True, target="degree")
        chunked = batched_local_mixing_times(
            g, 2.0, EPS, lazy=True, t_max=T_MAX, target="degree", batch_size=5
        )
        assert full == chunked


class TestRequireSourceEquivalence:
    CASES = [
        (gen.random_regular(24, 4, seed=2), 3.0, False),
        (gen.beta_barbell(4, 8), 4.0, False),
        (gen.cycle_graph(15), 3.0, False),
        (gen.path_graph(12), 4.0, True),
    ]

    @pytest.mark.parametrize("g,beta,lazy", CASES, ids=lambda v: str(v))
    def test_identical_to_loop_all_sources(self, g, beta, lazy):
        assert _batch(g, beta, lazy, require_source=True) == _loop(
            g, beta, lazy, require_source=True
        )

    def test_algorithm2_knobs(self):
        g = gen.beta_barbell(3, 6)
        kw = dict(
            sizes="grid", threshold_factor=4.0, t_schedule="doubling",
            require_source=True,
        )
        assert _batch(g, 3.0, False, **kw) == _loop(g, 3.0, False, **kw)

    def test_spectra_require_source_identical(self):
        g = gen.beta_barbell(3, 6)
        spectra = batched_local_mixing_spectra(
            g, EPS, t_max=400, require_source=True
        )
        for s in range(g.n):
            assert spectra[s] == local_mixing_spectrum(
                g, s, EPS, t_max=400, require_source=True
            )

    def test_profiles_require_source_identical(self):
        g = gen.beta_barbell(3, 6)
        srcs = [0, 2, 17]
        out = batched_local_mixing_profiles(
            g, 3.0, sources=srcs, t_max=20, require_source=True
        )
        from repro.constants import DEFAULT_EPS

        cand = _candidate_sizes(g.n, 3.0, "all", DEFAULT_EPS)
        for j, s in enumerate(srcs):
            ref = np.empty(21)
            for t, p in distribution_trajectory(g, s, t_max=20):
                uo = UniformDeviationOracle(p, source=s)
                ref[t] = min(
                    uo.best_sum(R, require_source=True)[0] for R in cand
                )
            assert np.array_equal(out[j], ref)


class TestPrefilterEquivalence:
    """The fused lower-bound prefilter over-flags but never under-flags,
    and flagged pairs are verified exactly, so the drivers reproduce the
    per-source loop on regular, tied and barbell spectra."""

    CASES = [
        (gen.random_regular(24, 4, seed=6), 3.0, False, {}),
        (gen.beta_barbell(3, 6), 3.0, False, {}),
        (gen.cycle_graph(15), 3.0, False, {}),
        (gen.beta_barbell(3, 6), 3.0, False, {"require_source": True}),
    ]

    @pytest.mark.parametrize("g,beta,lazy,kw", CASES, ids=lambda v: str(v))
    def test_fused_equals_loop(self, g, beta, lazy, kw):
        assert _batch(g, beta, lazy, **kw) == _loop(g, beta, lazy, **kw)

    def test_validation(self):
        g = gen.cycle_graph(9)
        with pytest.raises(ValueError, match="target"):
            batched_local_mixing_times(g, 2.0, target="entropy")


class TestDegreeTracker:
    """Satellite: MixingTracker(target="degree") vs from-scratch."""

    def _assert_trace_matches(self, base, updates, beta, **kw):
        trace = track_local_mixing(
            base, updates, beta, EPS, t_max=T_MAX, **kw
        )
        dyn = DynamicGraph(base)
        snaps = iter(trace.snapshots)
        ref = batched_local_mixing_times(
            dyn.snapshot(), beta, EPS, t_max=T_MAX, **kw
        )
        assert list(next(snaps).results) == ref
        for upd in updates:
            dyn.apply(upd)
            ref = batched_local_mixing_times(
                dyn.snapshot(), beta, EPS, t_max=T_MAX, **kw
            )
            assert list(next(snaps).results) == ref, upd
        return trace

    def test_degree_churn_trace_matches_from_scratch(self):
        # Edge churn changes the degree vector, exercising the tracker's
        # full-re-solve guard for the degree target.
        g = gen.random_regular(16, 4, seed=21)
        updates = edge_markovian_churn(g, 8, seed=23)
        trace = self._assert_trace_matches(
            g, updates, 3.0, target="degree"
        )
        assert trace.stats["snapshots"] == 9

    def test_degree_tracker_memo_still_hits(self):
        # add/remove round trip: same structure — the structural memo is
        # target-safe (same graph → same degree vector → same results).
        from repro.dynamic.graph import GraphUpdate

        g = gen.lollipop(6, 4)
        ups = [GraphUpdate("add", 0, 8), GraphUpdate("remove", 0, 8)]
        trace = track_local_mixing(
            g, ups, 2.0, EPS, lazy=True, t_max=T_MAX, target="degree"
        )
        assert trace.stats["memo_hits"] >= 1
        assert list(trace.snapshots[2].results) == list(
            trace.snapshots[0].results
        )

    def test_require_source_tracker_matches_from_scratch(self):
        g = gen.random_regular(16, 4, seed=25)
        updates = edge_markovian_churn(g, 6, seed=27)
        self._assert_trace_matches(g, updates, 3.0, require_source=True)

    def test_tracker_target_validation(self):
        with pytest.raises(ValueError, match="target"):
            MixingTracker(2.0, target="entropy")
