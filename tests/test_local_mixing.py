"""Unit tests for the centralized local mixing time (Definition 2) and the
window oracle behind it."""

import itertools
import math

import numpy as np
import pytest

from repro.constants import DEFAULT_EPS
from repro.errors import BipartiteGraphError, ConvergenceError
from repro.graphs import generators as gen
from repro.walks import (
    best_uniform_deviation,
    distribution_at,
    find_witness_set,
    graph_local_mixing_time,
    local_mixing_time,
    mixing_time,
    set_l1_deviation,
    size_grid,
)
from repro.walks.local_mixing import UniformDeviationOracle, local_mixing_profile


@pytest.fixture(
    params=["cycle", "complete", "expander"], ids=["cycle9", "K8", "rr16"]
)
def regular_graph(request):
    """The regular members of the ``nonbipartite_graph`` zoo."""
    return {
        "cycle": gen.cycle_graph(9),
        "complete": gen.complete_graph(8),
        "expander": gen.random_regular(16, 4, seed=7),
    }[request.param]


class TestOracleBruteForce:
    """The sorted-window oracle must equal subset enumeration exactly."""

    def brute(self, p, R, src=None):
        idx = range(len(p))
        combos = itertools.combinations(idx, R)
        if src is not None:
            combos = (S for S in combos if src in S)
        return min(sum(abs(p[list(S)] - 1.0 / R)) for S in combos)

    @pytest.mark.parametrize("seed", range(6))
    def test_unconstrained(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 10))
        p = rng.random(n)
        p /= p.sum()
        oracle = UniformDeviationOracle(p)
        for R in range(1, n + 1):
            got, _ = oracle.best_sum(R)
            assert got == pytest.approx(self.brute(p, R), abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_require_source(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(4, 10))
        p = rng.random(n)
        p /= p.sum()
        src = int(rng.integers(n))
        oracle = UniformDeviationOracle(p, source=src)
        for R in range(1, n + 1):
            got, _ = oracle.best_sum(R, require_source=True)
            assert got == pytest.approx(self.brute(p, R, src), abs=1e-9)

    def test_with_ties(self):
        p = np.array([0.25, 0.25, 0.25, 0.25, 0.0, 0.0])
        oracle = UniformDeviationOracle(p, source=4)
        for R in range(1, 7):
            got, _ = oracle.best_sum(R)
            assert got == pytest.approx(self.brute(p, R), abs=1e-12)
            gots, _ = oracle.best_sum(R, require_source=True)
            assert gots == pytest.approx(self.brute(p, R, 4), abs=1e-12)

    def test_witness_achieves_sum(self):
        rng = np.random.default_rng(5)
        p = rng.random(9)
        p /= p.sum()
        oracle = UniformDeviationOracle(p, source=2)
        for R in (1, 3, 6, 9):
            for rs in (False, True):
                w = oracle.witness(R, require_source=rs)
                s, _ = oracle.best_sum(R, require_source=rs)
                assert len(w) == R
                assert len(set(w.tolist())) == R
                if rs:
                    assert 2 in w
                assert np.abs(p[w] - 1.0 / R).sum() == pytest.approx(s, abs=1e-9)

    def test_convenience_wrapper(self):
        p = np.array([0.5, 0.3, 0.2])
        assert best_uniform_deviation(p, 3) == pytest.approx(
            np.abs(p - 1 / 3).sum()
        )

    def test_r_out_of_range(self):
        oracle = UniformDeviationOracle(np.ones(3) / 3)
        with pytest.raises(ValueError):
            oracle.best_sum(0)
        with pytest.raises(ValueError):
            oracle.best_sum(4)

    def test_require_source_without_source(self):
        oracle = UniformDeviationOracle(np.ones(3) / 3)
        with pytest.raises(ValueError):
            oracle.best_sum(2, require_source=True)


class TestSizeGrid:
    def test_starts_at_ceil_n_over_beta(self):
        grid = size_grid(100, 4, 0.1)
        assert grid[0] == 25

    def test_ends_at_n(self):
        assert size_grid(100, 4, 0.1)[-1] == 100

    def test_geometric_growth(self):
        grid = size_grid(10000, 100, 0.5)
        ratios = [b / a for a, b in zip(grid, grid[1:-1])]
        assert all(r <= 1.5 + 0.02 for r in ratios)

    def test_beta_one_single_size(self):
        assert size_grid(50, 1, 0.1) == [50]

    def test_strictly_increasing_unique(self):
        grid = size_grid(37, 5, 0.046)
        assert grid == sorted(set(grid))

    def test_validation(self):
        with pytest.raises(ValueError):
            size_grid(10, 0.5, 0.1)
        with pytest.raises(ValueError):
            size_grid(10, 2, 0.0)


class TestLocalMixingTime:
    def test_barbell_local_is_constant(self, barbell_medium):
        res = local_mixing_time(barbell_medium, 0, beta=4)
        assert res.time <= 3
        assert res.set_size >= 16

    def test_barbell_gap_vs_global(self, barbell_medium):
        g = barbell_medium
        t_local = local_mixing_time(g, 0, beta=4).time
        t_mix = mixing_time(g, 0, DEFAULT_EPS)
        assert t_mix > 50 * t_local  # §2.3(d): the headline gap

    def test_beta_one_equals_mixing_time(self, regular_graph):
        """§2.2: τ_s(1, ε) = τ_s^mix(ε).

        The uniform target ``1/n`` is π only on regular graphs (the paper's
        §3 assumption), so the identity is checked there.
        """
        g = regular_graph
        res = local_mixing_time(g, 0, beta=1)
        assert res.time == mixing_time(g, 0, DEFAULT_EPS)

    def test_local_le_mixing(self, regular_graph):
        g = regular_graph
        for beta in (1, 2, 4):
            assert (
                local_mixing_time(g, 0, beta=beta).time
                <= mixing_time(g, 0, DEFAULT_EPS)
            )

    def test_uniform_target_needs_regularity_headroom(self, barbell_small):
        """On the k=5 barbell the degree-inhomogeneity term
        Σ|d(v)/µ(S) − 1/|S|| ≈ 0.08 exceeds ε = 1/(8e) ≈ 0.046, so the
        paper's uniform check can never fire from an interior source — a
        concrete witness that the §3 regularity assumption is load-bearing.
        """
        with pytest.raises(ConvergenceError):
            local_mixing_time(barbell_small, 0, beta=3, t_max=3000)
        # With ε above the inhomogeneity term it fires immediately.
        res = local_mixing_time(barbell_small, 0, beta=3, eps=0.15)
        assert res.time <= 4

    def test_beta_monotonicity(self, barbell_medium):
        """§2.3: β₁ ≥ β₂ ⇒ τ_s(β₁) ≤ τ_s(β₂)."""
        g = barbell_medium
        times = [
            local_mixing_time(g, 0, beta=b).time for b in (1, 2, 4)
        ]
        assert times[2] <= times[1] <= times[0]

    def test_witness_satisfies_definition(self, barbell_medium):
        g = barbell_medium
        res, witness = find_witness_set(g, 0, beta=4)
        assert len(witness) == res.set_size
        p = distribution_at(g, 0, res.time)
        # uniform-target deviation below threshold by construction
        assert np.abs(p[witness] - 1 / res.set_size).sum() < res.threshold

    def test_complete_graph(self):
        g = gen.complete_graph(64)
        assert local_mixing_time(g, 0, beta=2).time == 1

    def test_grid_vs_all_sizes(self, barbell_medium):
        g = barbell_medium
        t_all = local_mixing_time(g, 0, beta=4, sizes="all").time
        t_grid = local_mixing_time(g, 0, beta=4, sizes="grid").time
        # the grid checks fewer sizes, so it can only stop later-or-equal
        assert t_grid >= t_all

    def test_explicit_sizes(self, barbell_medium):
        res = local_mixing_time(barbell_medium, 0, beta=4, sizes=[16, 32])
        assert res.set_size in (16, 32)

    def test_doubling_schedule_within_2x(self, barbell_medium):
        g = barbell_medium
        exact = local_mixing_time(g, 0, beta=4, t_schedule="all").time
        doubled = local_mixing_time(g, 0, beta=4, t_schedule="doubling").time
        assert doubled <= max(2 * exact, 1)

    def test_require_source(self, barbell_medium):
        g = barbell_medium
        res = local_mixing_time(g, 0, beta=4, require_source=True)
        assert res.time <= 3  # source's own clique is the witness

    def test_validation(self, cycle9):
        with pytest.raises(ValueError):
            local_mixing_time(cycle9, 0, beta=0.5)
        with pytest.raises(ValueError):
            local_mixing_time(cycle9, 0, beta=2, eps=0)
        with pytest.raises(ValueError):
            local_mixing_time(cycle9, 99, beta=2)
        with pytest.raises(ValueError):
            local_mixing_time(cycle9, 0, beta=2, sizes="bogus")
        with pytest.raises(ValueError):
            local_mixing_time(cycle9, 0, beta=2, sizes=[0, 99])
        with pytest.raises(ValueError):
            local_mixing_time(cycle9, 0, beta=2, t_schedule="fibonacci")
        with pytest.raises(TypeError, match="target"):
            local_mixing_time(cycle9, 0, beta=2, target="uniform")

    def test_bipartite_needs_lazy(self, path8):
        with pytest.raises(BipartiteGraphError):
            local_mixing_time(path8, 0, beta=2)
        # Small irregular path: use an ε above the endpoint-degree
        # inhomogeneity so the lazy walk's check can fire.
        assert local_mixing_time(path8, 0, beta=2, eps=0.3, lazy=True).time > 0

    def test_t_max_exhaustion(self, barbell_medium):
        with pytest.raises(ConvergenceError):
            local_mixing_time(
                barbell_medium, 0, beta=1, eps=1e-9, t_max=5
            )

    def test_result_metadata(self, barbell_medium):
        res = local_mixing_time(barbell_medium, 0, beta=4)
        assert res.deviation < res.threshold
        assert res.steps_checked >= 1
        assert res.sizes_checked >= res.steps_checked


class TestGraphLocalMixing:
    # ε = 0.15 clears the k=5 barbell's degree-inhomogeneity floor (see
    # test_uniform_target_needs_regularity_headroom).
    def test_max_over_sources(self, barbell_small):
        g = barbell_small
        full = graph_local_mixing_time(g, beta=3, eps=0.15)
        per = max(
            local_mixing_time(g, s, beta=3, eps=0.15).time for s in range(g.n)
        )
        assert full == per

    def test_sampled_sources(self, barbell_small):
        g = barbell_small
        sampled = graph_local_mixing_time(g, beta=3, eps=0.15, sources=[0, 7])
        assert sampled <= graph_local_mixing_time(g, beta=3, eps=0.15)


class TestNonMonotoneProfile:
    def test_profile_non_monotone_on_barbell(self, barbell_medium):
        """§3 remark: the best local deviation is not monotone in t, which
        is why Algorithm 2 cannot binary-search the length."""
        prof = local_mixing_profile(
            barbell_medium, 0, beta=4, sizes="grid", t_max=40
        )
        diffs = np.diff(prof)
        assert (diffs > 1e-9).any(), "expected at least one increase"

    def test_profile_hits_threshold_at_local_mixing_time(self, barbell_medium):
        g = barbell_medium
        res = local_mixing_time(g, 0, beta=4, sizes="grid")
        prof = local_mixing_profile(g, 0, beta=4, sizes="grid", t_max=res.time)
        assert prof[res.time] < DEFAULT_EPS
        assert (prof[: res.time] >= DEFAULT_EPS).all()


class TestProfileBatched:
    """local_mixing_profile now rides the batched engine (single column);
    require_source keeps the per-source path."""

    def test_profile_bitwise_matches_trajectory_loop(self):
        from repro.walks.distribution import distribution_trajectory
        from repro.walks.local_mixing import _candidate_sizes
        from repro.constants import DEFAULT_EPS

        g = gen.beta_barbell(3, 6)
        prof = local_mixing_profile(g, 2, beta=3, t_max=20)
        cand = _candidate_sizes(g.n, 3, "all", DEFAULT_EPS)
        ref = np.empty(21)
        for t, p in distribution_trajectory(g, 2, t_max=20):
            oracle = UniformDeviationOracle(p, source=2)
            ref[t] = min(oracle.best_sum(R)[0] for R in cand)
        assert np.array_equal(prof, ref)

    def test_require_source_path_still_constrained(self):
        g = gen.beta_barbell(3, 6)
        free = local_mixing_profile(g, 0, beta=3, t_max=15)
        constrained = local_mixing_profile(
            g, 0, beta=3, t_max=15, require_source=True
        )
        assert constrained.shape == free.shape
        # The constraint can only increase the best deviation.
        assert (constrained >= free - 1e-12).all()
