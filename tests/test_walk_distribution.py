"""Unit tests for repro.walks.distribution (exact and spectral evolution)."""

import numpy as np
import pytest

from repro.graphs import generators as gen
from repro.spectral import stationary_distribution
from repro.walks import (
    SpectralPropagator,
    distribution_at,
    distribution_trajectory,
    initial_distribution,
    l1_distance,
)


class TestInitialDistribution:
    def test_one_hot(self):
        p = initial_distribution(5, 2)
        assert p.tolist() == [0, 0, 1, 0, 0]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            initial_distribution(5, 5)
        with pytest.raises(ValueError):
            initial_distribution(5, -1)


class TestDistributionAt:
    def test_t0_is_initial(self, barbell_small):
        p = distribution_at(barbell_small, 3, 0)
        np.testing.assert_array_equal(p, initial_distribution(15, 3))

    def test_one_step_uniform_over_neighbors(self, complete8):
        p = distribution_at(complete8, 0, 1)
        assert p[0] == 0
        np.testing.assert_allclose(p[1:], 1 / 7)

    def test_mass_conserved(self, nonbipartite_graph):
        for t in (1, 3, 10):
            p = distribution_at(nonbipartite_graph, 0, t)
            assert p.sum() == pytest.approx(1.0)
            assert (p >= -1e-15).all()

    def test_matches_matrix_power(self, cycle9):
        from repro.spectral import walk_operator

        A = walk_operator(cycle9).toarray()
        p_direct = np.linalg.matrix_power(A, 5) @ initial_distribution(9, 0)
        np.testing.assert_allclose(
            distribution_at(cycle9, 0, 5), p_direct, atol=1e-12
        )

    def test_negative_t_rejected(self, cycle9):
        with pytest.raises(ValueError):
            distribution_at(cycle9, 0, -1)

    def test_lazy_keeps_half_mass_locally_step1(self, cycle9):
        p = distribution_at(cycle9, 0, 1, lazy=True)
        assert p[0] == pytest.approx(0.5)

    def test_converges_to_stationary(self, barbell_small):
        pi = stationary_distribution(barbell_small)
        p = distribution_at(barbell_small, 0, 4000)
        assert l1_distance(p, pi) < 1e-3


class TestTrajectory:
    def test_yields_consecutive(self, cycle9):
        ts = [t for t, _ in zip(range(5), distribution_trajectory(cycle9, 0))]
        traj = distribution_trajectory(cycle9, 0, t_max=4)
        got = [(t, p.copy()) for t, p in traj]
        assert [t for t, _ in got] == [0, 1, 2, 3, 4]
        for t, p in got:
            np.testing.assert_allclose(p, distribution_at(cycle9, 0, t))

    def test_t_max_respected(self, cycle9):
        assert len(list(distribution_trajectory(cycle9, 0, t_max=7))) == 8


class TestSpectralPropagator:
    @pytest.mark.parametrize("lazy", [False, True])
    def test_matches_iterative(self, nonbipartite_graph, lazy):
        g = nonbipartite_graph
        prop = SpectralPropagator(g, lazy=lazy)
        for t in (0, 1, 2, 7, 33):
            np.testing.assert_allclose(
                prop.from_source(0, t),
                distribution_at(g, 0, t, lazy=lazy),
                atol=1e-9,
            )

    def test_propagate_arbitrary_start(self, barbell_small):
        g = barbell_small
        prop = SpectralPropagator(g)
        p0 = np.full(g.n, 1.0 / g.n)
        from repro.spectral import walk_operator

        A = walk_operator(g)
        want = A @ (A @ p0)
        np.testing.assert_allclose(prop.propagate(p0, 2), want, atol=1e-10)

    def test_huge_t_returns_stationary(self, barbell_small):
        prop = SpectralPropagator(barbell_small)
        pi = stationary_distribution(barbell_small)
        np.testing.assert_allclose(
            prop.from_source(0, 10**9), pi, atol=1e-9
        )

    def test_negative_t_rejected(self, cycle9):
        prop = SpectralPropagator(cycle9)
        with pytest.raises(ValueError):
            prop.from_source(0, -1)
        with pytest.raises(ValueError):
            prop.propagate(initial_distribution(9, 0), -2)

    def test_block_start_rejected(self, cycle9):
        # An (n, n) block would broadcast against the degree vector and
        # answer silently wrong; only a vector is a start distribution.
        with pytest.raises(ValueError, match="vector"):
            SpectralPropagator(cycle9).propagate(np.eye(9), 1)


class TestL1Distance:
    def test_zero_on_equal(self):
        p = np.array([0.5, 0.5])
        assert l1_distance(p, p) == 0.0

    def test_symmetry(self, rng):
        p, q = rng.random(6), rng.random(6)
        assert l1_distance(p, q) == pytest.approx(l1_distance(q, p))

    def test_known_value(self):
        assert l1_distance([1, 0], [0, 1]) == pytest.approx(2.0)
