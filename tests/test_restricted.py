"""Unit tests for restricted distributions (paper §2.2)."""

import math

import numpy as np
import pytest

from repro.constants import DEFAULT_EPS
from repro.graphs import generators as gen
from repro.walks import (
    distribution_at,
    restrict,
    restricted_stationary,
    set_l1_deviation,
    set_mixing_time,
)


class TestRestrict:
    def test_zeroes_outside(self):
        p = np.array([0.2, 0.3, 0.5])
        out = restrict(p, [0, 2])
        np.testing.assert_allclose(out, [0.2, 0.0, 0.5])

    def test_not_renormalized(self):
        p = np.array([0.25, 0.25, 0.5])
        assert restrict(p, [0]).sum() == pytest.approx(0.25)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            restrict(np.ones(3) / 3, [])


class TestRestrictedStationary:
    def test_uniform_on_regular_subset(self, complete8):
        pi_s = restricted_stationary(complete8, [0, 1, 2])
        np.testing.assert_allclose(pi_s[[0, 1, 2]], 1 / 3)
        assert pi_s[3:].sum() == 0

    def test_degree_weighted(self, barbell_small):
        g = barbell_small
        sub = [3, 4, 5]  # includes bridge endpoints with higher degree
        pi_s = restricted_stationary(g, sub)
        deg = g.degrees[sub]
        np.testing.assert_allclose(pi_s[sub], deg / deg.sum())

    def test_sums_to_one(self, cycle9):
        assert restricted_stationary(cycle9, [1, 4, 7]).sum() == pytest.approx(1.0)

    def test_full_set_equals_global_stationary(self, barbell_small):
        from repro.spectral import stationary_distribution

        np.testing.assert_allclose(
            restricted_stationary(barbell_small, range(15)),
            stationary_distribution(barbell_small),
        )


class TestSetDeviation:
    def test_definition(self, barbell_small):
        g = barbell_small
        p = distribution_at(g, 0, 3)
        sub = list(range(5))
        manual = np.abs(
            p[sub] - g.degrees[sub] / g.degrees[sub].sum()
        ).sum()
        assert set_l1_deviation(g, p, sub) == pytest.approx(manual)

    def test_zero_when_exactly_stationary(self, complete8):
        pi_s = restricted_stationary(complete8, [0, 1, 2, 3])
        assert set_l1_deviation(complete8, pi_s, [0, 1, 2, 3]) == pytest.approx(0)


class TestSetMixingTime:
    def test_home_clique_mixes_fast(self, barbell_medium):
        g = barbell_medium
        t = set_mixing_time(g, 0, range(16), DEFAULT_EPS)
        assert t <= 3

    def test_full_set_equals_global(self, barbell_small):
        from repro.walks import mixing_time

        g = barbell_small
        t_set = set_mixing_time(g, 0, range(g.n), DEFAULT_EPS)
        assert t_set == mixing_time(g, 0, DEFAULT_EPS)

    def test_never_mixing_set_returns_inf(self, barbell_medium):
        # Half of the source's home clique: the walk spreads over the whole
        # clique, so a strict half never holds ≈ all the mass.
        g = barbell_medium
        t = set_mixing_time(g, 0, range(8), DEFAULT_EPS, t_max=2000)
        assert t == math.inf

    def test_source_must_be_in_set(self, cycle9):
        with pytest.raises(ValueError):
            set_mixing_time(cycle9, 0, [1, 2, 3], 0.1)

    def test_eps_validation(self, cycle9):
        with pytest.raises(ValueError):
            set_mixing_time(cycle9, 0, [0, 1], 1.5)

    def test_non_monotone_possible(self, barbell_medium):
        """The §3 remark: ‖p_t↾S − π_S‖₁ is NOT monotone in t.

        On the barbell, the home clique's restricted deviation first drops
        (local mixing) then RISES as mass leaks across the bridge toward
        global equilibrium (the clique ends up with ~1/β of the mass but
        π_S wants all of it).
        """
        g = barbell_medium
        sub = np.arange(16)
        vol = g.degrees[sub].sum()
        target = g.degrees[sub] / vol
        devs = []
        from repro.walks import distribution_trajectory

        for t, p in distribution_trajectory(g, 0, t_max=800):
            devs.append(np.abs(p[sub] - target).sum())
        devs = np.array(devs)
        t_min = int(devs.argmin())
        assert devs[t_min] < DEFAULT_EPS        # it locally mixes...
        assert devs[-1] > devs[t_min] + 0.25    # ...then deviates again


class TestNodeLabels:
    """Subset labels pass the knob table's integer rule at every door: a
    float or bool label is refused, never truncated into another node."""

    BAD = [[0.5, 1.7, True], [1.9, 2, 3], [True, 2, 3], np.array([0.0, 1.0]),
           np.array([True, False])]

    @pytest.fixture
    def g(self):
        return gen.random_regular(40, 4, seed=1)

    def _doors(self, g):
        p = distribution_at(g, 1, 3)
        return {
            "restrict": lambda nodes: restrict(p, nodes),
            "restricted_stationary": lambda nodes: restricted_stationary(
                g, nodes
            ),
            "set_l1_deviation": lambda nodes: set_l1_deviation(g, p, nodes),
            "set_mixing_time": lambda nodes: set_mixing_time(
                g, 1, nodes, 0.25, t_max=200
            ),
        }

    @pytest.mark.parametrize("bad", BAD, ids=repr)
    @pytest.mark.parametrize(
        "door", ["restrict", "restricted_stationary", "set_l1_deviation",
                 "set_mixing_time"],
    )
    def test_non_integer_labels_rejected(self, g, door, bad):
        with pytest.raises(TypeError, match="node labels must be integers"):
            self._doors(g)[door](bad)

    def test_mixed_lists_rejected(self, g):
        # The list casts to int64, so only a per-element check sees the
        # bool.
        assert np.asarray([1, True]).dtype == np.int64
        with pytest.raises(TypeError):
            set_mixing_time(g, 1, [1.9] + list(range(2, 40)), 0.25)
        with pytest.raises(TypeError):
            restricted_stationary(g, [1, True])

    @pytest.mark.parametrize(
        "door", ["restrict", "restricted_stationary", "set_l1_deviation",
                 "set_mixing_time"],
    )
    def test_integer_inputs_answer_alike(self, g, door):
        call = self._doors(g)[door]
        want = call(list(range(1, 40)))
        assert np.isfinite(want).all()
        for nodes in (range(1, 40), np.arange(1, 40, dtype=np.int64),
                      np.arange(1, 40, dtype=np.uint8),
                      [np.int64(v) for v in range(1, 40)]):
            got = call(nodes)
            assert np.array_equal(got, want)
