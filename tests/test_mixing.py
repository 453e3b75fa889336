"""Unit tests for global mixing times (Definition 1 + Lemma 1)."""

import numpy as np
import pytest

from repro.constants import DEFAULT_EPS
from repro.errors import BipartiteGraphError, ConvergenceError
from repro.graphs import generators as gen
from repro.spectral import stationary_distribution
from repro.walks import (
    distribution_trajectory,
    graph_mixing_time,
    l1_distance,
    mixing_time,
)


class TestMixingTime:
    def test_complete_graph_is_one(self):
        # §2.3(a): p_1 is eps-close to uniform on K_n for large-enough n
        g = gen.complete_graph(64)
        assert mixing_time(g, 0, DEFAULT_EPS) == 1

    def test_methods_agree(self, nonbipartite_graph):
        g = nonbipartite_graph
        a = mixing_time(g, 0, DEFAULT_EPS, method="iterative")
        b = mixing_time(g, 0, DEFAULT_EPS, method="spectral")
        assert a == b

    def test_definition_first_time_below_eps(self, barbell_small):
        g = barbell_small
        eps = DEFAULT_EPS
        t = mixing_time(g, 0, eps)
        pi = stationary_distribution(g)
        dists = {
            s: l1_distance(p, pi)
            for s, p in distribution_trajectory(g, 0, t_max=t)
        }
        assert dists[t] < eps
        if t > 0:
            assert dists[t - 1] >= eps

    def test_monotone_in_eps(self, barbell_small):
        t_loose = mixing_time(barbell_small, 0, 0.25)
        t_tight = mixing_time(barbell_small, 0, 0.01)
        assert t_tight >= t_loose

    def test_bipartite_rejected_without_lazy(self, path8):
        with pytest.raises(BipartiteGraphError):
            mixing_time(path8, 0, DEFAULT_EPS)

    def test_bipartite_ok_with_lazy(self, path8):
        assert mixing_time(path8, 0, DEFAULT_EPS, lazy=True) > 0

    def test_eps_validation(self, cycle9):
        with pytest.raises(ValueError):
            mixing_time(cycle9, 0, 0.0)
        with pytest.raises(ValueError):
            mixing_time(cycle9, 0, 1.0)

    def test_t_max_exhaustion_raises(self, barbell_small):
        with pytest.raises(ConvergenceError):
            mixing_time(barbell_small, 0, 1e-9, t_max=3, method="iterative")
        with pytest.raises(ConvergenceError):
            mixing_time(barbell_small, 0, 1e-9, t_max=3, method="spectral")

    def test_unknown_method(self, cycle9):
        with pytest.raises(ValueError):
            mixing_time(cycle9, 0, 0.1, method="quantum")

    def test_barbell_mixing_large(self, barbell_medium):
        # The bottleneck forces a large mixing time (Ω(β²) scale).
        assert mixing_time(barbell_medium, 0, DEFAULT_EPS) > 100


class TestLemma1Monotonicity:
    """Lemma 1: ‖p_{t+1} − π‖₁ ≤ ‖p_t − π‖₁ (global distance only)."""

    @pytest.mark.parametrize("source", [0, 4])
    def test_distance_non_increasing(self, nonbipartite_graph, source):
        g = nonbipartite_graph
        if source >= g.n:
            source = g.n - 1
        pi = stationary_distribution(g)
        dists = [
            l1_distance(p, pi)
            for _, p in distribution_trajectory(g, source, t_max=60)
        ]
        for a, b in zip(dists, dists[1:]):
            assert b <= a + 1e-12


class TestGraphMixingTime:
    def test_max_over_sources(self, barbell_small):
        g = barbell_small
        per_source = [
            mixing_time(g, s, DEFAULT_EPS) for s in range(g.n)
        ]
        assert graph_mixing_time(g, DEFAULT_EPS) == max(per_source)

    def test_source_sample(self, barbell_small):
        g = barbell_small
        full = graph_mixing_time(g, DEFAULT_EPS)
        sampled = graph_mixing_time(g, DEFAULT_EPS, sources=[0, 7, 14])
        assert sampled <= full

    def test_vertex_transitive_single_source_suffices(self, cycle9):
        assert graph_mixing_time(cycle9, DEFAULT_EPS) == mixing_time(
            cycle9, 0, DEFAULT_EPS
        )


class TestGraphMixingTimeEngines:
    """graph_mixing_time runs on the batched engine; the per-source
    mixing_time stays the validation reference."""

    def test_batch_default_equals_loop(self, barbell_small):
        g = barbell_small
        assert graph_mixing_time(g, DEFAULT_EPS) == max(
            mixing_time(g, s, DEFAULT_EPS) for s in range(g.n)
        )

    @pytest.mark.parametrize("method", ["iterative", "spectral"])
    def test_methods_agree_across_engines(self, nonbipartite_graph, method):
        g = nonbipartite_graph
        batch = graph_mixing_time(g, DEFAULT_EPS, method=method)
        loop = max(
            mixing_time(g, s, DEFAULT_EPS, method=method) for s in range(g.n)
        )
        assert batch == loop

    def test_lazy_path_engines_agree(self, path8):
        batch = graph_mixing_time(path8, DEFAULT_EPS, lazy=True)
        loop = max(
            mixing_time(path8, s, DEFAULT_EPS, lazy=True)
            for s in range(path8.n)
        )
        assert batch == loop

    def test_source_subset_engines_agree(self, barbell_small):
        g = barbell_small
        srcs = [0, 7, 14]
        assert graph_mixing_time(g, DEFAULT_EPS, sources=srcs) == max(
            mixing_time(g, s, DEFAULT_EPS, method="spectral") for s in srcs
        )
