"""Coverage-widening tests: the exception hierarchy, constants, message
edge cases, and family registry internals."""

import math

import numpy as np
import pytest

import repro
from repro import constants
from repro.errors import (
    BipartiteGraphError,
    CongestViolationError,
    ConvergenceError,
    DisconnectedGraphError,
    GraphError,
    NotRegularError,
    ProtocolError,
    ReproError,
)


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            GraphError,
            NotRegularError,
            DisconnectedGraphError,
            BipartiteGraphError,
            ConvergenceError,
            CongestViolationError,
            ProtocolError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_graph_errors_nest(self):
        for exc in (NotRegularError, DisconnectedGraphError, BipartiteGraphError):
            assert issubclass(exc, GraphError)

    def test_convergence_error_carries_last_length(self):
        e = ConvergenceError("gave up", last_length=42)
        assert e.last_length == 42
        assert "gave up" in str(e)

    def test_catching_base_catches_everything(self):
        with pytest.raises(ReproError):
            raise CongestViolationError("too many bits")


class TestConstants:
    def test_default_eps_is_paper_value(self):
        assert constants.DEFAULT_EPS == pytest.approx(1 / (8 * math.e))

    def test_default_c_at_least_paper_minimum(self):
        assert constants.DEFAULT_C >= 6

    def test_perturbation_interval_ordering(self):
        assert constants.PERTURB_HIGH_EXP > constants.PERTURB_LOW_EXP

    def test_package_exports(self):
        # the public API promises these names
        for name in (
            "Graph",
            "beta_barbell",
            "local_mixing_time",
            "mixing_time",
            "DEFAULT_EPS",
        ):
            assert hasattr(repro, name)

    def test_version(self):
        assert repro.__version__.count(".") == 2


class TestMessageEdgeCases:
    def test_message_is_frozen(self):
        from repro.congest import Message

        m = Message(1, 4)
        with pytest.raises(AttributeError):
            m.bits = 99

    def test_bit_helpers_monotone(self):
        from repro.congest import fixed_point_bits, id_bits, int_bits

        assert id_bits(100) <= id_bits(1000)
        assert int_bits(5) <= int_bits(500)
        assert fixed_point_bits(64, 4) < fixed_point_bits(64, 8)


class TestFamilyInternals:
    def test_every_family_has_prediction_fields(self):
        from repro.graphs.families import FAMILIES

        for fam in FAMILIES.values():
            assert fam.description
            assert callable(fam.build)
            assert isinstance(fam.lazy, bool)

    def test_cycle_builder_forces_odd(self):
        from repro.graphs.families import _build_cycle

        g = _build_cycle(10, 2, None)
        assert g.n % 2 == 1  # aperiodic simple walk

    def test_expander_builder_forces_even_n(self):
        from repro.graphs.families import _build_expander

        g = _build_expander(33, 2, np.random.default_rng(0))
        assert (g.n * 8) % 2 == 0
        assert g.is_regular


class TestNumericalEdgeCases:
    def test_oracle_handles_all_zero_distribution(self):
        from repro.walks.local_mixing import UniformDeviationOracle

        # p can legitimately contain only zeros outside one entry
        p = np.zeros(6)
        p[2] = 1.0
        oracle = UniformDeviationOracle(p, source=2)
        s, _ = oracle.best_sum(3)
        assert s == pytest.approx(3 * (1 / 3))  # three zero-nodes at 1/3 each

    def test_oracle_single_node_distribution(self):
        from repro.walks.local_mixing import UniformDeviationOracle

        oracle = UniformDeviationOracle(np.array([1.0]), source=0)
        s, _ = oracle.best_sum(1)
        assert s == pytest.approx(0.0)

    def test_size_grid_n_equals_one(self):
        from repro.walks import size_grid

        assert size_grid(1, 1, 0.1) == [1]

    def test_flooding_on_two_node_graph(self):
        from repro.algorithms import estimate_rw_probability
        from repro.congest import CongestNetwork
        from repro.graphs import generators as gen

        g = gen.complete_graph(2)
        net = CongestNetwork(g)
        p = estimate_rw_probability(net, 0, 3)
        np.testing.assert_allclose(p, [0.0, 1.0])  # bipartite flip-flop

    def test_push_pull_two_nodes(self):
        from repro.gossip import PushPullSimulator
        from repro.graphs import generators as gen

        sim = PushPullSimulator(gen.complete_graph(2), seed=1)
        sim.step()
        assert int(sim.tokens.node_counts().min()) == 2


class TestNegativeTMax:
    """``t_max < 0`` names no walk length; every τ and spectrum driver
    rejects it with one message instead of answering (or failing to
    converge) differently."""

    @pytest.mark.parametrize(
        "call",
        [
            "local_mixing_time",
            "batched_local_mixing_times",
            "local_mixing_spectrum",
            "batched_local_mixing_spectra",
            "parallel_local_mixing_times",
            "canonical_times_key",
            "MixingTracker",
        ],
    )
    def test_rejected_by_every_driver(self, call):
        from repro.dynamic import MixingTracker
        from repro.engine import (
            batched_local_mixing_spectra,
            batched_local_mixing_times,
            canonical_times_key,
        )
        from repro.graphs import generators as gen
        from repro.parallel import parallel_local_mixing_times
        from repro.walks.local_mixing import (
            local_mixing_spectrum,
            local_mixing_time,
        )

        g = gen.random_regular(20, 4, seed=1)
        calls = {
            "local_mixing_time": lambda: local_mixing_time(g, 0, 4.0, t_max=-1),
            "batched_local_mixing_times": lambda: batched_local_mixing_times(
                g, 4.0, t_max=-1
            ),
            "local_mixing_spectrum": lambda: local_mixing_spectrum(
                g, 0, t_max=-1
            ),
            "batched_local_mixing_spectra": lambda: batched_local_mixing_spectra(
                g, t_max=-1
            ),
            "parallel_local_mixing_times": lambda: parallel_local_mixing_times(
                g, 4.0, t_max=-1, n_workers=2
            ),
            "canonical_times_key": lambda: canonical_times_key(
                g, 4.0, t_max=-1
            ),
            "MixingTracker": lambda: MixingTracker(4.0, t_max=-1).observe(g),
        }
        with pytest.raises(ValueError, match="t_max must be non-negative"):
            calls[call]()

    def test_zero_is_still_a_walk_length(self):
        from repro.engine import batched_local_mixing_spectra
        from repro.graphs import generators as gen
        from repro.walks.local_mixing import local_mixing_spectrum

        g = gen.random_regular(20, 4, seed=1)
        assert batched_local_mixing_spectra(g, sources=[0], t_max=0) == [
            local_mixing_spectrum(g, 0, t_max=0)
        ]
