"""Tests for the batched engine's full knob space.

Two limits used to force the batched drivers back onto the per-source
loop: ``require_source=True`` and the per-``R`` bracket search in
``_solve_chunk`` (now the fused, search-free lower-bound prefilter).
These tests pin the load-bearing property: **identical** outputs
(LocalMixingResult equality — time, set size, bitwise deviation,
threshold, both counters) to the per-source reference, on regular *and*
irregular graphs, including node-churned dynamic snapshots, plus the
source-pinned :class:`~repro.dynamic.MixingTracker` against its
from-scratch reference.
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
    batched_local_mixing_profiles,
    batched_local_mixing_spectra,
    batched_local_mixing_times,
)
from repro.graphs import generators as gen
from repro.walks.distribution import distribution_trajectory
from repro.walks.local_mixing import (
    UniformDeviationOracle,
    _candidate_sizes,
    local_mixing_spectrum,
    local_mixing_time,
)

EPS = 0.4
T_MAX = 3000

# Irregular graphs: a dumbbell, a lollipop, and the β-barbell (bridge
# endpoints have degree d+1).  A star never mixes under the uniform
# target at this ε: its center holds half the stationary mass.
IRREGULAR = [
    (gen.dumbbell(4, 2), 2.0, False),
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


class TestIrregularEquivalence:
    """Batched vs the per-source loop on irregular graphs."""

    @pytest.mark.parametrize("g,beta,lazy", IRREGULAR, ids=lambda v: str(v))
    def test_identical_to_loop_all_sources(self, g, beta, lazy):
        assert _batch(g, beta, lazy) == _loop(g, beta, lazy)

    def test_node_churned_snapshots_identical(self):
        # Node churn produces irregular intermediate topologies.
        g = gen.random_regular(14, 4, seed=7)
        dyn = DynamicGraph(g)
        for upd in node_churn(g, 6, seed=9, attach=3):
            dyn.apply(upd)
            snap = dyn.snapshot()
            assert _batch(snap, 3.0, False) == _loop(snap, 3.0, False)

    def test_lollipop_require_source(self):
        g = gen.lollipop(6, 4)
        got = _batch(g, 2.0, True, require_source=True)
        assert got == _loop(g, 2.0, True, require_source=True)

    def test_chunked_equals_unchunked(self):
        g = gen.lollipop(7, 5)
        full = _batch(g, 2.0, True)
        chunked = batched_local_mixing_times(
            g, 2.0, EPS, lazy=True, t_max=T_MAX, batch_size=5
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

    def test_target_knob_is_gone(self):
        g = gen.cycle_graph(9)
        with pytest.raises(TypeError, match="target"):
            batched_local_mixing_times(g, 2.0, target="uniform")
        with pytest.raises(TypeError, match="target"):
            local_mixing_time(g, 0, 2.0, target="uniform")


class TestTrackerEquivalence:
    """MixingTracker(require_source=True) vs from-scratch."""

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

    def test_require_source_tracker_matches_from_scratch(self):
        g = gen.random_regular(16, 4, seed=25)
        updates = edge_markovian_churn(g, 6, seed=27)
        self._assert_trace_matches(g, updates, 3.0, require_source=True)

    def test_tracker_refuses_target(self):
        with pytest.raises(TypeError, match="target"):
            MixingTracker(2.0, target="uniform")
