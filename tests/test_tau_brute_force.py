"""τ_s(β, ε) against an exhaustive subset search (Definition 2).

For every walk length ``t`` and every set size ``R ≥ ⌈n/β⌉`` the search
takes the minimum of ``Σ_{u∈S} |p_t(u) − 1/R|`` over *every* subset ``S``
of size ``R`` (containing the source when ``require_source``), and stops
at the first ``(t, R)`` below ``ε``.  The per-source loop and the batched
engine must both stop at that ``(time, set_size)``, on irregular graphs
too, and the engine must equal the loop.  Graphs stay at ``n ≤ 12``: the
search is ``2^n`` subsets per step.
"""

import itertools
import math

import numpy as np
import pytest

from repro.engine import batched_local_mixing_times
from repro.graphs import generators as gen
from repro.walks.distribution import distribution_trajectory
from repro.walks.local_mixing import local_mixing_time

BETA = 2.0
EPS = 0.25
T_MAX = 2000

GRAPHS = [
    (gen.path_graph(10), True),
    (gen.lollipop(5, 5), False),
    (gen.dumbbell(4, 2), False),
]


def _subsets(n: int, R: int, source: int | None) -> np.ndarray:
    """Indicator rows of every size-``R`` subset (containing ``source``
    when given)."""
    rows = [
        S for S in itertools.combinations(range(n), R)
        if source is None or source in S
    ]
    out = np.zeros((len(rows), n))
    for i, S in enumerate(rows):
        out[i, list(S)] = 1.0
    return out


def _brute_force_tau(g, source, lazy, require_source):
    """``(time, set_size)`` of the first ``(t, R)`` whose best subset is
    below ``EPS``, by enumerating every subset."""
    sizes = range(math.ceil(g.n / BETA), g.n + 1)
    pinned = source if require_source else None
    masks = {R: _subsets(g.n, R, pinned) for R in sizes}
    for t, p in distribution_trajectory(g, source, lazy=lazy, t_max=T_MAX):
        for R in sizes:
            if (masks[R] @ np.abs(p - 1.0 / R)).min() < EPS:
                return t, R
    raise AssertionError(f"no hit up to t={T_MAX}")


@pytest.mark.parametrize("require_source", [False, True])
@pytest.mark.parametrize(
    "g,lazy", GRAPHS, ids=["lazy_path10", "lollipop5_5", "dumbbell4_2"]
)
def test_loop_and_engine_match_exhaustive_search(g, lazy, require_source):
    knobs = dict(lazy=lazy, t_max=T_MAX, require_source=require_source)
    loop = [
        local_mixing_time(g, s, BETA, EPS, **knobs) for s in range(g.n)
    ]
    assert batched_local_mixing_times(g, BETA, EPS, **knobs) == loop
    for s, res in enumerate(loop):
        assert (res.time, res.set_size) == _brute_force_tau(
            g, s, lazy, require_source
        ), f"source {s}"
