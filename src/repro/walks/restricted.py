"""Restricted distributions over a vertex subset (paper Section 2.2).

For a subset ``S``:

* ``π_S(v) = d(v)/µ(S)`` on ``S``, 0 outside — the stationary distribution
  restricted to ``S`` (it *is* a probability distribution on ``S``).
* ``p_t↾S`` — the walk distribution with entries outside ``S`` zeroed (not
  renormalized; its sum can be < 1).
* ``τ_s^S(β,ε) = min{t : ‖p_t↾S − π_S‖₁ < ε}`` — the set mixing time, which
  may not exist (the paper then takes it to be ∞): the deviation is **not**
  monotone in ``t`` for proper subsets, unlike Lemma 1's global statement.
"""

from __future__ import annotations

import math

import numpy as np

from repro.constants import MAX_WALK_LENGTH_FACTOR
from repro.graphs.base import Graph
from repro.walks.distribution import distribution_trajectory
from repro.walks.local_mixing import _check_knobs, _is_integer

__all__ = [
    "restrict",
    "restricted_stationary",
    "set_l1_deviation",
    "set_mixing_time",
]


def _as_index(nodes, n: int) -> np.ndarray:
    """``nodes`` as sorted unique labels in ``[0, n)``.  Each label passes
    the knob table's integer rule, so a float or bool label raises
    ``TypeError`` instead of being truncated into another node."""
    if isinstance(nodes, np.ndarray):
        integral = nodes.dtype.kind in "iu"  # a bool dtype is kind "b"
    else:
        # Per element: np.asarray([1, True]) is int64 and hides the bool.
        nodes = list(nodes)
        integral = all(map(_is_integer, nodes))
    if not integral:
        raise TypeError("node labels must be integers")
    idx = np.unique(np.asarray(nodes, dtype=np.int64))
    if idx.size == 0:
        raise ValueError("subset must be non-empty")
    if idx[0] < 0 or idx[-1] >= n:
        raise ValueError("node label out of range")
    return idx


def restrict(p: np.ndarray, nodes, n: int | None = None) -> np.ndarray:
    """``p↾S``: copy of ``p`` with entries outside ``nodes`` zeroed."""
    p = np.asarray(p, dtype=np.float64)
    idx = _as_index(nodes, p.size)
    out = np.zeros_like(p)
    out[idx] = p[idx]
    return out


def restricted_stationary(g: Graph, nodes) -> np.ndarray:
    """``π_S`` as a length-``n`` vector: ``d(v)/µ(S)`` on ``S``, 0 outside."""
    idx = _as_index(nodes, g.n)
    out = np.zeros(g.n, dtype=np.float64)
    vol = float(g.degrees[idx].sum())
    out[idx] = g.degrees[idx] / vol
    return out


def set_l1_deviation(g: Graph, p: np.ndarray, nodes) -> float:
    """``‖p↾S − π_S‖₁`` — the quantity Definition 2 thresholds at ε.

    Only entries inside ``S`` contribute (both vectors vanish outside).
    """
    idx = _as_index(nodes, g.n)
    p = np.asarray(p, dtype=np.float64)
    vol = float(g.degrees[idx].sum())
    target = g.degrees[idx] / vol
    return float(np.abs(p[idx] - target).sum())


def set_mixing_time(
    g: Graph,
    source: int,
    nodes,
    eps: float,
    *,
    lazy: bool = False,
    t_max: int | None = None,
) -> float:
    """``τ_s^S(ε)``: first ``t`` with ``‖p_t↾S − π_S‖₁ < ε``.

    Returns ``math.inf`` when no such ``t ≤ t_max`` exists (Definition 2
    allows the walk to never mix in a given set).  Because the deviation is
    not monotone in ``t``, every step up to ``t_max`` is examined.

    ``t_max`` defaults to ``8·n³`` — a safe multiple of the worst-case
    mixing time, after which larger ``t`` cannot help on these scales.

    The knobs pass the knob table
    (:data:`~repro.walks.local_mixing._KNOB_RULES`).  A bipartite graph is
    not refused even when ``lazy=False``: one side of it is a legitimate
    mixing set.
    """
    _check_knobs(source=source, eps=eps, lazy=lazy, t_max=t_max)
    if not 0 <= source < g.n:
        raise ValueError("source out of range")
    idx = _as_index(nodes, g.n)
    if source not in set(idx.tolist()):
        # Definition 2 wants s ∈ S; allow it but flag clearly.
        raise ValueError("source must belong to the subset S")
    if t_max is None:
        t_max = MAX_WALK_LENGTH_FACTOR * g.n**3
    vol = float(g.degrees[idx].sum())
    target = g.degrees[idx] / vol
    for t, p in distribution_trajectory(g, source, lazy=lazy, t_max=t_max):
        if float(np.abs(p[idx] - target).sum()) < eps:
            return t
    return math.inf
