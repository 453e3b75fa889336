"""Exact (global) mixing times — Definition 1.

``τ_s^mix(ε) = min{t : ‖p_t − π‖₁ < ε}``.  By the paper's Lemma 1 the
deviation ``‖p_t − π‖₁`` is non-increasing in ``t``, so the minimum can be
located by doubling + binary search — which is what the ``spectral`` method
does (each probe is ``O(n²)`` after one ``O(n³)`` diagonalization).  The
``iterative`` method scans ``t`` linearly with sparse matvecs and is better
when the answer is small or ``n`` is large.

:func:`mixing_time` is the per-source reference; :func:`graph_mixing_time`
takes the maximum of one batched engine call
(:func:`~repro.engine.batch.batched_mixing_times`), whose per-source times
equal the reference's.  Both doors check their knobs against the one knob
table (:data:`~repro.walks.local_mixing._KNOB_RULES`) and share the walk
preconditions of :func:`~repro.walks.local_mixing.local_mixing_time`.
"""

from __future__ import annotations

from repro.errors import ConvergenceError
from repro.graphs.base import Graph
from repro.spectral.stationary import stationary_distribution
from repro.walks.distribution import (
    SpectralPropagator,
    distribution_trajectory,
    l1_distance,
)
from repro.walks.local_mixing import _check_knobs, _resolve_walk_bounds

__all__ = ["mixing_time", "graph_mixing_time"]

#: Largest ``n`` on which ``method="auto"`` picks the spectral search: its
#: ``O(n³)`` eigendecomposition holds a dense ``8n²``-byte basis.
_AUTO_SPECTRAL_MAX_N = 3000


def _resolve_mixing_walk(
    g: Graph, lazy: bool, t_max: int | None, method: str
) -> tuple[int, str]:
    """Shared tail of the Definition-1 heads, run after the knob table:
    the walk preconditions and default ``t_max`` of
    :func:`~repro.walks.local_mixing._resolve_walk_bounds`, then
    ``method="auto"`` resolved.  Returns ``(t_max, method)``."""
    t_max = _resolve_walk_bounds(g, lazy, t_max)
    if method == "auto":
        method = "spectral" if g.n <= _AUTO_SPECTRAL_MAX_N else "iterative"
    return t_max, method


def mixing_time(
    g: Graph,
    source: int,
    eps: float,
    *,
    lazy: bool = False,
    method: str = "auto",
    t_max: int | None = None,
) -> int:
    """Exact ε-mixing time ``τ_s^mix(ε)`` with respect to ``source``.

    Parameters
    ----------
    method:
        ``"iterative"`` (linear scan), ``"spectral"`` (doubling + binary
        search on one eigendecomposition, valid by Lemma 1 monotonicity),
        or ``"auto"`` (spectral for n ≤ 3000, else iterative).
    """
    _check_knobs(source=source, eps=eps, lazy=lazy, t_max=t_max, method=method)
    if not 0 <= source < g.n:
        raise ValueError("source out of range")
    t_max, method = _resolve_mixing_walk(g, lazy, t_max, method)
    pi = stationary_distribution(g)

    if method == "iterative":
        for t, p in distribution_trajectory(g, source, lazy=lazy, t_max=t_max):
            if l1_distance(p, pi) < eps:
                return t
        raise ConvergenceError(
            f"no t <= {t_max} reached eps={eps}", last_length=t_max
        )

    prop = SpectralPropagator(g, lazy=lazy)

    def dist(t: int) -> float:
        return l1_distance(prop.from_source(source, t), pi)

    if dist(0) < eps:
        return 0
    # Doubling phase, every probe capped at t_max: find hi with
    # dist(hi) < eps after lo, the last probe with dist(lo) >= eps.
    lo, hi = 0, min(1, t_max)
    while hi > lo and dist(hi) >= eps:
        lo, hi = hi, min(2 * hi, t_max)
    if hi == lo:  # dist(t_max) >= eps
        raise ConvergenceError(
            f"no t <= {t_max} reached eps={eps}", last_length=t_max
        )
    # Binary search the threshold; valid because dist is non-increasing
    # (Lemma 1).
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if dist(mid) < eps:
            hi = mid
        else:
            lo = mid
    return hi


def graph_mixing_time(
    g: Graph,
    eps: float,
    *,
    lazy: bool = False,
    sources=None,
    method: str = "auto",
    t_max: int | None = None,
) -> int:
    """``τ_mix(ε) = max_v τ_v^mix(ε)``, optionally over a subset of sources.

    For vertex-transitive families a single source suffices; the experiment
    harness passes an explicit sample elsewhere.

    All sources are solved together on the batched multi-source engine
    (:func:`repro.engine.batched_mixing_times`): one block trajectory
    (iterative) or one eigendecomposition with lockstep doubling + binary
    search (spectral), with per-source times identical to
    :func:`mixing_time`.
    """
    from repro.engine import batched_mixing_times

    return max(
        batched_mixing_times(
            g, eps, sources=sources, lazy=lazy, method=method, t_max=t_max
        )
    )
