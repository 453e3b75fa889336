"""Exact random-walk probability distributions.

Two evaluation strategies:

* **iterative** — repeated sparse matvec ``p ← A p`` (``O(t·m)``); the right
  tool when distributions are needed at *every* step (local mixing scans).
* **spectral** — :class:`SpectralPropagator` diagonalizes the symmetrized
  walk operator once (``O(n³)``) and then evaluates ``p_t`` at *any* ``t`` in
  ``O(n²)``; the right tool for binary searches over ``t`` (global mixing
  time, which is monotone by the paper's Lemma 1).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.graphs.base import Graph
from repro.spectral.transition import walk_operator

__all__ = [
    "initial_distribution",
    "distribution_at",
    "distribution_trajectory",
    "SpectralPropagator",
    "l1_distance",
]


def initial_distribution(n: int, source: int) -> np.ndarray:
    """The paper's ``p_0(s)``: probability 1 at ``source``, 0 elsewhere."""
    # Imported here: repro.walks.local_mixing imports this module.
    from repro.walks.local_mixing import _check_knob_type

    _check_knob_type("source", source)
    if not 0 <= source < n:
        raise ValueError(f"source {source} out of range for n={n}")
    p = np.zeros(n, dtype=np.float64)
    p[source] = 1.0
    return p


def l1_distance(p: np.ndarray, q: np.ndarray) -> float:
    """``‖p − q‖₁`` (the paper's distance throughout)."""
    return float(np.abs(np.asarray(p) - np.asarray(q)).sum())


def distribution_at(
    g: Graph, source: int, t: int, *, lazy: bool = False
) -> np.ndarray:
    """Exact ``p_t`` for a walk from ``source`` by ``t`` sparse matvecs."""
    if t < 0:
        raise ValueError("t must be non-negative")
    A = walk_operator(g, lazy=lazy)
    p = initial_distribution(g.n, source)
    for _ in range(t):
        p = A @ p
    return p


def distribution_trajectory(
    g: Graph, source: int, *, lazy: bool = False, t_max: int | None = None
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(t, p_t)`` for ``t = 0, 1, 2, …`` (up to ``t_max`` inclusive).

    The yielded array is reused internally — callers that keep a reference
    must copy.
    """
    A = walk_operator(g, lazy=lazy)
    p = initial_distribution(g.n, source)
    t = 0
    yield t, p
    while t_max is None or t < t_max:
        p = A @ p
        t += 1
        yield t, p


class SpectralPropagator:
    """Random-access evaluation of ``p_t`` via eigendecomposition.

    Diagonalizes ``N = D^{-1/2} A_adj D^{-1/2}`` (symmetric, same spectrum as
    the walk matrix).  With ``N = U Λ Uᵀ``::

        p_t = D^{1/2} U Λ^t Uᵀ D^{-1/2} p_0

    so after the one-time ``O(n³)`` setup each evaluation is a dense matvec.
    Intended for ``n`` up to a few thousand.

    Parameters
    ----------
    g:
        Connected graph.
    lazy:
        Diagonalize the lazy operator ``(I+N)/2`` instead (needed for
        bipartite graphs where the simple walk is periodic).
    """

    def __init__(self, g: Graph, *, lazy: bool = False):
        g.require_connected()
        self.graph = g
        self.lazy = lazy
        import scipy.sparse as sp

        deg = g.degrees.astype(np.float64)
        self._sqrt_deg = np.sqrt(deg)
        inv = sp.diags(1.0 / self._sqrt_deg)
        N = (inv @ g.adjacency_matrix() @ inv).toarray()
        if lazy:
            N = 0.5 * (np.eye(g.n) + N)
        # eigh returns ascending eigenvalues.
        self._eigvals, self._eigvecs = np.linalg.eigh(N)

    def _lambda_power(self, t: int) -> np.ndarray:
        # |λ| ≤ 1 so λ**t underflows gracefully to 0 for huge t.
        return self._eigvals ** int(t)

    def propagate(self, p0: np.ndarray, t: int) -> np.ndarray:
        """``p_t`` for an arbitrary start distribution ``p0`` (a vector)."""
        if t < 0:
            raise ValueError("t must be non-negative")
        p0 = np.asarray(p0, dtype=np.float64)
        if p0.ndim != 1:
            raise ValueError("p0 must be a vector")
        coeff = self._eigvecs.T @ (p0 / self._sqrt_deg)
        return self._sqrt_deg * (self._eigvecs @ (self._lambda_power(t) * coeff))

    def from_source(self, source: int, t: int) -> np.ndarray:
        """``p_t`` for the one-hot start at ``source``."""
        if t < 0:
            raise ValueError("t must be non-negative")
        coeff = self._eigvecs[source, :] / self._sqrt_deg[source]
        return self._sqrt_deg * (self._eigvecs @ (self._lambda_power(t) * coeff))

    def from_sources_at(
        self, sources: np.ndarray, ts: np.ndarray
    ) -> np.ndarray:
        """``p_{ts[j]}`` for the one-hot start at ``sources[j]`` as an
        ``(n, k)`` block — each column evaluated at its *own* walk length.

        This is the workhorse of batched binary searches over ``t`` (global
        mixing times), where every column carries a different bracket.  The
        per-column arithmetic matches :meth:`from_source` up to BLAS
        accumulation order; callers that need decisions identical to the
        per-source path must re-verify near-threshold columns with
        :meth:`from_source` (see :func:`repro.engine.batch.batched_mixing_times`).
        """
        src = np.asarray(sources, dtype=np.int64)
        ts = np.asarray(ts, dtype=np.int64)
        if src.ndim != 1 or ts.shape != src.shape:
            raise ValueError("sources and ts must be 1-D of the same length")
        if np.any(ts < 0):
            raise ValueError("t must be non-negative")
        # (n, k): coefficient vectors of each one-hot start, as in from_source.
        coeff = (self._eigvecs[src, :] / self._sqrt_deg[src, None]).T
        lam = np.power(self._eigvals[:, None], ts[None, :])
        return self._sqrt_deg[:, None] * (self._eigvecs @ (lam * coeff))
