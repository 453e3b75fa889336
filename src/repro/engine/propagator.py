"""Block propagation of many walk distributions at once.

A :class:`BlockPropagator` holds an ``n × k`` column block ``P`` whose
``j``-th column is the walk distribution of source ``sources[j]`` and
advances all of them with a single sparse mat-mat per step::

    P_{t+1} = A @ P_t        # one CSR × dense product, k columns in lockstep

The step is :func:`csr_step_block`: it calls scipy's CSR kernel
``csr_matvecs`` (the one ``A @ P`` itself runs for a dense block) directly,
into a zeroed output buffer the propagator reuses, so it skips scipy's
Python dispatch and the per-step allocation and gives bitwise ``A @ P``.
Each column evolves through exactly the same floating-point operations as
the single-source ``p ← A @ p`` matvec (the CSR kernels accumulate a row's
nonzeros in the same order, starting from zero, for one vector and for
many), so the block trajectory is **bitwise identical** to ``k``
independent :func:`~repro.walks.distribution.distribution_trajectory`
runs.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np
from scipy.sparse._sparsetools import csr_matvecs

from repro.graphs.base import Graph
from repro.spectral.transition import walk_operator

__all__ = ["BlockPropagator", "csr_step_block"]


def csr_step_block(A, P: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out ← A @ P`` for a square CSR ``A`` and C-contiguous float64
    ``(n, k)`` blocks ``P`` and ``out``; returns ``out``.  The engine's
    ``step_block`` kernel: bitwise ``A @ P``, with no allocation."""
    n, k = P.shape
    out.fill(0.0)  # the kernel accumulates into its output
    csr_matvecs(n, n, k, A.indptr, A.indices, A.data, P, out)
    return out


def _one_hot_block(n: int, sources: np.ndarray) -> np.ndarray:
    P = np.zeros((n, sources.size), dtype=np.float64)
    P[sources, np.arange(sources.size)] = 1.0
    return P


class BlockPropagator:
    """Advance ``k`` one-hot walk distributions in lockstep.

    Parameters
    ----------
    g:
        The graph (any connected graph the walk operator is defined on).
    sources:
        Source node per column.
    lazy:
        Use the lazy operator ``(I + A)/2``.
    step_block:
        The ``(A, P, out) -> out`` step (default :func:`csr_step_block`);
        the engine drivers pass the kernel profiler's timing closure
        around it while observability is enabled.

    A step writes into a buffer the propagator owns, so a returned block
    stays valid only until a later step reuses its memory: :meth:`step`
    overwrites the block from two steps back, and :meth:`advance_to`
    never overwrites the block that was current when it was called.
    """

    def __init__(
        self,
        g: Graph,
        sources: Sequence[int],
        *,
        lazy: bool = False,
        step_block=None,
    ):
        src = np.asarray(list(sources), dtype=np.int64)
        if src.ndim != 1 or src.size == 0:
            raise ValueError("need at least one source")
        if src.min() < 0 or src.max() >= g.n:
            raise ValueError("source out of range")
        self.graph = g
        self.lazy = lazy
        self.sources = src
        self._A = walk_operator(g, lazy=lazy)
        self._step_block = csr_step_block if step_block is None else step_block
        self._P = _one_hot_block(g.n, src)
        self._spare = np.empty_like(self._P)  # the next step's output
        self._third = None  # a multi-step advance's extra buffer, lazily
        self.t = 0

    @property
    def k(self) -> int:
        """Number of live columns."""
        return self._P.shape[1]

    @property
    def block(self) -> np.ndarray:
        """The current ``n × k`` block ``P_t`` (owned by the propagator)."""
        return self._P

    def step(self) -> np.ndarray:
        """Advance one walk step (one sparse mat-mat) and return the block;
        the block from two steps back is overwritten."""
        out = self._step_block(self._A, self._P, self._spare)
        self._spare, self._P = self._P, out
        self.t += 1
        return out

    def advance_to(self, t: int) -> np.ndarray:
        """Advance to walk length ``t`` (must not go backwards).  The block
        current at the call is not overwritten, however many steps it
        takes."""
        if t < self.t:
            raise ValueError(f"cannot rewind from t={self.t} to t={t}")
        if self.t < t:
            self.step()  # the caller's block is now the spare
        if self.t < t:
            held = self._spare
            if self._third is None:
                self._third = np.empty_like(held)
            self._spare = self._third
            while self.t < t:
                self.step()
            self._third = held
        return self._P

    def trajectory(
        self, *, t_max: int | None = None
    ) -> Iterator[tuple[int, np.ndarray]]:
        """Yield ``(t, P_t)`` from the current ``t`` onwards (``t_max``
        inclusive).  The yielded blocks reuse two buffers: a block is
        overwritten two steps later, so copy one to keep it."""
        yield self.t, self._P
        while t_max is None or self.t < t_max:
            yield self.t + 1, self.step()

    def drop_columns(self, keep: np.ndarray) -> None:
        """Restrict the block to the columns in ``keep`` (positions, in
        order).  Used by the drivers to stop propagating resolved sources;
        slicing does not perturb the surviving columns' values."""
        keep = np.asarray(keep, dtype=np.int64)
        self._P = np.ascontiguousarray(self._P[:, keep])
        self._spare, self._third = np.empty_like(self._P), None
        self.sources = self.sources[keep]
