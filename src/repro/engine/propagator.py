"""Block propagation of many walk distributions at once.

A :class:`BlockPropagator` holds an ``n × k`` column block ``P`` whose
``j``-th column is the walk distribution of source ``sources[j]`` and
advances all of them with a single sparse mat-mat per step::

    P_{t+1} = A @ P_t        # one csr @ dense product, k columns in lockstep

Each column evolves through exactly the same floating-point operations as
the single-source ``p ← A @ p`` matvec (scipy's CSR kernels accumulate row
nonzeros in the same order for matvec and matmat), so the block trajectory
is **bitwise identical** to ``k`` independent
:func:`~repro.walks.distribution.distribution_trajectory` runs.
"""

from __future__ import annotations

from operator import matmul
from typing import Iterator, Sequence

import numpy as np

from repro.graphs.base import Graph
from repro.spectral.transition import walk_operator

__all__ = ["BlockPropagator"]


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
        The ``(A, P) -> A @ P`` step (default :func:`operator.matmul`);
        the engine drivers pass the kernel profiler's timing closure
        around it while observability is enabled.
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
        self._step_block = matmul if step_block is None else step_block
        self._P = _one_hot_block(g.n, src)
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
        """Advance one walk step (one sparse mat-mat) and return the block."""
        self._P = self._step_block(self._A, self._P)
        self.t += 1
        return self._P

    def advance_to(self, t: int) -> np.ndarray:
        """Advance to walk length ``t`` (must not go backwards)."""
        if t < self.t:
            raise ValueError(f"cannot rewind from t={self.t} to t={t}")
        while self.t < t:
            self.step()
        return self._P

    def trajectory(
        self, *, t_max: int | None = None
    ) -> Iterator[tuple[int, np.ndarray]]:
        """Yield ``(t, P_t)`` from the current ``t`` onwards (``t_max``
        inclusive).  The yielded block is reused internally — copy to keep."""
        yield self.t, self._P
        while t_max is None or self.t < t_max:
            yield self.t + 1, self.step()

    def drop_columns(self, keep: np.ndarray) -> None:
        """Restrict the block to the columns in ``keep`` (positions, in
        order).  Used by the drivers to stop propagating resolved sources;
        slicing does not perturb the surviving columns' values."""
        keep = np.asarray(keep, dtype=np.int64)
        self._P = np.ascontiguousarray(self._P[:, keep])
        self.sources = self.sources[keep]
