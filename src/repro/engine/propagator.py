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

For random access in ``t`` — the doubling and binary search of the global
mixing time (:func:`~repro.engine.batch.batched_mixing_times`) — the
module keeps a small shared cache of
:class:`~repro.walks.distribution.SpectralPropagator` instances keyed by
``(graph, lazy)``: the ``O(n³)`` eigendecomposition is paid once per
operator and reused by every caller.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from operator import matmul
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from repro.graphs.base import Graph
from repro.spectral.transition import walk_operator
from repro.walks.distribution import SpectralPropagator

__all__ = [
    "BlockPropagator",
    "shared_spectral_propagator",
    "clear_propagator_cache",
    "set_propagator_cache_maxsize",
    "propagator_cache_info",
]

#: Default bound on cached eigendecompositions; each entry holds a dense
#: ``n × n`` eigenbasis, so the cache is deliberately small.
_DEFAULT_CACHE_MAXSIZE = 8

_cache: OrderedDict[tuple[Graph, bool], SpectralPropagator] = OrderedDict()
_cache_maxsize = _DEFAULT_CACHE_MAXSIZE
_cache_hits = 0
_cache_misses = 0
#: Guards every mutation of the shared cache (lookup/insert/evict, clear,
#: re-bound): the async serving layer runs engine calls on a thread pool,
#: so concurrent solves share this process-wide state.  The eigendecomposition
#: itself is computed OUTSIDE the lock — a long solve must not serialize
#: unrelated graphs — so two threads racing on the same new key may both
#: decompose, and the insert keeps the first-published instance.
_cache_lock = threading.RLock()


class PropagatorCacheInfo(NamedTuple):
    """Statistics of the shared spectral-propagator cache (mirrors
    ``functools.lru_cache``'s ``cache_info`` tuple)."""

    hits: int
    misses: int
    maxsize: int
    currsize: int


def shared_spectral_propagator(g: Graph, lazy: bool = False) -> SpectralPropagator:
    """A process-wide LRU cache of spectral propagators keyed by
    ``(graph, lazy)``.

    :class:`~repro.graphs.base.Graph` is immutable and hashes by its CSR
    arrays, so two structurally equal graphs share one eigendecomposition —
    in particular, a :class:`~repro.dynamic.DynamicGraph` snapshot that
    returns to a previously seen structure hits the cache.  Each entry stores
    a dense ``n × n`` eigenbasis, so global-mixing-time workloads over many
    distinct snapshots should bound the held memory with
    :func:`set_propagator_cache_maxsize` or drop it with
    :func:`clear_propagator_cache`.
    """
    global _cache_hits, _cache_misses
    key = (g, lazy)
    with _cache_lock:
        prop = _cache.get(key)
        if prop is not None:
            _cache_hits += 1
            _cache.move_to_end(key)
            return prop
        _cache_misses += 1
    prop = SpectralPropagator(g, lazy=lazy)
    with _cache_lock:
        raced = _cache.get(key)
        if raced is not None:
            # Another thread published the same structure while we were
            # decomposing; keep one instance so callers share memory.
            _cache.move_to_end(key)
            return raced
        _cache[key] = prop
        while len(_cache) > _cache_maxsize:
            _cache.popitem(last=False)
    return prop


def clear_propagator_cache() -> None:
    """Drop every cached eigendecomposition (and reset the hit counters).

    Global-mixing-time calls on many structurally distinct graphs (e.g.
    the snapshots of a dynamic network) each pin one; this releases the
    dense eigenbases they pinned."""
    global _cache_hits, _cache_misses
    with _cache_lock:
        _cache.clear()
        _cache_hits = 0
        _cache_misses = 0


def set_propagator_cache_maxsize(maxsize: int) -> None:
    """Re-bound the shared propagator cache (evicting LRU entries to fit).

    ``maxsize=0`` disables caching entirely — every call pays the ``O(n³)``
    eigendecomposition, but no dense basis is retained.  Anything but a
    non-negative integer is rejected at this front door (a float or bool
    would silently change the eviction arithmetic; a negative bound has no
    meaning), which also protects the parallel layer: the executor
    forwards this setting verbatim to every worker on spawn."""
    global _cache_maxsize
    if isinstance(maxsize, bool) or not isinstance(
        maxsize, (int, np.integer)
    ):
        raise ValueError(
            f"maxsize must be a non-negative integer, got {maxsize!r}"
        )
    if maxsize < 0:
        raise ValueError(f"maxsize must be >= 0, got {maxsize}")
    with _cache_lock:
        _cache_maxsize = int(maxsize)
        while len(_cache) > _cache_maxsize:
            _cache.popitem(last=False)


def propagator_cache_info() -> PropagatorCacheInfo:
    """Current ``(hits, misses, maxsize, currsize)`` of the shared cache."""
    with _cache_lock:
        return PropagatorCacheInfo(
            _cache_hits, _cache_misses, _cache_maxsize, len(_cache)
        )


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
