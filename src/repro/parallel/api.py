"""Parallel front doors: multi-core solves with the loop-equivalence
guarantee.

:func:`parallel_local_mixing_times`, :func:`parallel_local_mixing_spectra`
and :func:`parallel_local_mixing_profiles` are drop-in sharded counterparts
of the batched engine drivers — same signature plus ``n_workers`` /
``executor`` / ``start_method`` — whose outputs are **identical** (same τ,
set sizes, bitwise-equal deviations, same bookkeeping counters) to the
serial call for every knob combination: the shards are contiguous source
ranges, each worker runs the unmodified batched kernel on its range, and
the per-source loop-equivalence guarantee makes the merge independent of
worker count and shard boundaries.

:func:`shard_map` is the generic escape hatch for per-source workloads
(Monte-Carlo estimator sweeps, per-graph family sweeps): apply a picklable
module-level function to every item across the pool, optionally with a
shared-memory graph prepended to each call.

All front doors validate every knob **in the parent** (through the engine's
shared validation head) before any process is touched, so bad calls raise
the same fail-fast errors as the serial drivers.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.constants import DEFAULT_EPS
from repro.graphs.base import Graph
from repro.engine.batch import (
    _prepare_profiles_call,
    _prepare_spectra_call,
    _prepare_times_call,
)
from repro.parallel.executor import ShardExecutor

__all__ = [
    "parallel_local_mixing_times",
    "parallel_local_mixing_spectra",
    "parallel_local_mixing_profiles",
    "shard_map",
]


def _resolve_executor(
    executor: ShardExecutor | None,
    n_workers: int | None,
    start_method: str | None,
) -> tuple[ShardExecutor, bool]:
    """Reuse the caller's executor or build a one-shot one (returned flag
    says whether the caller of this helper must close it)."""
    if executor is not None:
        return executor, False
    return ShardExecutor(n_workers, start_method=start_method), True


def parallel_local_mixing_times(
    g: Graph,
    beta: float,
    eps: float = DEFAULT_EPS,
    *,
    sources: Sequence[int] | None = None,
    sizes: str | list[int] = "all",
    threshold_factor: float = 1.0,
    grid_factor: float | None = None,
    t_schedule: str = "all",
    t_max: int | None = None,
    lazy: bool = False,
    require_source: bool = False,
    target: str = "uniform",
    method: str = "iterative",
    batch_size: int | None = None,
    n_workers: int | None = None,
    executor: ShardExecutor | None = None,
    start_method: str | None = None,
) -> list:
    """``τ_s(β,ε)`` for every source, solved on ``n_workers`` processes.

    Accepts the full knob space of
    :func:`~repro.engine.batch.batched_local_mixing_times` (``target``,
    ``require_source``, ``method``, schedules, grids,
    ``batch_size`` — the latter bounds each *worker's* sub-chunks) and
    returns, in ``sources`` order, results **identical** to the serial
    batched call — and therefore to the per-source reference loop.  Peak
    dense-block memory per process is ``n × ⌈k/W⌉`` for ``k`` sources on
    ``W`` workers.

    Pass a long-lived :class:`~repro.parallel.ShardExecutor` via
    ``executor`` to amortize worker spawn and graph publication across
    calls; otherwise a pool is created and torn down inside this call.
    ``n_workers`` doubles as the shard count when an executor is supplied.
    """
    src, _, _ = _prepare_times_call(
        g,
        beta,
        eps,
        sources=sources,
        sizes=sizes,
        threshold_factor=threshold_factor,
        grid_factor=grid_factor,
        t_schedule=t_schedule,
        t_max=t_max,
        lazy=lazy,
        target=target,
        method=method,
        batch_size=batch_size,
    )
    kwargs = dict(
        beta=beta,
        eps=eps,
        sizes=sizes,
        threshold_factor=threshold_factor,
        grid_factor=grid_factor,
        t_schedule=t_schedule,
        t_max=t_max,
        lazy=lazy,
        require_source=require_source,
        target=target,
        method=method,
        batch_size=batch_size,
    )
    ex, owned = _resolve_executor(executor, n_workers, start_method)
    try:
        return ex.run_sharded(g, "times", src, kwargs, n_shards=n_workers)
    finally:
        if owned:
            ex.close()


def parallel_local_mixing_spectra(
    g: Graph,
    eps: float = DEFAULT_EPS,
    *,
    sources: Sequence[int] | None = None,
    sizes: list[int] | None = None,
    grid_factor: float | None = None,
    t_max: int | None = None,
    lazy: bool = False,
    require_source: bool = False,
    method: str = "iterative",
    n_workers: int | None = None,
    executor: ShardExecutor | None = None,
    start_method: str | None = None,
) -> list[dict[int, int | float]]:
    """Sharded counterpart of
    :func:`~repro.engine.batch.batched_local_mixing_spectra`: the full
    per-source spectrum ``R → first t``, in ``sources`` order, identical to
    the serial call for every knob (``require_source`` and both methods
    included)."""
    src, _, _ = _prepare_spectra_call(
        g,
        eps,
        sources=sources,
        sizes=sizes,
        grid_factor=grid_factor,
        t_max=t_max,
        lazy=lazy,
        method=method,
    )
    kwargs = dict(
        eps=eps,
        sizes=sizes,
        grid_factor=grid_factor,
        t_max=t_max,
        lazy=lazy,
        require_source=require_source,
        method=method,
    )
    ex, owned = _resolve_executor(executor, n_workers, start_method)
    try:
        return ex.run_sharded(g, "spectra", src, kwargs, n_shards=n_workers)
    finally:
        if owned:
            ex.close()


def parallel_local_mixing_profiles(
    g: Graph,
    beta: float,
    *,
    sources: Sequence[int] | None = None,
    sizes: str | list[int] = "all",
    grid_factor: float = DEFAULT_EPS,
    t_max: int = 100,
    lazy: bool = False,
    require_source: bool = False,
    n_workers: int | None = None,
    executor: ShardExecutor | None = None,
    start_method: str | None = None,
) -> np.ndarray:
    """Sharded counterpart of
    :func:`~repro.engine.batch.batched_local_mixing_profiles`: the
    ``(k, t_max + 1)`` deviation-profile block, rows in ``sources`` order
    and bitwise equal to the serial call (each worker propagates only its
    own row block, so peak memory drops by the worker count)."""
    src, _ = _prepare_profiles_call(
        g, beta, sources=sources, sizes=sizes, grid_factor=grid_factor,
        t_max=t_max,
    )
    kwargs = dict(
        beta=beta,
        sizes=sizes,
        grid_factor=grid_factor,
        t_max=t_max,
        lazy=lazy,
        require_source=require_source,
    )
    ex, owned = _resolve_executor(executor, n_workers, start_method)
    try:
        return ex.run_sharded(g, "profiles", src, kwargs, n_shards=n_workers)
    finally:
        if owned:
            ex.close()


def shard_map(
    fn: Callable,
    items: Sequence,
    *,
    graph: Graph | None = None,
    n_workers: int | None = None,
    executor: ShardExecutor | None = None,
    start_method: str | None = None,
) -> list:
    """Apply ``fn`` to every item across the worker pool; results in
    ``items`` order.

    ``fn`` must be a picklable module-level callable.  Items are split into
    contiguous shards (:func:`~repro.parallel.executor.shard_bounds`), so
    ordering — and, when callers pre-derive per-item random seeds, the
    exact random streams — is independent of the worker count.  With
    ``graph`` given, the topology is published to shared memory once and
    ``fn`` is invoked as ``fn(shared_graph, item)``; otherwise as
    ``fn(item)``.

    This is the substrate the multi-source estimator sweeps
    (:func:`~repro.algorithms.estimate_rw_probability.estimate_rw_probabilities`,
    :func:`~repro.algorithms.local_mixing_time.local_mixing_times_congest`)
    and the per-graph family sweeps
    (:func:`~repro.analysis.sweeps.family_sweep`) fan out on.
    """
    if not callable(fn):
        raise TypeError("fn must be callable")
    ex, owned = _resolve_executor(executor, n_workers, start_method)
    try:
        return ex.map_items(fn, items, graph=graph, n_shards=n_workers)
    finally:
        if owned:
            ex.close()
