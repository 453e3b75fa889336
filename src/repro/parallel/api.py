"""Parallel front doors: multi-core solves with the loop-equivalence
guarantee.

:func:`parallel_local_mixing_times` is the drop-in sharded counterpart of
:func:`~repro.engine.batch.batched_local_mixing_times` — same signature
plus ``n_workers`` / ``executor`` / ``start_method`` — whose output is
**identical** (same τ, set sizes, bitwise-equal deviations, same
bookkeeping counters) to the serial call for every knob combination: the
shards are contiguous source ranges, each worker runs the unmodified
batched kernel on its range, and the per-source loop-equivalence guarantee
makes the merge independent of worker count and shard boundaries.
Spectra and profiles have no sharded door; the serial batched drivers
serve them.

:func:`shard_map` is the generic escape hatch for per-source workloads
(Monte-Carlo estimator sweeps, per-graph family sweeps): apply a picklable
module-level function to every item across the pool, optionally with a
shared-memory graph prepended to each call.

Both front doors check their arguments **in the parent** before any
process is touched; the τ door runs the engine's shared validation head,
so bad calls raise the same fail-fast errors as the serial driver.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.constants import DEFAULT_EPS
from repro.graphs.base import Graph
from repro.engine.batch import _prepare_times_call
from repro.parallel.executor import ShardExecutor

__all__ = [
    "parallel_local_mixing_times",
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
    batch_size: int | None = None,
    n_workers: int | None = None,
    executor: ShardExecutor | None = None,
    start_method: str | None = None,
) -> list:
    """``τ_s(β,ε)`` for every source, solved on ``n_workers`` processes.

    Accepts the full knob space of
    :func:`~repro.engine.batch.batched_local_mixing_times` (``target``,
    ``require_source``, schedules, grids,
    ``batch_size`` — the latter bounds each *worker's* column tiles) and
    returns, in ``sources`` order, results **identical** to the serial
    batched call — and therefore to the per-source reference loop.  Each
    worker solves its ``⌈k/W⌉`` of ``k`` sources as the engine's column
    tiles, one at a time, so peak dense-block memory per process is ``n``
    times one tile's width.

    Pass a long-lived :class:`~repro.parallel.ShardExecutor` via
    ``executor`` to amortize worker spawn and graph publication across
    calls; otherwise a pool is created and torn down inside this call.
    ``n_workers`` doubles as the shard count when an executor is supplied.
    """
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
        batch_size=batch_size,
    )
    src, _, _ = _prepare_times_call(g, sources=sources, **kwargs)
    ex, owned = _resolve_executor(executor, n_workers, start_method)
    try:
        return ex.run_sharded(g, src, kwargs, n_shards=n_workers)
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
