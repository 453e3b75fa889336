"""Incremental tracking of the local-mixing τ-spectrum over a dynamic graph.

:class:`MixingTracker` maintains, across a stream of topology snapshots, the
full per-source vector ``(τ_s(β, ε))_{s ∈ V}`` — and its results are
**identical** (same times, set sizes, bitwise-equal deviations, same
bookkeeping counters) to running
:func:`~repro.engine.batch.batched_local_mixing_times` from scratch on every
snapshot.  Three exact accelerations make that affordable:

1. **Structural memoization** — snapshots hash by their CSR arrays, so a
   topology the tracker has already solved (an add/remove round trip, an
   oscillating bridge) is answered from the memo without touching the walk
   engine at all.

2. **Locality pruning** — the paper's whole point is that local mixing is a
   *local* quantity.  ``p_t(x)`` sums, over length-``t`` walks from ``s``,
   products of ``1/d(w_i)`` at the walk's first ``t`` positions — nodes
   within distance ``t-1`` of ``s`` — over edges the walk traverses; so if
   every edited node sits at distance ``≥ τ_s`` from ``s`` in **both** the
   old and the new snapshot, the trajectory prefix ``p_0 … p_{τ_s}`` is
   bitwise unchanged (changed operator entries only ever multiply exact
   zeros, and exact-zero terms never perturb a CSR accumulation), and the
   previous result for ``s`` — every ``(t, R)`` decision the from-scratch
   scan would make — is provably still correct.  Prior τ values thus bound
   each source's replay radius; only sources inside it are re-solved.  (A
   binary search warm-started at the prior τ would *not* be sound: the
   restricted deviation is non-monotone in ``t`` — the paper's §3 remark —
   so the first firing time must be re-scanned, not bisected.)

3. **Fused re-scan prefilter** — the sources that do need re-solving are
   handed to :func:`~repro.engine.batch.batched_local_mixing_times`, whose
   ``_solve_chunk`` screens every candidate set size × every live column
   with one search-free
   :func:`~repro.engine.oracle.deviation_lower_bounds_kernel`
   call per step (``O(1)`` per pair) and decides every flagged
   ``(t, R, source)`` with the exact single-source arithmetic — so
   over-flagging costs a verification and under-flagging is impossible.
   (The kernel originated here and moved into the engine, where every
   batched call now benefits; the tracker simply delegates.)

The tracker covers the engine's full knob space, including
``require_source=True``.  Decisions depend only on the source's own
trajectory (the target ``1/R`` involves no other node), so pruning applies
to every edit; ``require_source`` does not change the pruning argument.

Whenever an update breaks the assumptions (node join/leave changed ``n``,
no prior snapshot, ``method="from_scratch"``), the tracker falls back to a
full exact recomputation — so the identity guarantee holds unconditionally.

With a :class:`~repro.parallel.ShardExecutor` attached (``executor=`` or
``n_workers=``), the post-event dirty-source set is partitioned into
contiguous shards and re-solved on the worker pool
(:func:`~repro.parallel.parallel_local_mixing_times`); since every sharded
per-source result is identical to the serial engine's, parallelism changes
wall-clock only, never the trace.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.constants import DEFAULT_EPS
from repro.graphs.base import Graph
from repro.graphs.properties import multi_source_distances
from repro.engine.batch import batched_local_mixing_times
from repro.obs import MetricsRegistry
from repro.dynamic.graph import DynamicGraph, GraphUpdate
from repro.walks.local_mixing import _check_knobs, _resolve_walk_bounds

__all__ = [
    "MixingTracker",
    "TrackedSnapshot",
    "TrackingTrace",
    "edit_distance_bounds",
    "track_local_mixing",
]

#: Sentinel distance for nodes no edit can reach.
_FAR = np.iinfo(np.int64).max


@dataclass(frozen=True)
class TrackedSnapshot:
    """One observed snapshot: the graph, its full τ-spectrum, and how much
    work the tracker actually did to produce it."""

    index: int
    graph: Graph
    results: tuple
    update: GraphUpdate | None = None
    memo_hit: bool = False
    reused_sources: int = 0
    solved_sources: int = 0
    seconds: float = 0.0

    @property
    def tau(self) -> int:
        """``τ(β,ε) = max_s τ_s(β,ε)`` of this snapshot."""
        return max(r.time for r in self.results)

    @property
    def times(self) -> list[int]:
        """Per-source local mixing times, in node order."""
        return [r.time for r in self.results]


@dataclass
class TrackingTrace:
    """The output of :func:`track_local_mixing`: every observed snapshot in
    order, plus the tracker (for its counters)."""

    snapshots: list[TrackedSnapshot] = field(default_factory=list)
    tracker: "MixingTracker | None" = None

    @property
    def tau_trace(self) -> list[int]:
        """``τ(β,ε)`` per snapshot — the headline time series."""
        return [s.tau for s in self.snapshots]

    @property
    def stats(self) -> dict:
        """A copy of the tracker's work counters (snapshots, memo hits,
        reused/solved sources, full/partial solves)."""
        return self.tracker.stats if self.tracker is not None else {}


def _changed_nodes(a: Graph, b: Graph) -> np.ndarray:
    """Nodes whose neighbor list differs between two same-``n`` graphs —
    the endpoints of the edge-set symmetric difference, computed on packed
    ``u·n + v`` keys (CSR order makes them sorted and unique)."""
    n = a.n
    keys_a = np.repeat(np.arange(n), np.diff(a.indptr)) * n + a.indices
    keys_b = np.repeat(np.arange(n), np.diff(b.indptr)) * n + b.indices
    diff = np.setxor1d(keys_a, keys_b, assume_unique=True)
    return np.unique(diff // n)


def edit_distance_bounds(prev_g: Graph, g: Graph) -> np.ndarray:
    """Per node ``s``, the distance from ``s`` to the nearest *edited* node,
    minimized over both snapshots (``_FAR``-like ``iinfo.max`` when no edit
    is reachable from ``s`` in either graph).

    This is the locality-pruning radius shared by the incremental
    :class:`MixingTracker` and the serving layer's
    :class:`~repro.service.GraphRegistry` cache carry-forward: a result
    for source ``s`` with local mixing time ``τ_s`` computed on ``prev_g``
    is provably still exact on ``g`` whenever
    ``τ_s <= bounds[s]`` — every edit then sits at distance ``≥ τ_s`` from
    ``s`` in both snapshots, so the trajectory prefix ``p_0 … p_{τ_s}``
    (and with it every ``(t, R)`` decision up to the stopping point) is
    bitwise unchanged (see the module docstring for the walk argument).

    Raises :class:`ValueError` when the two graphs differ in node count —
    the relabelling a join/leave implies breaks the per-node correspondence
    this bound needs.
    """
    if prev_g.n != g.n:
        raise ValueError(
            f"edit_distance_bounds needs same-n snapshots, got "
            f"{prev_g.n} vs {g.n}"
        )
    touched = _changed_nodes(prev_g, g)
    if touched.size == 0:
        return np.full(g.n, _FAR, dtype=np.int64)
    d_old = multi_source_distances(prev_g, touched)
    d_new = multi_source_distances(g, touched)
    return np.minimum(
        np.where(d_old < 0, _FAR, d_old), np.where(d_new < 0, _FAR, d_new)
    )


class MixingTracker:
    """Maintain the per-source τ-spectrum of an evolving graph.

    Parameters mirror :func:`~repro.engine.batch.batched_local_mixing_times`
    (``beta``, ``eps``, ``sizes``, ``threshold_factor``, ``grid_factor``,
    ``t_schedule``, ``t_max``, ``lazy``, ``require_source``) —
    the tracker covers the engine's full knob space, and its per-snapshot
    results equal a from-scratch engine call for every combination.

    require_source:
        Pin each source inside its own witness set (Definition 2's
        ``s ∈ S``); handled in-block by the engine.
    method:
        ``"incremental"`` (default) applies the memo + locality pruning +
        fused re-scan pipeline.  ``"from_scratch"`` recomputes every
        snapshot with :func:`~repro.engine.batch.batched_local_mixing_times`
        — the reference the incremental path is tested (and benchmarked)
        against.
    memo_size:
        How many distinct solved structures to remember.
    executor:
        Optional :class:`~repro.parallel.ShardExecutor`: after each event
        the dirty-source set (the sources locality pruning could not keep)
        is partitioned into contiguous shards and re-solved on the worker
        pool.  Sharding changes nothing about the results — every
        per-source result is identical to the serial engine call (and so
        to from-scratch recomputation), it only spreads the replay across
        cores.  The executor is *not* owned: the caller closes it.
    n_workers:
        Convenience alternative to ``executor``: the tracker lazily creates
        (and owns) a :class:`~repro.parallel.ShardExecutor` of this size;
        call :meth:`close` to tear it down.
    """

    def __init__(
        self,
        beta: float,
        eps: float = DEFAULT_EPS,
        *,
        sizes: str | list[int] = "all",
        threshold_factor: float = 1.0,
        grid_factor: float | None = None,
        t_schedule: str = "all",
        t_max: int | None = None,
        lazy: bool = False,
        require_source: bool = False,
        method: str = "incremental",
        memo_size: int = 32,
        executor=None,
        n_workers: int | None = None,
    ):
        #: The engine knobs every solve passes on.
        self._knobs = dict(
            beta=beta, eps=eps, sizes=sizes,
            threshold_factor=threshold_factor, grid_factor=grid_factor,
            t_schedule=t_schedule, t_max=t_max, lazy=lazy,
            require_source=require_source,
        )
        _check_knobs(**self._knobs)
        if method not in ("incremental", "from_scratch"):
            raise ValueError(f"unknown method {method!r}")
        if memo_size < 0:
            raise ValueError("memo_size must be >= 0")
        self.method = method
        self.memo_size = memo_size
        if n_workers is not None and n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if executor is not None and n_workers is not None:
            # An executor fixes both the pool and the shard count; a second
            # knob would be silently ignored — reject instead.
            raise ValueError("pass either executor or n_workers, not both")
        self._executor = executor
        self._owns_executor = False
        self._n_workers = n_workers
        self._memo: OrderedDict[Graph, tuple] = OrderedDict()
        self._prev_graph: Graph | None = None
        self._prev_results: tuple | None = None
        self._index = 0
        #: Work counters as ``repro_tracker_<key>_total`` (one private
        #: registry per tracker, composable into a service exposition via
        #: ``MetricsRegistry.include``); :attr:`stats` reads them.
        self.metrics = MetricsRegistry()
        self._counters = {
            key: self.metrics.counter(
                f"repro_tracker_{key}_total",
                f"Incremental-tracker work counter: {key}",
            )
            for key in (
                "snapshots",
                "memo_hits",
                "reused_sources",
                "solved_sources",
                "full_solves",
                "partial_solves",
            )
        }

    @property
    def stats(self) -> dict:
        """The work counters (snapshots, memo hits, reused/solved sources,
        full/partial solves) as a fresh plain dict."""
        return {key: c.value for key, c in self._counters.items()}

    # ------------------------------------------------------------------ #
    # Observation pipeline
    # ------------------------------------------------------------------ #

    def observe(
        self, g: Graph, *, update: GraphUpdate | None = None
    ) -> TrackedSnapshot:
        """Ingest one snapshot and return its (exact) τ-spectrum."""
        t0 = time.perf_counter()
        memo_hit = False
        reused = 0
        solved = 0
        # The from-scratch reference must actually recompute every snapshot
        # (it is what the incremental path is benchmarked against), so only
        # the incremental method consults the structural memo.
        cached = self._memo.get(g) if self.method == "incremental" else None
        if cached is not None:
            self._memo.move_to_end(g)
            results = cached
            memo_hit = True
            self._counters["memo_hits"].inc()
        elif (
            self.method == "from_scratch"
            or self._prev_graph is None
            or self._prev_graph.n != g.n
        ):
            results = tuple(self._solve_batch(g))
            solved = g.n
            self._counters["full_solves"].inc()
        else:
            results, reused, solved = self._solve_incremental(g)
        self._remember(g, results)
        self._counters["snapshots"].inc()
        self._counters["reused_sources"].inc(reused)
        self._counters["solved_sources"].inc(solved)
        snap = TrackedSnapshot(
            index=self._index,
            graph=g,
            results=results,
            update=update,
            memo_hit=memo_hit,
            reused_sources=reused,
            solved_sources=solved,
            seconds=time.perf_counter() - t0,
        )
        self._index += 1
        return snap

    def _remember(self, g: Graph, results: tuple) -> None:
        self._prev_graph = g
        self._prev_results = results
        if self.memo_size > 0 and self.method == "incremental":
            self._memo[g] = results
            self._memo.move_to_end(g)
            while len(self._memo) > self.memo_size:
                self._memo.popitem(last=False)

    def _get_executor(self):
        """The sharding executor, lazily created when only ``n_workers``
        was given (``None`` when the tracker runs serial)."""
        if self._executor is None and self._n_workers is not None:
            from repro.parallel import ShardExecutor

            self._executor = ShardExecutor(self._n_workers)
            self._owns_executor = True
        return self._executor

    def close(self) -> None:
        """Tear down an executor the tracker created for itself
        (a caller-supplied ``executor`` is left untouched)."""
        if self._owns_executor and self._executor is not None:
            self._executor.close()
            self._executor = None
            self._owns_executor = False

    def _solve_batch(self, g: Graph, sources: list[int] | None = None):
        """One engine call with the tracker's full knob set.

        :func:`~repro.engine.batch.batched_local_mixing_times` carries the
        loop-equivalence guarantee (and, since the fused-kernel port, the
        search-free ``deviation_lower_bounds`` prefilter) with or without
        the source constraint, so both tracker methods — and the partial
        re-solves — share this single code path.  With an executor
        configured, the source set (the post-event dirty set, for partial
        re-solves) is partitioned into contiguous shards and solved on the
        worker pool — per-source results are identical either way, so the
        equivalence-to-from-scratch guarantee is untouched."""
        ex = self._get_executor()
        k = g.n if sources is None else len(sources)
        if ex is not None and k > 1:
            from repro.parallel import parallel_local_mixing_times

            return parallel_local_mixing_times(
                g, sources=sources, executor=ex, **self._knobs
            )
        return batched_local_mixing_times(g, sources=sources, **self._knobs)

    def _solve_incremental(self, g: Graph) -> tuple[tuple, int, int]:
        prev_g = self._prev_graph
        prev_res = self._prev_results
        if prev_g == g:
            # Structurally identical but evicted from the memo.
            return prev_res, g.n, 0
        dmin = edit_distance_bounds(prev_g, g)
        # Source s is provably unaffected iff every edited node lies at
        # distance >= τ_s in both snapshots: p_t only involves degrees and
        # neighbor lists of nodes walks visit in their first t-1 steps —
        # nodes within distance t-1 — so edits at distance >= t leave
        # p_0 … p_t bitwise alone (see module docstring).
        prev_times = np.asarray([r.time for r in prev_res], dtype=np.int64)
        keep = prev_times <= dmin
        redo = np.flatnonzero(~keep)
        if redo.size == 0:
            # Nothing to re-solve — still run the driver's walk
            # preconditions so an invalid snapshot raises exactly as a
            # from-scratch call would.
            _resolve_walk_bounds(g, self._knobs["lazy"], self._knobs["t_max"])
            fresh = []
        else:
            fresh = self._solve_batch(g, [int(s) for s in redo])
        merged = list(prev_res)
        for pos, res in zip(redo, fresh):
            merged[int(pos)] = res
        self._counters["partial_solves"].inc()
        return tuple(merged), int(keep.sum()), int(redo.size)


def track_local_mixing(
    dyn: DynamicGraph | Graph,
    updates: Sequence[GraphUpdate],
    beta: float,
    eps: float = DEFAULT_EPS,
    *,
    include_initial: bool = True,
    **tracker_kwargs,
) -> TrackingTrace:
    """Drive a :class:`MixingTracker` over an update schedule.

    Applies each :class:`~repro.dynamic.graph.GraphUpdate` to ``dyn`` (a
    :class:`Graph` is wrapped into a fresh :class:`DynamicGraph` first),
    observes every intermediate snapshot, and returns the full
    :class:`TrackingTrace` — the τ time series plus work counters.  Extra
    keyword arguments go to the :class:`MixingTracker` constructor.
    """
    if isinstance(dyn, Graph):
        dyn = DynamicGraph(dyn)
    tracker = MixingTracker(beta, eps, **tracker_kwargs)
    trace = TrackingTrace(tracker=tracker)
    try:
        if include_initial:
            trace.snapshots.append(tracker.observe(dyn.snapshot()))
        for upd in updates:
            dyn.apply(upd)
            trace.snapshots.append(tracker.observe(dyn.snapshot(), update=upd))
    finally:
        # Only tears down a pool the tracker spawned for itself
        # (n_workers=...); a caller-supplied executor stays open.
        tracker.close()
    return trace
