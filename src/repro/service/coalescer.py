"""Micro-batch coalescing of concurrently arriving single-source queries.

``k`` clients asking for ``τ_s`` of ``k`` different sources on the same
graph under the same knobs should cost **one** block solve — that is the
entire point of the batched engine — but a naive query front end would
dispatch ``k`` independent single-source calls, re-propagating the whole
trajectory per client.  The :class:`QueryCoalescer` closes that gap: it
holds each arriving query for at most a (tiny) time window, groups queries
by ``(graph, ExecutionKey)``, and flushes a group as one
:func:`~repro.engine.batch.batched_local_mixing_times` /
:func:`~repro.parallel.parallel_local_mixing_times` call when either

* the **window** elapses (``window`` seconds after the group's first
  query arrived), or
* the group's **earliest deadline** would otherwise be missed — a query
  admitted with a deadline re-arms the group's flush timer to
  ``deadline − window`` when that is earlier than the window expiry, so
  the solve gets dispatched with at least one window of head start
  instead of waiting out a window the deadline cannot afford (the
  deadline-aware flush replaces the fixed window whenever it is the
  tighter bound), or
* the group reaches **max_batch** distinct sources (flushed immediately —
  a full block is ready), or
* the service drains on shutdown (:meth:`QueryCoalescer.drain`) —
  pending groups are then flushed in arrival order.

Correctness is inherited, not negotiated: the engine's loop-equivalence
guarantee makes every per-source result of a batched call identical to
the corresponding single-source call, so coalescing changes wall-clock
and nothing else — any batch composition yields bitwise the answers each
client would have gotten alone.

The coalescer is event-loop-affine: all bookkeeping runs on the loop
thread, and only the solve itself is pushed to a worker thread
(``asyncio.to_thread``), where the engine's thread-safe shared caches
apply.

Observability: the flush counters live on a
:class:`~repro.obs.metrics.MetricsRegistry` (``repro_coalescer_*``)
behind the unchanged :meth:`QueryCoalescer.stats` view.  While tracing
is enabled each flushed group gets a **detached** ``coalesced_batch``
span (detached because the batch is shared work — parenting it under
whichever query happened to arrive first would be nondeterministic);
the engine's ``engine_solve`` span nests under it via the context
carried into ``asyncio.to_thread``, and the finished span rides each
waiter future (``fut._obs_span``) so every query's own trace adopts it
(see ``MixingService.submit``).
"""

from __future__ import annotations

import asyncio
import time
from typing import Callable

from repro.graphs.base import Graph
from repro.obs import MetricsRegistry, start_span, use_span

__all__ = ["QueryCoalescer"]


class _Group:
    """One pending micro-batch: distinct sources (insertion-ordered, each
    with its waiters) plus the representative engine kwargs, the armed
    flush timer and the earliest member deadline."""

    __slots__ = (
        "graph",
        "kwargs",
        "pending",
        "timer",
        "window_end",
        "deadline",
        "flush_at",
        "trace_id",
    )

    def __init__(self, graph: Graph, kwargs: dict, window_end: float):
        self.graph = graph
        self.kwargs = kwargs
        self.pending: dict[int, list[asyncio.Future]] = {}
        self.timer: asyncio.TimerHandle | None = None
        #: When the plain coalescing window expires (absolute loop time).
        self.window_end = window_end
        #: Earliest deadline among the group's queries (absolute loop
        #: time), or ``None`` while no member carries one.
        self.deadline: float | None = None
        #: Where the armed timer currently points (absolute loop time).
        self.flush_at: float | None = None
        #: Flight-recorder trace id of the group's most recent query
        #: (last-wins) — the exemplar the batch latency histogram tags
        #: its bucket with.
        self.trace_id: str | None = None


class QueryCoalescer:
    """Group concurrent single-source queries into batched engine calls.

    Parameters
    ----------
    solve:
        ``solve(graph, sources, kwargs) -> list[LocalMixingResult]`` — the
        blocking batch solver, executed on a worker thread.  ``kwargs`` is
        the engine knob dictionary of the group's *first* query; any group
        member's kwargs would do, because group membership requires equal
        canonical keys and the engine's results depend on knobs only
        through that canonicalization.
    window:
        Seconds a group's first query waits for company before the group
        is flushed (``0`` still coalesces bursts submitted in the same
        event-loop turn: the flush runs as a zero-delay callback).  A
        member deadline tighter than the window re-arms the flush to
        ``deadline − window`` (see :meth:`enqueue`).
    max_batch:
        Distinct-source bound per group; reaching it flushes immediately.
    registry:
        Optional shared :class:`~repro.obs.metrics.MetricsRegistry` for
        the coalescing counters (private when omitted); exposed as
        :attr:`metrics`.
    """

    def __init__(
        self,
        solve: Callable,
        *,
        window: float = 0.002,
        max_batch: int = 64,
        registry: MetricsRegistry | None = None,
    ):
        if window < 0:
            raise ValueError("window must be >= 0")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self._solve = solve
        self.window = float(window)
        self.max_batch = int(max_batch)
        self._groups: dict[tuple, _Group] = {}
        self._tasks: set[asyncio.Task] = set()
        self.metrics = registry if registry is not None else MetricsRegistry()
        self._queries = self.metrics.counter(
            "repro_coalescer_queries_total", "Queries admitted for coalescing."
        )
        self._batches = self.metrics.counter(
            "repro_coalescer_batches_total",
            "Batched engine calls dispatched (flushed groups).",
        )
        # One counter per flush trigger, keyed by the legacy stats() name.
        self._flush_counters = {
            reason: self.metrics.counter(
                f"repro_coalescer_{reason}_total",
                f"Groups flushed by the {reason.removesuffix('_flushes')} "
                "trigger.",
            )
            for reason in (
                "window_flushes",
                "size_flushes",
                "drain_flushes",
                "deadline_flushes",
            )
        }
        self._largest_batch = self.metrics.gauge(
            "repro_coalescer_largest_batch",
            "Largest distinct-source batch flushed so far.",
        )
        self._batch_seconds = self.metrics.histogram(
            "repro_coalescer_batch_seconds",
            "Wall seconds per flushed batch solve (exemplar: the trace "
            "id of the batch's most recent member query).",
        )

    # ------------------------------------------------------------------ #
    # Enqueue + flush machinery
    # ------------------------------------------------------------------ #

    def enqueue(
        self,
        graph: Graph,
        exec_key,
        source: int,
        kwargs: dict,
        *,
        deadline: float | None = None,
        trace_id: str | None = None,
    ) -> "asyncio.Future":
        """Admit one query and return the future its result will land on.

        Must be called on the event loop.  The first query of a new
        ``(graph, exec_key)`` group arms the flush timer; each admitted
        query may tighten it — ``deadline`` is an *absolute*
        ``loop.time()`` bound, and when ``deadline − window`` is earlier
        than the pending window expiry the timer is re-armed to it (the
        deadline-aware flush).  ``trace_id`` tags the group for the batch
        latency histogram's exemplar (last query wins).  The
        ``max_batch``-th distinct source flushes the group synchronously
        (the solve itself still runs as a background task).
        """
        loop = asyncio.get_running_loop()
        key = (graph, exec_key)
        group = self._groups.get(key)
        if group is None:
            group = _Group(graph, dict(kwargs), loop.time() + self.window)
            self._groups[key] = group
        fut: asyncio.Future = loop.create_future()
        group.pending.setdefault(int(source), []).append(fut)
        if trace_id is not None:
            group.trace_id = trace_id
        if deadline is not None and (
            group.deadline is None or deadline < group.deadline
        ):
            group.deadline = float(deadline)
        self._queries.inc()
        if len(group.pending) >= self.max_batch:
            self._flush(key, "size_flushes")
        else:
            self._rearm(loop, key, group)
        return fut

    def _rearm(self, loop, key: tuple, group: _Group) -> None:
        """Point the group's timer at its current flush target: the window
        expiry, or — when tighter — one window ahead of the group's
        earliest deadline (clamped to *now*, so an already-urgent deadline
        flushes on the next loop turn)."""
        when, reason = group.window_end, "window_flushes"
        if group.deadline is not None:
            head_start = group.deadline - self.window
            if head_start < when:
                when, reason = head_start, "deadline_flushes"
        when = max(when, loop.time())
        if group.timer is not None:
            if group.flush_at is not None and when >= group.flush_at:
                return  # the armed timer is already at least as tight
            group.timer.cancel()
        group.flush_at = when
        group.timer = loop.call_at(when, self._flush, key, reason)

    def _flush(self, key: tuple, reason: str) -> None:
        """Detach the group (if still pending) and start its batch solve."""
        group = self._groups.pop(key, None)
        if group is None:
            return  # already flushed by the other trigger
        if group.timer is not None:
            group.timer.cancel()
        self._batches.inc()
        self._flush_counters[reason].inc()
        self._largest_batch.set_max(len(group.pending))
        # Detached span: the batch is shared by every waiter, so it has no
        # single query parent; each waiter adopts it off its future.
        span = start_span(
            "coalesced_batch",
            detached=True,
            sources=len(group.pending),
            trigger=reason,
        )
        task = asyncio.ensure_future(self._run_batch(group, span))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _run_batch(self, group: _Group, span=None) -> None:
        """Solve one detached group on a worker thread and fan the
        per-source results (or the failure) out to every waiter."""
        sources = list(group.pending)  # insertion order, distinct
        t0 = time.perf_counter()
        try:
            with use_span(span):
                results = await asyncio.to_thread(
                    self._solve, group.graph, sources, group.kwargs
                )
        except BaseException as exc:  # noqa: BLE001 - forwarded, not handled
            self._batch_seconds.observe(
                time.perf_counter() - t0, exemplar=group.trace_id
            )
            if span is not None:
                span.meta["error"] = type(exc).__name__
                span.finish()
            for waiters in group.pending.values():
                for fut in waiters:
                    if not fut.done():
                        fut.set_exception(exc)
            return
        self._batch_seconds.observe(
            time.perf_counter() - t0, exemplar=group.trace_id
        )
        if span is not None:
            span.finish()
        for source, result in zip(sources, results):
            for fut in group.pending[source]:
                if not fut.done():
                    if span is not None:
                        fut._obs_span = span
                    fut.set_result(result)

    # ------------------------------------------------------------------ #
    # Lifecycle + stats
    # ------------------------------------------------------------------ #

    def flush_all(self) -> None:
        """Flush every pending group now (drain trigger), in the order the
        groups arrived.  Running batches are unaffected."""
        for key in list(self._groups):
            self._flush(key, "drain_flushes")

    async def drain(self) -> None:
        """Flush everything pending and wait for all in-flight batch tasks
        to finish (their waiters are then all resolved)."""
        self.flush_all()
        while self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)

    @property
    def depth(self) -> int:
        """Queries currently waiting in un-flushed groups — the live
        queue-depth gauge the resource sampler reads each tick (O(groups),
        no lock: sampled from the event loop that also mutates it)."""
        return sum(
            len(w) for g in self._groups.values() for w in g.pending.values()
        )

    @property
    def inflight_batches(self) -> int:
        """Batch solves currently running on worker threads — the
        executor-occupancy proxy the resource sampler samples."""
        return len(self._tasks)

    def stats(self) -> dict:
        """Coalescing counters: ``queries``, ``batches`` (engine calls),
        flush-trigger breakdown, ``largest_batch``, and the derived
        ``coalesced`` (queries answered without their own engine call) and
        currently ``pending`` queries.  The dict shape predates (and is
        preserved across) the metrics-registry migration."""
        out = {
            "queries": self._queries.value,
            "batches": self._batches.value,
            **{
                reason: counter.value
                for reason, counter in self._flush_counters.items()
            },
            "largest_batch": self._largest_batch.value,
        }
        pending = sum(
            len(w) for g in self._groups.values() for w in g.pending.values()
        )
        out["coalesced"] = out["queries"] - out["batches"] - pending
        out["pending"] = pending
        return out
