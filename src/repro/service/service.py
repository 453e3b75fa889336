"""The async serving front door.

:class:`MixingService` turns the batch/parallel engines into a query
server: clients ``await service.submit(MixingQuery(...))`` concurrently,
and the service answers each query through a three-stage pipeline —

1. **Cache** — the :class:`~repro.service.cache.ResultCache` is consulted
   under the canonical key ``(snapshot, source, TimesKey)``; revisited
   graphs/knobs (including structurally revisited dynamic snapshots) are
   answered without touching the engine.
2. **In-flight dedup** — a query identical to one currently being solved
   awaits the *same* future instead of submitting again, so a thundering
   herd on one hot source costs one solve.
3. **Coalescing** — remaining queries enter the
   :class:`~repro.service.coalescer.QueryCoalescer`, which micro-batches
   concurrent queries sharing ``(graph, knobs)`` into single
   :func:`~repro.engine.batch.batched_local_mixing_times` calls — routed
   through :func:`~repro.parallel.parallel_local_mixing_times` on a
   :class:`~repro.parallel.ShardExecutor` when the service was configured
   with workers.

Every stage preserves the library's equivalence discipline: a served
answer is **bitwise identical** to the direct engine call for that
``(graph, source, knobs)`` triple — cache hits return the object an
identical engine call produced, deduped queries share one such object,
and coalesced batches inherit the engine's loop-equivalence guarantee.

The service is an async context manager; leaving the context (or calling
:meth:`MixingService.aclose`) drains the coalescer — every admitted query
is answered, never dropped — and closes a worker pool the service created
for itself.

Observability: every component records onto one shared
:class:`~repro.obs.metrics.MetricsRegistry`, and :attr:`MixingService.metrics`
additionally composes in the executor's and the process-global engine /
kernel registries — so ``service.metrics.render()`` is the complete
Prometheus payload a ``/metrics`` endpoint serves.  With tracing enabled
(:func:`repro.obs.set_observability`) each :meth:`MixingService.submit`
produces a ``query`` span whose children record the cache lookup, the
adopted ``coalesced_batch`` → ``engine_solve`` spans of the batch that
answered it, and — under a sharded solve — per-worker ``shard_solve``
spans shipped back from the pool.
"""

from __future__ import annotations

import asyncio
import threading
import time

from repro.engine.batch import batched_local_mixing_times
from repro.graphs.base import Graph
from repro.obs import MetricsRegistry, attach_or_record, default_registry, trace
from repro.obs.flight import (
    FlightRecorder,
    QueryRecord,
    graph_key,
    kernels_from_span,
    stages_from_span,
)
from repro.obs.live import ResourceSampler, RollingWindow
from repro.obs.slo import SLOEngine
from repro.service.cache import ResultCache
from repro.service.coalescer import QueryCoalescer
from repro.service.errors import (
    DeadlineExceededError,
    ServiceClosedError,
    error_code,
)
from repro.service.query import ExecutionKey, MixingQuery
from repro.service.registry import GraphRegistry

__all__ = ["MixingService"]


class MixingService:
    """Serve local-mixing queries with micro-batching and structural
    caching on top of the batched/parallel engines.

    Parameters
    ----------
    registry:
        The :class:`~repro.service.registry.GraphRegistry` to resolve
        query graph references against (one is created when omitted).  The
        service subscribes a change listener that carries cache entries
        across dynamic-graph mutations (dirty sources only are dropped).
    cache_size:
        Bound of the :class:`~repro.service.cache.ResultCache`
        (``0`` disables result caching).
    window:
        Coalescing window in seconds — how long a query waits for
        companions before its batch is flushed.
    max_batch:
        Flush a batch immediately once it holds this many distinct
        sources.
    executor:
        Optional :class:`~repro.parallel.ShardExecutor`: coalesced batches
        with more than one source are then solved by
        :func:`~repro.parallel.parallel_local_mixing_times` on the pool
        (the executor is *not* owned — the caller closes it).
    n_workers:
        Convenience alternative to ``executor``: the service lazily
        creates (and owns, and closes on :meth:`aclose`) a
        :class:`~repro.parallel.ShardExecutor` of this size.
    flight_capacity:
        Ring bound of the always-on
        :class:`~repro.obs.flight.FlightRecorder` fed by every completed
        :meth:`submit` (``0`` disables recording; exposed as
        :attr:`flight`).
    slow_threshold:
        Seconds at or above which a completed query is also admitted to
        the recorder's slow-query log.
    live_buckets / live_bucket_width:
        Geometry of the live :class:`~repro.obs.live.RollingWindow` fed
        by the same completion path (default 60 × 1 s;
        ``live_buckets=0`` disables live telemetry entirely; exposed as
        :attr:`live`).
    slo:
        Optional :class:`~repro.obs.slo.SLO` objective; when given, an
        :class:`~repro.obs.slo.SLOEngine` (exposed as
        :attr:`slo_engine`) evaluates it against the rolling window —
        requires live telemetry enabled.
    sampler_interval:
        Seconds between :class:`~repro.obs.live.ResourceSampler` ticks;
        ``None`` (default) disables the sampler.  The sampler starts
        lazily with the first :meth:`submit` (it needs a running event
        loop) and stops on :meth:`aclose`.
    """

    def __init__(
        self,
        *,
        registry: GraphRegistry | None = None,
        cache_size: int = 4096,
        window: float = 0.002,
        max_batch: int = 64,
        executor=None,
        n_workers: int | None = None,
        flight_capacity: int = 1024,
        slow_threshold: float = 0.25,
        live_buckets: int = 60,
        live_bucket_width: float = 1.0,
        slo=None,
        sampler_interval: float | None = None,
    ):
        if executor is not None and n_workers is not None:
            raise ValueError("pass either executor or n_workers, not both")
        if n_workers is not None and n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if slo is not None and not live_buckets:
            raise ValueError("an SLO needs live telemetry (live_buckets > 0)")
        self.registry = registry if registry is not None else GraphRegistry()
        # One shared registry for every component this service owns; the
        # graph registry (possibly caller-supplied, possibly shared by
        # several services) keeps its own and is composed in below.
        self._metrics = MetricsRegistry()
        self._cache = ResultCache(cache_size, registry=self._metrics)
        self._coalescer = QueryCoalescer(
            self._solve_batch,
            window=window,
            max_batch=max_batch,
            registry=self._metrics,
        )
        self._metrics.include(self.registry.metrics)
        self._metrics.include(default_registry())
        self._executor = executor
        if executor is not None:
            self._metrics.include(executor.metrics)
        self._owns_executor = False
        self._n_workers = n_workers
        # Guards lazy pool creation: batches solve on concurrent engine
        # threads, and two must not each spawn (and one leak) a pool.
        self._executor_lock = threading.Lock()
        self._inflight: dict[tuple, asyncio.Future] = {}
        self._closed = False
        self._expired = self._metrics.counter(
            "repro_service_deadline_expired_total",
            "Queries answered with DeadlineExceededError.",
        )
        #: The always-on flight recorder of completed queries — read by
        #: the wire debug endpoints (``/v1/debug/flight`` etc.) and by
        #: :meth:`stats`.
        self.flight = FlightRecorder(
            flight_capacity,
            slow_threshold=slow_threshold,
            registry=self._metrics,
        )
        self._query_seconds = self._metrics.histogram(
            "repro_service_query_seconds",
            "End-to-end seconds per submitted query (bucket exemplars "
            "carry flight-recorder trace ids).",
        )
        #: The live rolling window of per-(graph, outcome)
        #: rates and streaming quantiles (``None`` when disabled) — what
        #: ``/v1/debug/stream`` and the SLO engine read.
        self.live = (
            RollingWindow(live_buckets, width=live_bucket_width)
            if live_buckets
            else None
        )
        #: The SLO engine evaluating :attr:`live` (``None`` without an
        #: ``slo=`` objective).
        self.slo_engine = (
            SLOEngine(slo, self.live, registry=self._metrics)
            if slo is not None
            else None
        )
        self._sampler_interval = sampler_interval
        self._sampler: ResourceSampler | None = None
        # Carry provably-clean cache entries onto each new snapshot, so
        # only dirty sources recompute.
        self.registry.add_listener(self._cache.carry_forward)

    # ------------------------------------------------------------------ #
    # Query admission
    # ------------------------------------------------------------------ #

    async def submit(self, query: MixingQuery, *, trace_id: str | None = None):
        """Answer one query (a
        :class:`~repro.walks.local_mixing.LocalMixingResult` bitwise equal
        to the direct engine call for the query's graph, source and
        knobs).  Invalid knobs or sources raise the engine's own fail-fast
        errors before any work is scheduled.

        A query carrying a ``deadline`` (relative seconds) is answered
        within it or fails with a typed
        :class:`~repro.service.errors.DeadlineExceededError`: the deadline
        is threaded into the coalescer, which flushes the query's group
        early enough to give the solve a head start, and if the answer
        still is not ready in time only *this* waiter is released — the
        shared solve keeps running for its co-waiters and the result
        cache.  A deadline never changes what is computed (it is absent
        from both the cache key and the coalescing group).

        Every completed query — answered, deadline-expired, failed, or
        cancelled by a disconnecting wire client — leaves one
        :class:`~repro.obs.flight.QueryRecord` on :attr:`flight` and one
        observation (exemplar: the trace id) on the query latency
        histogram.  ``trace_id`` lets the wire layer pin the id it tagged
        its own histogram with; omitted, the recorder assigns one."""
        if self._closed:
            raise ServiceClosedError("MixingService is closed")
        if self._sampler_interval is not None and self._sampler is None:
            self._start_sampler()
        tid = (
            trace_id if trace_id is not None else self.flight.next_trace_id()
        )
        state: dict = {}
        outcome = "ok"
        qspan = None
        t0 = time.perf_counter()
        try:
            with trace(
                "query", source=int(query.source), trace_id=tid
            ) as qspan:
                return await self._submit_traced(query, tid, state, qspan)
        except BaseException as exc:
            # Flight records are an operator's diagnostic, not a client
            # contract: an unexpected exception keeps its type name.
            outcome = error_code(exc) or f"error:{type(exc).__name__}"
            raise
        finally:
            self._record_query(
                query, tid, outcome, time.perf_counter() - t0, state, qspan
            )

    async def _submit_traced(
        self, query: MixingQuery, tid: str, state: dict, qspan
    ):
        """The submit pipeline proper, running inside the query's trace
        span and flight-record window (``state`` collects what the record
        needs as it becomes known: graph, knobs, disposition)."""
        deadline_at = None
        if query.deadline is not None:
            if query.deadline <= 0:
                self._expired.inc()
                raise DeadlineExceededError(
                    f"deadline {query.deadline!r} already expired at "
                    "submission",
                    deadline=query.deadline,
                )
            deadline_at = (
                asyncio.get_running_loop().time() + float(query.deadline)
            )
        g = self.registry.resolve(query.graph)
        state["graph"] = g
        source = int(query.source)
        if not 0 <= source < g.n:
            raise ValueError("source out of range")
        tkey = query.semantic_key(g)
        state["knobs"] = tkey
        cache_key = (g, source, tkey)

        # In-flight first: a key is in flight XOR cached XOR neither
        # (the completion callback retires one and fills the other
        # atomically on the loop), and dedup-served queries should not
        # count as cache misses — they never cost a solve.
        inflight = self._inflight.get(cache_key)
        if inflight is not None:
            self._cache.count_inflight_hit()
            state["cache"] = "inflight_dedup"
            if qspan is not None:
                qspan.meta["outcome"] = "inflight_dedup"
            result = await self._await_answer(
                inflight, deadline_at, query.deadline
            )
            self._adopt_batch_span(inflight)
            return result
        with trace("cache_lookup") as cspan:
            cached = self._cache.get(*cache_key)
        if cached is not None:
            state["cache"] = "hit"
            if qspan is not None:
                qspan.meta["outcome"] = "cache_hit"
            return cached
        state["cache"] = "miss"
        if cspan is not None:
            cspan.meta["outcome"] = "miss"

        exec_key = ExecutionKey(tkey, query.batch_size)
        fut = self._coalescer.enqueue(
            g,
            exec_key,
            source,
            query.engine_kwargs(),
            deadline=deadline_at,
            trace_id=tid,
        )
        self._inflight[cache_key] = fut
        fut.add_done_callback(
            lambda f, key=cache_key: self._finish(key, f)
        )
        if qspan is not None:
            qspan.meta["outcome"] = "solved"
        result = await self._await_answer(
            fut, deadline_at, query.deadline
        )
        self._adopt_batch_span(fut)
        return result

    def _record_query(
        self, query: MixingQuery, tid: str, outcome: str, dt: float,
        state: dict, qspan,
    ) -> None:
        """Completion hook of :meth:`submit` (runs for every outcome):
        build the query's one :class:`~repro.obs.flight.QueryRecord` and
        feed it to every telemetry view — the latency histogram (the
        trace id as the bucket exemplar), the rolling window and the
        flight recorder.  Each reads numbers the pipeline already
        computed and never touches the result."""
        try:
            source = int(query.source)
        except (TypeError, ValueError):
            source = -1
        batch = None
        if qspan is not None:
            bspan = qspan.find("coalesced_batch")
            if bspan is not None:
                batch = {
                    "sources": bspan.meta.get("sources"),
                    "trigger": bspan.meta.get("trigger"),
                }
        g = state.get("graph")
        rec = QueryRecord(
            trace_id=tid,
            graph=graph_key(g) if g is not None else None,
            source=source,
            outcome=outcome,
            duration=dt,
            knobs=state.get("knobs"),
            cache=state.get("cache"),
            batch=batch,
            kernels=kernels_from_span(qspan),
            stages=stages_from_span(qspan),
            deadline=query.deadline,
            unix_ts=time.time(),
            span=qspan,
        )
        self._query_seconds.observe(rec.duration, exemplar=rec.trace_id)
        if self.live is not None:
            self.live.record(
                rec.duration, graph=rec.graph, outcome=rec.outcome
            )
        self.flight.record(rec)

    async def _await_answer(
        self,
        fut: asyncio.Future,
        deadline_at: float | None,
        deadline: float | None,
    ):
        """Await a (possibly shared) solve future on behalf of one waiter.

        ``shield()``: one client cancelling its await — or timing out —
        must not cancel the shared future other waiters (and the cache
        insert) hang off.  With a deadline, waits at most until
        ``deadline_at`` (absolute loop time) and then raises the typed
        timeout; the underlying solve is deliberately left running."""
        if deadline_at is None:
            return await asyncio.shield(fut)
        loop = asyncio.get_running_loop()
        try:
            return await asyncio.wait_for(
                asyncio.shield(fut), timeout=deadline_at - loop.time()
            )
        except asyncio.TimeoutError:
            self._expired.inc()
            raise DeadlineExceededError(
                f"query deadline of {deadline}s expired before the "
                "answer was ready",
                deadline=deadline,
            ) from None

    async def submit_many(self, queries) -> list:
        """Answer many queries concurrently (results in query order) —
        the natural way to hand the coalescer a full batch at once."""
        return list(
            await asyncio.gather(*(self.submit(q) for q in queries))
        )

    @staticmethod
    def _adopt_batch_span(fut: asyncio.Future) -> None:
        """Attach the finished ``coalesced_batch`` span riding ``fut``
        (set by the coalescer when tracing is enabled) into the calling
        query's own trace — every waiter of a shared batch adopts the
        same span object."""
        attach_or_record(getattr(fut, "_obs_span", None))

    def _finish(self, cache_key: tuple, fut: asyncio.Future) -> None:
        """Loop callback when a solve future resolves: retire the
        in-flight entry and cache a successful result."""
        self._inflight.pop(cache_key, None)
        if not fut.cancelled() and fut.exception() is None:
            g, source, tkey = cache_key
            self._cache.put(g, source, tkey, fut.result())

    # ------------------------------------------------------------------ #
    # Solving + dynamic integration
    # ------------------------------------------------------------------ #

    def _solve_batch(self, g: Graph, sources: list[int], kwargs: dict):
        """The coalescer's blocking solver (runs on a worker thread): one
        batched engine call, sharded across the worker pool when one is
        configured and the batch is big enough to gain from it.  A
        single-source batch never touches (or lazily spawns) the pool."""
        if len(sources) > 1:
            ex = self._resolve_executor()
            if ex is not None:
                from repro.parallel import parallel_local_mixing_times

                return parallel_local_mixing_times(
                    g, sources=sources, executor=ex, **kwargs
                )
        return batched_local_mixing_times(g, sources=sources, **kwargs)

    def _resolve_executor(self):
        """The shard executor, lazily created when only ``n_workers`` was
        given (``None`` when the service solves in-process).  Thread-safe:
        concurrent batches race here, and exactly one pool may win."""
        if self._executor is None and self._n_workers is not None:
            with self._executor_lock:
                if self._executor is None:
                    from repro.parallel import ShardExecutor

                    ex = ShardExecutor(self._n_workers)
                    self._metrics.include(ex.metrics)
                    self._executor = ex
                    self._owns_executor = True
        return self._executor

    # ------------------------------------------------------------------ #
    # Lifecycle + stats
    # ------------------------------------------------------------------ #

    def _start_sampler(self) -> None:
        """Lazily start the resource sampler on the running loop (first
        :meth:`submit`), wiring in the serving layer's own gauges:
        coalescer queue depth, in-flight batch solves, and the attached
        pool's worker count."""
        self._sampler = ResourceSampler(
            interval=self._sampler_interval,
            registry=self._metrics,
            sources={
                "repro_runtime_coalescer_depth": lambda: (
                    self._coalescer.depth
                ),
                "repro_runtime_inflight_batches": lambda: (
                    self._coalescer.inflight_batches
                ),
                "repro_runtime_executor_workers": lambda: (
                    self._executor.n_workers
                    if self._executor is not None
                    else 0
                ),
            },
        ).start()

    @property
    def sampler(self) -> ResourceSampler | None:
        """The running resource sampler (``None`` until the first
        :meth:`submit` of a service configured with
        ``sampler_interval``)."""
        return self._sampler

    def telemetry(self) -> dict:
        """The live-telemetry view one ``/v1/debug/stream`` frame embeds:
        the rolling-window :meth:`~repro.obs.live.RollingWindow.snapshot`,
        the current SLO verdict (evaluating it — gauges and transition
        alerts update as a side effect), and the latest resource-sampler
        values.  Each part is ``None`` where the corresponding feature is
        disabled."""
        verdict = (
            self.slo_engine.evaluate() if self.slo_engine is not None else None
        )
        return {
            "window": self.live.snapshot() if self.live is not None else None,
            "slo": verdict.to_dict() if verdict is not None else None,
            "sampler": (
                self._sampler.values() if self._sampler is not None else None
            ),
        }

    async def aclose(self) -> None:
        """Graceful shutdown: stop admitting, drain the coalescer (every
        admitted query resolves), stop the resource sampler, close an
        owned worker pool.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        await self._coalescer.drain()
        if self._sampler is not None:
            await self._sampler.aclose()
        if self._owns_executor and self._executor is not None:
            self._executor.close()
            self._executor = None
            self._owns_executor = False

    async def __aenter__(self) -> "MixingService":
        """Enter the serving context."""
        return self

    async def __aexit__(self, *exc) -> None:
        """Drain and close on context exit."""
        await self.aclose()

    @property
    def metrics(self) -> MetricsRegistry:
        """The service's composed metrics registry: cache + coalescer
        counters, the graph registry's, an attached executor's, and the
        process-global engine/kernel metrics — ``metrics.render()`` is
        the full Prometheus payload for a ``/metrics`` endpoint, and
        ``metrics.snapshot()`` its JSON twin."""
        return self._metrics

    def stats(self) -> dict:
        """One dictionary of every layer's counters: ``cache`` (hits /
        misses / inflight dedup / carry-forward), ``coalescer`` (batches,
        flush triggers, largest batch), ``registry`` (resolves, changes),
        ``flight`` (recorder totals and occupancy) and — when a pool is
        attached — ``executor`` utilization."""
        out = {
            "cache": self._cache.stats(),
            "coalescer": self._coalescer.stats(),
            "registry": self.registry.stats(),
            "service": {"deadline_expired": self._expired.value},
            "flight": self.flight.stats(),
        }
        if self._executor is not None:
            out["executor"] = self._executor.stats()
        if self.live is not None:
            out["live"] = self.live.stats()
        if self.slo_engine is not None:
            out["slo"] = self.slo_engine.stats()
        return out
