"""The sharded process-pool executor behind the parallel front doors.

:class:`ShardExecutor` owns a persistent
:class:`concurrent.futures.ProcessPoolExecutor` whose workers are reused
across calls — the pool survives any number of solves, graphs and
snapshots.  Graphs travel to workers through
:class:`~repro.parallel.shared.SharedCSR` segments published once per
structure (each worker keeps as many attached as its executor keeps
published); tasks carry only the tiny
:class:`~repro.parallel.shared.SharedHandle`.

Determinism contract
--------------------
Work is split by :func:`shard_bounds` into **contiguous** shards in input
order (``numpy.array_split`` semantics: the first ``k mod W`` shards get
one extra item), and results are merged back in shard order.  Because every
batched-engine result is per-source identical to the per-source reference
loop (the loop-equivalence guarantee), a shard's block solve performs
bitwise the same arithmetic per column as the corresponding single-process
chunk — so the merged output is *independent of the worker count and shard
boundaries*, not merely statistically equivalent.  Each worker solves only
its own ``k/W`` columns, as the engine's cache-sized column tiles one after
another on the worker's own thread, so each process holds one tile's block
at a time; a ``batch_size`` is forwarded and caps each worker's tiles.

Start methods
-------------
The pool uses the platform default start method unless overridden by the
``start_method`` argument or the ``REPRO_PARALLEL_START_METHOD``
environment variable (the CI matrix runs the suite under both ``fork`` and
``spawn``).  Everything shipped to workers — the module-level task
functions, :class:`SharedHandle`, knob dictionaries, seeds — is
picklable, so ``spawn`` (macOS/Windows default) is fully supported.

Observability
-------------
Utilization counters live on the executor's
:class:`~repro.obs.metrics.MetricsRegistry` (``repro_executor_*``, with
per-worker attribution as a pid-labelled counter family) behind the
unchanged :meth:`ShardExecutor.stats` dict; :meth:`ShardExecutor.reset`
zeroes them for windowed measurement.  While tracing is enabled in the
*parent*, :meth:`ShardExecutor.run_sharded` asks each worker to collect
(``collect=True`` on the task): the worker scopes observability around
its solve, wraps it in a ``shard_solve`` span carrying the kernel-profile
delta of exactly that solve, and ships the span dict back on the existing
task-return channel — the parent re-attaches each worker timeline under
the dispatching span and folds the kernel deltas into its own profiler,
so cross-process kernel time aggregates into one trace.
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
import os
import threading
import weakref
from collections import Counter, OrderedDict
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, wait
from contextlib import contextmanager
from functools import partial
from multiprocessing import resource_tracker
from typing import Callable, Sequence

from repro.engine import batch as engine_batch
from repro.graphs.base import Graph
from repro.obs import (
    MetricsRegistry,
    Span,
    attach_or_record,
    diff_kernel_snapshots,
    kernel_profiler,
    observability,
    observability_enabled,
    use_span,
)
from repro.parallel.shared import SharedCSR, SharedHandle

__all__ = ["ShardExecutor", "shard_bounds", "default_start_method"]

#: Environment variable overriding the multiprocessing start method (the CI
#: portability matrix sets it to ``spawn``).
START_METHOD_ENV = "REPRO_PARALLEL_START_METHOD"

#: How many graph segments an executor keeps published beyond those
#: pinned by in-flight calls.
MAX_PUBLISHED = 16


def default_start_method() -> str:
    """The start method new executors use: ``REPRO_PARALLEL_START_METHOD``
    if set, else the platform default (``fork`` on Linux, ``spawn`` on
    macOS/Windows)."""
    env = os.environ.get(START_METHOD_ENV, "").strip()
    if env:
        return env
    return mp.get_start_method(allow_none=False)


def shard_bounds(n_items: int, n_shards: int) -> list[tuple[int, int]]:
    """Contiguous near-even shard boundaries ``[(lo, hi), …)`` over
    ``range(n_items)`` — ``numpy.array_split`` semantics (the first
    ``n_items mod n_shards`` shards get one extra item), with empty shards
    dropped (``n_shards > n_items`` degrades to one shard per item).

    This is the deterministic sharding every parallel driver uses; the
    boundaries are part of the equivalence contract only in that they are
    *contiguous and in input order* — the merged result is the same for any
    partition (see the module docstring).
    """
    if n_items < 0:
        raise ValueError("n_items must be non-negative")
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    if n_items == 0:
        return []
    n_shards = min(n_shards, n_items)
    base, extra = divmod(n_items, n_shards)
    bounds = []
    lo = 0
    for i in range(n_shards):
        hi = lo + base + (1 if i < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


# ---------------------------------------------------------------------- #
# Worker side (module-level so every start method can pickle the tasks)
# ---------------------------------------------------------------------- #

#: Per-worker LRU of attached graph segments (keyed by segment name):
#: keeps the worker-side ``Graph`` (and its warm ``cached_property`` state)
#: alive across tasks, bounded (by its executor's ``max_published``, set
#: in :func:`_init_worker`) so long snapshot streams do not pin stale
#: mappings.  Entries are only mappings — the arrays live once in shared
#: memory.
_WORKER_CACHE_SIZE = MAX_PUBLISHED
_worker_segments: "OrderedDict[str, SharedCSR]" = OrderedDict()


def _init_worker(cache_size: int) -> None:
    """Pool-worker initializer: keep as many attached graphs as the
    executor keeps published."""
    global _WORKER_CACHE_SIZE
    _WORKER_CACHE_SIZE = cache_size


def _attached(handle: SharedHandle) -> SharedCSR:
    """Attach (or reuse) the segment behind ``handle``."""
    shared = _worker_segments.get(handle.shm_name)
    if shared is None:
        # Pool workers inherit the publisher's resource tracker (under
        # every start method: the tracker fd travels in the spawn
        # preparation data), so attach-registration dedups against the
        # publisher's entry and must NOT be untracked — the publisher's
        # unlink is the one and only deregistration.
        shared = _worker_segments[handle.shm_name] = SharedCSR.attach(handle)
        while len(_worker_segments) > _WORKER_CACHE_SIZE:
            _worker_segments.popitem(last=False)[1].close()
    else:
        _worker_segments.move_to_end(handle.shm_name)
    return shared


def _solve_shard(
    handle: SharedHandle,
    solve: Callable,
    sources: int,
    collect: bool = False,
):
    """Worker kernel: one τ solve ``solve(graph)`` of ``sources`` sources
    (a batched call on a shard, or the engine's tile solver on a run of a
    pooled call's tiles), returned as ``(worker_pid, results, obs)`` for
    :meth:`ShardExecutor.stats`.  ``obs`` is ``None`` unless the parent
    traces (``collect=True``); then it is the worker's ``shard_solve``
    span as a :meth:`~repro.obs.trace.Span.to_dict` payload, carrying the
    kernel-profile delta of exactly this solve in ``meta["kernels"]``."""
    g = _attached(handle).graph
    if not collect:
        return os.getpid(), solve(g), None
    # Scope observability around exactly this solve so the kernel-profile
    # delta attributes cleanly even on a warm reused worker.
    with observability(True):
        profiler = kernel_profiler()
        before = profiler.snapshot()
        span = Span(
            "shard_solve", {"pid": os.getpid(), "kind": "times",
                            "sources": sources}
        )
        # Ambient-scope the span so the engine's own engine_solve trace
        # nests under it instead of landing in the worker's root sink.
        with use_span(span):
            out = solve(g)
        span.finish()
        span.meta["kernels"] = diff_kernel_snapshots(
            before, profiler.snapshot()
        )
    return os.getpid(), out, span.to_dict()


def _map_shard(handle: SharedHandle | None, fn: Callable, chunk: list):
    """Worker kernel for :func:`~repro.parallel.api.shard_map`: apply ``fn``
    to every item of the chunk (with the shared graph prepended when the
    caller published one); returns ``(worker_pid, results)``."""
    if handle is None:
        return os.getpid(), [fn(item) for item in chunk]
    g = _attached(handle).graph
    return os.getpid(), [fn(g, item) for item in chunk]


# ---------------------------------------------------------------------- #
# Parent side
# ---------------------------------------------------------------------- #


class ShardExecutor:
    """A persistent worker pool with shared-memory graph publication.

    Parameters
    ----------
    n_workers:
        Pool size (default: ``os.cpu_count()``).  Also the default shard
        count for solves submitted through this executor.
    start_method:
        Multiprocessing start method (default:
        :func:`default_start_method`).
    max_published:
        How many graph segments stay published (default
        :data:`MAX_PUBLISHED`); each worker keeps as many attached.

    At most ``max_published`` graph segments stay published; least
    recently used ones beyond the bound are unlinked.  A call's segment is
    pinned from publication until its futures resolve, so eviction never
    unlinks a segment a queued task still needs — the bound may be
    exceeded while pins are held.

    Use as a context manager (or call :meth:`close`) so the pool and every
    shared segment are torn down deterministically; tests assert that after
    :meth:`close` no published segment can be re-attached.  One executor
    may be driven from several threads (the async serving layer does):
    publication, the utilization counters and teardown are lock-protected.
    """

    def __init__(
        self,
        n_workers: int | None = None,
        *,
        start_method: str | None = None,
        max_published: int = MAX_PUBLISHED,
    ):
        if n_workers is None:
            n_workers = os.cpu_count() or 1
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.n_workers = int(n_workers)
        self.start_method = start_method or default_start_method()
        self._pid = os.getpid()  # a fork of the maker must not close it
        # Start the resource tracker before any worker can fork: workers
        # forked without one each start a private tracker, which warns at
        # shutdown about segments the publisher has already unlinked.
        resource_tracker.ensure_running()
        ctx = mp.get_context(self.start_method)
        self.max_published = int(max_published)
        self._pool = ProcessPoolExecutor(
            max_workers=self.n_workers,
            mp_context=ctx,
            initializer=_init_worker,
            initargs=(self.max_published,),
        )
        if self.start_method == "fork":
            # A fork pool forks every worker on its first submit.  Do it
            # now, before any thread can publish: a worker forked while
            # another thread holds the resource tracker's lock (segment
            # create/unlink) inherits it held and deadlocks on its first
            # segment attach.
            try:
                self._pool.submit(int).result()
            except BaseException:  # e.g. no process could be forked
                self._pool.shutdown(wait=True, cancel_futures=True)
                raise
        #: Published segments keyed by graph, least recently used first.
        self._published: "OrderedDict[Graph, SharedCSR]" = OrderedDict()
        #: In-flight pin counts per graph (see :meth:`_publish`).
        self._pins: Counter = Counter()
        self._closed = False
        # The async serving layer calls one executor from several engine
        # worker threads at once; publication, the stats counters and
        # teardown share this lock (the pool's own submit is thread-safe).
        self._lock = threading.RLock()
        #: The executor's metrics registry (``repro_executor_*``); the
        #: serving layer composes it into its own exposition.
        self.metrics = MetricsRegistry()
        self._calls = self.metrics.counter(
            "repro_executor_calls_total",
            "Sharded submissions (run_sharded + map_items).",
        )
        self._tasks_dispatched = self.metrics.counter(
            "repro_executor_tasks_dispatched_total",
            "Shard tasks sent to the pool.",
        )
        self._items_processed = self.metrics.counter(
            "repro_executor_items_processed_total",
            "Sources/items across all dispatched tasks.",
        )
        self._worker_solves = self.metrics.counter(
            "repro_executor_worker_solves_total",
            "Completed shard tasks attributed per worker process.",
            labels=("pid",),
        )
        self.metrics.gauge(
            "repro_executor_workers", "Configured pool size."
        ).set(self.n_workers)
        self._last_shard_sizes: list[int] = []
        _executors.add(self)

    # -------------------------------------------------------------- #
    # Graph publication
    # -------------------------------------------------------------- #

    def publish(self, g: Graph) -> SharedHandle:
        """Place ``g``'s CSR arrays in shared memory (idempotent per
        structure: :class:`Graph` hashes by its CSR bytes, so a revisited
        dynamic-snapshot topology reuses its existing segment)."""
        return self._publish(g)

    def _publish(self, g: Graph, pins: list | None = None) -> SharedHandle:
        """The handle for ``g``, publishing its segment on first use.

        The segment is built under the lock (a CSR copy is cheap), so
        concurrent publishers of one graph never race.  With ``pins``
        given, ``g`` is pinned (and appended to ``pins``) under the same
        lock hold that returns the handle, so no eviction can slip in
        between; :meth:`_dispatch` releases it."""
        self._check_open()
        with self._lock:
            if g not in self._published:
                self._published[g] = SharedCSR.publish(g)
            self._published.move_to_end(g)
            if pins is not None:
                self._pins[g] += 1
                pins.append(g)
            self._evict()
            return self._published[g].handle

    def _evict(self) -> None:
        """Unlink least recently used unpinned segments beyond
        ``max_published`` (caller holds the lock; the most recent entry is
        never evicted)."""
        excess = len(self._published) - self.max_published
        for key in list(self._published)[:-1]:
            if excess <= 0:
                break
            if key not in self._pins:
                self._published.pop(key).dispose()
                excess -= 1

    def release(self, g: Graph) -> None:
        """Unlink ``g``'s segment now instead of waiting for :meth:`close`
        (workers' existing mappings stay valid until they rotate out)."""
        with self._lock:
            if g in self._published:
                self._published.pop(g).dispose()

    # -------------------------------------------------------------- #
    # Execution
    # -------------------------------------------------------------- #

    def run_sharded(
        self,
        g: Graph,
        sources: Sequence[int],
        kwargs: dict,
        *,
        n_shards: int | None = None,
    ):
        """Shard ``sources`` contiguously, solve every shard on the pool
        with :func:`~repro.engine.batch.batched_local_mixing_times` and the
        knobs ``kwargs``, and merge in shard order.

        Returns the results in ``sources`` order, element-for-element
        identical to the single-process batched call.
        """
        self._check_open()
        n_shards = self._resolve_shards(n_shards)
        src = [int(s) for s in sources]
        bounds = shard_bounds(len(src), n_shards)
        return self._solve(g, [(
            partial(
                engine_batch.batched_local_mixing_times,
                sources=src[lo:hi], **kwargs,
            ),
            hi - lo,
        ) for lo, hi in bounds])

    def run_tiles(self, g: Graph, src: list[int], tiles: list, args: tuple,
                  n_shards: int) -> list:
        """The engine's inline tile solver on ``tiles`` of ``src``, as
        ``n_shards`` contiguous runs of tiles, one task each (so at most
        ``n_shards`` tiles are in flight); returns the same pairs."""
        self._check_open()
        return self._solve(g, [(
            partial(engine_batch._solve_tiles, src=src, tiles=tiles[lo:hi],
                    args=args),
            tiles[hi - 1][1] - tiles[lo][0],
        ) for lo, hi in shard_bounds(len(tiles), n_shards)])

    def _solve(self, g: Graph, tasks: list) -> list:
        """Run ``(solve, sources)`` τ tasks through
        :func:`_solve_shard` and concatenate their results in task order."""
        # Ask workers for their timelines only while the parent is
        # tracing; the shipped span dicts ride the normal result tuple.
        collect = observability_enabled()
        parts = self._dispatch(
            _solve_shard, g, [(*task, collect) for task in tasks]
        )
        self._record_dispatch(
            [n for _, n in tasks], (pid for pid, _, _ in parts)
        )
        if collect:
            self._ingest_worker_spans(obs for _, _, obs in parts)
        return [res for _, part, _ in parts for res in part]

    def _ingest_worker_spans(self, payloads) -> None:
        """Fold shipped worker timelines into the parent trace: rebuild
        each ``shard_solve`` span dict, merge its kernel-profile delta
        into the parent's profiler, and attach the span under the current
        ambient span (or record it as a root trace)."""
        profiler = kernel_profiler()
        for payload in payloads:
            if payload is None:
                continue
            span = Span.from_dict(payload)
            delta = span.meta.get("kernels")
            if delta:
                profiler.merge(delta)
            attach_or_record(span)

    def map_items(
        self,
        fn: Callable,
        items: Sequence,
        *,
        graph: Graph | None = None,
        n_shards: int | None = None,
    ) -> list:
        """Apply a picklable module-level ``fn`` to every item, sharded
        contiguously across the pool; results come back in ``items`` order.

        With ``graph`` given, the graph is published once and ``fn`` is
        called as ``fn(shared_graph, item)`` — per-source workloads get the
        zero-copy topology without pickling it per task."""
        self._check_open()
        n_shards = self._resolve_shards(n_shards)
        items = list(items)
        if not items:
            return []
        bounds = shard_bounds(len(items), n_shards)
        parts = self._dispatch(
            _map_shard, graph, [(fn, items[lo:hi]) for lo, hi in bounds]
        )
        self._record_dispatch(
            [hi - lo for lo, hi in bounds], (pid for pid, _ in parts)
        )
        return [res for _, part in parts for res in part]

    def _dispatch(
        self, fn: Callable, graph: Graph | None, tasks: list
    ) -> list:
        """Publish ``graph`` (``None`` passes a ``None`` handle), run
        ``fn(handle, *args)`` on the pool for every task, and return the
        results in task order.  The graph stays pinned until every
        submitted task has finished, also when one of them fails."""
        pins: list = []
        futures = []
        try:
            handle = None if graph is None else self._publish(graph, pins)
            for args in tasks:
                futures.append(self._pool.submit(fn, handle, *args))
            return [f.result() for f in futures]
        finally:
            wait(futures)
            with self._lock:
                self._pins -= Counter(pins)
                self._evict()  # what the pins held over the bound

    def _record_dispatch(self, sizes: list, worker_pids) -> None:
        """Fold one sharded call (its tasks' item counts) into the
        utilization counters."""
        with self._lock:
            self._calls.inc()
            self._tasks_dispatched.inc(len(sizes))
            self._items_processed.inc(sum(sizes))
            self._last_shard_sizes = sizes
            for pid in worker_pids:
                self._worker_solves.labels(pid=pid).inc()

    def stats(self) -> dict:
        """Utilization counters since construction — or since the last
        :meth:`reset` — as a snapshot copy (mutating it never affects the
        executor).

        Keys: ``calls`` (sharded submissions — ``run_sharded`` +
        ``map_items``), ``tasks_dispatched`` (shard tasks sent to the
        pool), ``items_processed`` (sources/items across all tasks),
        ``per_worker_solves`` (``{worker_pid: completed shard tasks}`` —
        how evenly the pool was used, **cumulative across calls**),
        ``last_shard_sizes`` (the shard partition of the most recent call
        only), plus ``n_workers`` and ``published_graphs``.  The serving
        layer and ``bench_s1`` report these; they never affect results.
        """
        with self._lock:
            return {
                "calls": self._calls.value,
                "tasks_dispatched": self._tasks_dispatched.value,
                "items_processed": self._items_processed.value,
                "per_worker_solves": {
                    int(label_values[0]): leaf.value
                    for label_values, leaf in self._worker_solves.series()
                },
                "last_shard_sizes": list(self._last_shard_sizes),
                "n_workers": self.n_workers,
                "published_graphs": len(self._published),
            }

    def reset(self) -> None:
        """Zero the utilization counters (``calls``, ``tasks_dispatched``,
        ``items_processed``, the cumulative ``per_worker_solves``
        attribution) and clear ``last_shard_sizes``, so the next
        :meth:`stats` snapshot covers exactly the work dispatched after
        this call — benchmarks use it to attribute one timed run without
        warm-up arithmetic.  Configuration values (``n_workers``, the
        published-segment counts) are unaffected."""
        with self._lock:
            self._calls.reset()
            self._tasks_dispatched.reset()
            self._items_processed.reset()
            self._worker_solves.reset()
            self._last_shard_sizes = []

    def _resolve_shards(self, n_shards: int | None) -> int:
        """Default the shard count to the pool size; an explicit value
        must be >= 1 (0 is an error, not "use the default")."""
        if n_shards is None:
            return self.n_workers
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        return n_shards

    # -------------------------------------------------------------- #
    # Lifecycle
    # -------------------------------------------------------------- #

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("ShardExecutor is closed")

    def close(self) -> None:
        """Shut the pool down and unlink every published segment
        (idempotent).  After this returns, no segment this executor
        published can be attached again."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._pool.shutdown(wait=True)
        with self._lock:
            for shared in self._published.values():
                shared.dispose()
            self._published.clear()

    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            if self._pid == os.getpid():
                self.close()
        except Exception:
            pass

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"ShardExecutor(n_workers={self.n_workers}, "
            f"start_method={self.start_method!r}, "
            f"published={len(self._published)}, {state})"
        )


#: The pool multi-tile engine calls run on, made on first use.
_tile_pool: ShardExecutor | None = None
#: Held by the one call whose tiles are on the pool.
_tile_pool_lease = threading.Lock()
#: The pid in which making the tile pool started the resource tracker.
_tracker_started_in: int | None = None
#: Every executor made in this process, to tell whether another is open.
_executors: "weakref.WeakSet[ShardExecutor]" = weakref.WeakSet()


def _make_tile_pool() -> ShardExecutor | None:
    """The tile pool, made now (holding one graph at a time), or ``None``
    where no processes or semaphores are to be had."""
    global _tile_pool, _tracker_started_in
    tracker = resource_tracker._resource_tracker
    before = tracker._pid
    try:
        _tile_pool = ShardExecutor(engine_batch._usable_cpus(),
                                   max_published=1)
    except (OSError, NotImplementedError):
        return None
    finally:
        if tracker._pid != before:
            _tracker_started_in = os.getpid()
    return _tile_pool


@contextmanager
def leased_tile_pool(wanted: bool = True):
    """Yield the process-wide tile pool for one call, or ``None`` (run
    inline) when not ``wanted``, when another call holds it (never
    waited for), in a fork of the pool's maker or where no pool can be
    made."""
    global _tile_pool
    if not wanted or not _tile_pool_lease.acquire(blocking=False):
        yield None
        return
    try:
        pool = _tile_pool or _make_tile_pool()
        yield pool if pool and pool._pid == os.getpid() else None
    except BrokenExecutor:  # a worker died: the next call makes a new pool
        _tile_pool.close()
        _tile_pool = None
        raise
    finally:
        _tile_pool_lease.release()


@atexit.register
def _close_tile_pool() -> None:
    """Interpreter-exit teardown of the tile pool: join its workers,
    unlink its segments, and, if making it started the resource tracker
    and no other executor is still open, stop and reap the tracker (left
    running, it outlives us as an unreaped zombie of whoever inherits it)."""
    pid = os.getpid()
    if _tile_pool is not None and _tile_pool._pid == pid:
        _tile_pool.close()
    if _tracker_started_in == pid and not any(
        ex._pid == pid and not ex._closed for ex in _executors
    ):
        resource_tracker._resource_tracker._stop()
