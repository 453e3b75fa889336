"""Async serving: a query front end over the batch/parallel engines.

The north-star workload is *serving*: many concurrent clients, each asking
for the local mixing time of one source on one (possibly evolving) graph —
the paper's per-node, node-initiated query model, productionized.  This
subsystem turns the engines into that server without surrendering one bit
of exactness:

* :class:`~repro.service.query.MixingQuery` — the request model: graph
  reference (object, dynamic graph, or registered name), source, and the
  engine's full knob space, canonicalized through the engine's shared
  :func:`~repro.engine.batch.canonical_times_key` head so equivalent
  spellings coalesce and cache together.
* :class:`~repro.service.coalescer.QueryCoalescer` — micro-batching:
  concurrent queries sharing ``(graph, knobs)`` are held for a tiny window
  and solved as **one** batched block call (``k`` clients ≈ one solve, not
  ``k``), optionally sharded across a
  :class:`~repro.parallel.ShardExecutor` pool.
* :class:`~repro.service.cache.ResultCache` — structural LRU keyed by
  ``(graph, source, TimesKey)`` with hit/miss/in-flight-dedup counters;
  rides the library-wide "structural equality is cache identity" contract,
  so revisited dynamic snapshots hit without recomputation.
* :class:`~repro.service.registry.GraphRegistry` — named graphs, static or
  dynamic; a mutation of a registered
  :class:`~repro.dynamic.DynamicGraph` invalidates **only dirty sources**:
  entries whose ``τ_s`` is below the edit's
  :func:`~repro.dynamic.tracker.edit_distance_bounds` radius are carried
  forward to the new snapshot (the tracker's locality-pruning argument).
* :class:`~repro.service.service.MixingService` — the front door:
  ``await submit(query)`` / ``submit_many``, async context manager,
  graceful drain on shutdown; queries may carry per-query deadlines
  (answered in time or failed with a typed
  :class:`~repro.service.errors.DeadlineExceededError`).
* :mod:`repro.service.wire` — the *network* front door: an asyncio
  HTTP + WebSocket server (:class:`~repro.service.wire.WireServer`)
  speaking a versioned JSON protocol over the full query knob space,
  with bounded admission (429 backpressure instead of unbounded
  buffering), deadline-aware coalescer flushes, a ``GET /metrics``
  Prometheus endpoint, and a matching asyncio client
  (:class:`~repro.service.wire.WireClient`).

**Serving answers are bitwise identical to direct engine calls** under any
coalescing batch composition, cache state, and client concurrency — the
same equivalence discipline as every other layer (tests:
``tests/test_service.py``; throughput: ``benchmarks/bench_v1_serving.py``).
"""

from repro.service.cache import ResultCache
from repro.service.coalescer import QueryCoalescer
from repro.service.errors import (
    DeadlineExceededError,
    OverloadedError,
    ServiceClosedError,
    ServingError,
)
from repro.service.query import ExecutionKey, MixingQuery
from repro.service.registry import GraphRegistry
from repro.service.service import MixingService

__all__ = [
    "DeadlineExceededError",
    "ExecutionKey",
    "MixingQuery",
    "OverloadedError",
    "QueryCoalescer",
    "ResultCache",
    "GraphRegistry",
    "MixingService",
    "ServiceClosedError",
    "ServingError",
]
