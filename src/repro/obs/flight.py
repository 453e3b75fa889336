"""The flight recorder: a bounded in-memory log of completed queries.

Metrics (:mod:`repro.obs.metrics`) aggregate; traces
(:mod:`repro.obs.trace`) are opt-in and sampled by whoever is watching.
Neither answers the operator's actual question when a production query
misbehaves: *what exactly happened to the query that just came back slow
(or not at all)?*  The :class:`FlightRecorder` closes that gap — an
**always-on**, bounded, thread-safe ring buffer of per-query
:class:`QueryRecord` entries written by the serving layer at query
completion:

* every record carries the query's trace id, the graph's structural key,
  the canonical knob identity, the outcome (or
  typed error code — a :class:`~repro.service.errors.DeadlineExceededError`
  or a wire-aborted query leaves a record like any success), the cache /
  coalescer disposition, and the end-to-end duration;
* while tracing is enabled the record additionally captures the
  per-stage span durations of the query's own timeline and — for batches
  that sharded across a :class:`~repro.parallel.ShardExecutor` — the
  per-worker kernel-profile deltas shipped back on the executor's
  task-return channel (see :func:`stages_from_span` /
  :func:`kernels_from_span`);
* a second, smaller ring — the **slow-query log** — admits only records
  whose duration crosses a configurable threshold, with slowest-N
  retrieval filterable per graph.

Cost contract (the same one :mod:`repro.obs.config` documents): a record
is an O(1) append of numbers the serving path already computed — two
``perf_counter`` reads and one deque append per query, no serialization,
no I/O — and recording never touches the computation, so results are
bitwise identical with the recorder on, off (``capacity=0``), or full
(the ring overwrites, it never blocks).  ``tests/test_flight.py`` pins
both halves; ``benchmarks/bench_o1_observability.py`` gates the
enabled-vs-disabled overhead.

Records are exported over the wire by :mod:`repro.obs.export` and the
``WireServer``'s ``GET /v1/debug/flight`` / ``/v1/debug/slow`` /
``/v1/debug/trace/<id>`` endpoints.
"""

from __future__ import annotations

import itertools
import threading
from collections import deque
from dataclasses import dataclass, field

from .metrics import MetricsRegistry

__all__ = [
    "FlightRecorder",
    "QueryRecord",
    "graph_key",
    "kernels_from_span",
    "stages_from_span",
]


def graph_key(g) -> str:
    """A short, structural identity string for a graph: ``"<n>n:<hex>"``
    where the hex part digests the CSR adjacency (BLAKE2b-64).  Equal
    structures get equal keys — the same contract the serving caches ride
    — so flight records of structurally revisited dynamic snapshots
    correlate.  Memoized on the (immutable) graph object, so the O(m)
    digest is paid once per structure and every later record appends a
    precomputed string."""
    key = g.__dict__.get("_flight_key")
    if key is None:
        import hashlib

        h = hashlib.blake2b(digest_size=8)
        h.update(g._indptr.tobytes())
        h.update(g._indices.tobytes())
        key = g.__dict__["_flight_key"] = f"{g.n}n:{h.hexdigest()}"
    return key


def stages_from_span(span) -> dict:
    """Flatten a finished query span tree into ``{stage name: summed
    wall seconds}`` — the per-stage breakdown a :class:`QueryRecord`
    stores (``cache_lookup``, ``coalesced_batch``, ``engine_solve``,
    ``shard_solve``, ...).  Repeated stage names accumulate; an
    unfinished child contributes nothing.  ``None`` (tracing disabled)
    yields ``{}``."""
    out: dict = {}
    if span is None:
        return out
    stack = list(span.children)
    while stack:
        s = stack.pop()
        if s.duration is not None:
            out[s.name] = out.get(s.name, 0.0) + s.duration
        stack.extend(s.children)
    return out


def kernels_from_span(span) -> dict:
    """Collect the worker-side kernel-profile deltas riding a query's
    span tree: every ``shard_solve`` span carries the delta of exactly
    its solve in ``meta["kernels"]`` (shipped back over the
    :class:`~repro.parallel.ShardExecutor` task-return channel), and this
    merges them into one ``{"float64/<kernel>": {"calls", "seconds"}}``
    dict for the flight record.  ``{}`` when tracing was off or the solve
    never sharded."""
    merged: dict = {}
    if span is None:
        return merged
    stack = [span]
    while stack:
        s = stack.pop()
        if s.name == "shard_solve":
            delta = s.meta.get("kernels") or {}
            for key, vals in delta.get("kernels", {}).items():
                slot = merged.setdefault(key, {"calls": 0, "seconds": 0.0})
                slot["calls"] += vals.get("calls", 0)
                slot["seconds"] += vals.get("seconds", 0.0)
        stack.extend(s.children)
    return merged


@dataclass
class QueryRecord:
    """One completed query, as the flight recorder remembers it.

    Every field is a number or small string the serving path had already
    computed when the query finished — building a record allocates one
    object and copies references, nothing else.  ``knobs`` holds the
    engine's canonical ``TimesKey`` (a NamedTuple; serialized by
    :mod:`repro.obs.export`), ``span`` the finished root
    :class:`~repro.obs.trace.Span` of the query's timeline when tracing
    was enabled (``None`` otherwise — the record itself is always-on).
    """

    #: Unique per-recorder id correlating the record with latency
    #: histogram exemplars and ``/v1/debug/trace/<id>`` lookups.
    trace_id: str
    #: Structural graph identity (:func:`graph_key`), ``None`` when the
    #: query failed before its graph reference resolved.
    graph: str | None
    #: Query source vertex.
    source: int
    #: ``"ok"``, a stable error code (``"deadline_exceeded"``,
    #: ``"shutting_down"``, ``"bad_request"``, ``"not_found"``,
    #: ``"unconverged"``) or ``"error:<ExceptionType>"``.
    outcome: str
    #: End-to-end seconds, admission to answer (or typed failure).
    duration: float
    #: Canonical knob identity (``TimesKey``), ``None`` before
    #: canonicalization succeeded.
    knobs: object = None
    #: Cache disposition: ``"hit"`` / ``"miss"`` / ``"inflight_dedup"``
    #: (``"miss"`` means the query cost — or joined — a coalesced solve).
    cache: str | None = None
    #: Coalesced-batch facts when tracing captured them:
    #: ``{"sources": ..., "trigger": ...}``.
    batch: dict | None = None
    #: Merged worker-side kernel deltas (:func:`kernels_from_span`).
    kernels: dict = field(default_factory=dict)
    #: Per-stage wall seconds (:func:`stages_from_span`).
    stages: dict = field(default_factory=dict)
    #: Query priority and relative deadline as admitted (serving knobs —
    #: they never change what was computed, but they explain scheduling).
    priority: int = 0
    deadline: float | None = None
    #: Unix wall-clock completion time (``time.time()``) so records
    #: correlate with external logs; exported as ``"unix_ts"``.
    unix_ts: float = 0.0
    #: Finished root span of the query timeline (tracing enabled only).
    span: object = None


def _truncate(records: list, limit: int | None) -> list:
    """The first ``limit`` records (all when ``limit`` is ``None``)."""
    if limit is None:
        return records
    if limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    return records[:limit]


class FlightRecorder:
    """An always-on, bounded, thread-safe ring of :class:`QueryRecord`.

    Parameters
    ----------
    capacity:
        Main-ring bound (oldest records overwritten).  ``0`` disables the
        recorder entirely: :meth:`record` returns immediately and no
        counters move — the off half of the bitwise-identity contract.
    slow_threshold:
        Seconds at or above which a record is *also* admitted to the
        slow-query ring (its own, smaller bound: ``slow_capacity``).
    slow_capacity:
        Slow-ring bound.
    registry:
        Optional shared :class:`~repro.obs.metrics.MetricsRegistry` for
        the recorder counters (``repro_flight_records_total``,
        ``repro_flight_slow_total``, ``repro_flight_errors_total``);
        private when omitted, exposed as :attr:`metrics`.

    Thread-safety: one lock guards both rings; every public method takes
    it for O(ring) at most (reads copy), appends are O(1).  The serving
    layer records from the event loop while debug endpoints, tests and
    benchmark threads read concurrently — ``tests/test_flight.py``
    hammers exactly that with exact record accounting.
    """

    def __init__(
        self,
        capacity: int = 1024,
        *,
        slow_threshold: float = 0.25,
        slow_capacity: int = 256,
        registry: MetricsRegistry | None = None,
    ):
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        if slow_capacity < 1:
            raise ValueError("slow_capacity must be >= 1")
        if slow_threshold < 0:
            raise ValueError("slow_threshold must be >= 0")
        self.capacity = int(capacity)
        self.slow_threshold = float(slow_threshold)
        self.slow_capacity = int(slow_capacity)
        self._ring: deque[QueryRecord] = deque(maxlen=max(capacity, 1))
        self._slow: deque[QueryRecord] = deque(maxlen=slow_capacity)
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self.metrics = registry if registry is not None else MetricsRegistry()
        self._records_total = self.metrics.counter(
            "repro_flight_records_total",
            "Query records appended to the flight recorder.",
        )
        self._slow_total = self.metrics.counter(
            "repro_flight_slow_total",
            "Flight records at or above the slow-query threshold.",
        )
        self._errors_total = self.metrics.counter(
            "repro_flight_errors_total",
            "Flight records whose outcome was not ok.",
        )

    @property
    def enabled(self) -> bool:
        """False when constructed with ``capacity=0`` — every
        :meth:`record` call is then a no-op costing one attribute read."""
        return self.capacity > 0

    def next_trace_id(self) -> str:
        """A fresh trace id (``"q-<n>"``, monotonically increasing per
        recorder) — assigned at admission so latency-histogram exemplars
        and the eventual flight record agree."""
        return f"q-{next(self._ids)}"

    def record(self, rec: QueryRecord) -> None:
        """Append one completed-query record (O(1); oldest records roll
        off a full ring).  A record meeting the slow threshold is also
        admitted to the slow ring.  No-op when the recorder is disabled."""
        if not self.capacity:
            return
        slow = rec.duration >= self.slow_threshold
        with self._lock:
            self._ring.append(rec)
            if slow:
                self._slow.append(rec)
        self._records_total.inc()
        if slow:
            self._slow_total.inc()
        if rec.outcome != "ok":
            self._errors_total.inc()

    @staticmethod
    def _matches(rec: QueryRecord, graph, outcome) -> bool:
        if graph is not None and rec.graph != graph:
            return False
        if outcome is not None and rec.outcome != outcome:
            return False
        return True

    def records(
        self,
        limit: int | None = None,
        *,
        graph: str | None = None,
        outcome: str | None = None,
    ) -> list[QueryRecord]:
        """The retained records, most recent first, optionally filtered
        by graph structural key and/or outcome, truncated to ``limit``
        (a negative ``limit`` raises ``ValueError``)."""
        with self._lock:
            out = [
                rec
                for rec in reversed(self._ring)
                if self._matches(rec, graph, outcome)
            ]
        return _truncate(out, limit)

    def slow_records(
        self,
        limit: int | None = None,
        *,
        graph: str | None = None,
    ) -> list[QueryRecord]:
        """The slow-query log's slowest-N view: retained slow records
        sorted by descending duration (ties: most recent first),
        optionally filtered per graph and truncated to ``limit`` (as in
        :meth:`records`)."""
        with self._lock:
            hits = [
                (idx, rec)
                for idx, rec in enumerate(self._slow)
                if self._matches(rec, graph, None)
            ]
        hits.sort(key=lambda pair: (-pair[1].duration, -pair[0]))
        return _truncate([rec for _, rec in hits], limit)

    def get(self, trace_id: str) -> QueryRecord | None:
        """Look a record up by trace id (both rings; ``None`` when it has
        rolled off or never existed).  O(capacity) — a debug-endpoint
        operation, not a serving-path one."""
        with self._lock:
            for rec in reversed(self._ring):
                if rec.trace_id == trace_id:
                    return rec
            for rec in reversed(self._slow):
                if rec.trace_id == trace_id:
                    return rec
        return None

    def stats(self) -> dict:
        """Recorder counters and occupancy as one plain dict:
        ``records`` / ``slow`` / ``errors`` totals plus current ring
        sizes and the configured bounds."""
        with self._lock:
            retained, slow_retained = len(self._ring), len(self._slow)
        return {
            "records": self._records_total.value,
            "slow": self._slow_total.value,
            "errors": self._errors_total.value,
            "retained": retained,
            "slow_retained": slow_retained,
            "capacity": self.capacity,
            "slow_capacity": self.slow_capacity,
            "slow_threshold": self.slow_threshold,
        }

    def clear(self) -> None:
        """Empty both rings (the totals keep counting — they are
        monotonic counters, not occupancy)."""
        with self._lock:
            self._ring.clear()
            self._slow.clear()

    def __repr__(self) -> str:
        st = self.stats()
        return (
            f"FlightRecorder(retained={st['retained']}/{self.capacity}, "
            f"slow={st['slow_retained']}/{self.slow_capacity}, "
            f"records={st['records']})"
        )
