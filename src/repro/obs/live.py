"""Live telemetry: the rolling window and the runtime resource sampler.

Every observability surface so far is a *pull* of accumulated state: the
``/metrics`` scrape is cumulative since process start, the flight
recorder is a post-hoc ring.  Neither answers the operator's live
questions — *what is the request rate right now, what is p99 over the
last minute, is the error rate climbing as we watch?*  This module
closes that gap with two pieces:

* :class:`RollingWindow` — a thread-safe, bucketed sliding window
  (default 60 buckets × 1 s) fed from the same completed-query record
  as the :class:`~repro.obs.flight.FlightRecorder`.  Each time bucket
  holds per-``(graph_key, outcome)`` request counts plus one
  unregistered :class:`~repro.obs.metrics.Histogram` (the same bounds as
  :attr:`~repro.obs.metrics.Histogram.DEFAULT_BUCKETS` by default), so a
  :meth:`RollingWindow.snapshot` yields instantaneous rates, error
  rates, and streaming p50/p95/p99 via linear interpolation inside the
  histogram buckets.  The same interpolation serves the
  :class:`~repro.obs.slo.SLOEngine`.  :meth:`RollingWindow.record` is
  O(1) — one bucket index, one histogram observation, a few dict
  increments — and observing never touches the computation, so served
  results are bitwise identical with the window on or off
  (``benchmarks/bench_o2_live_telemetry.py`` gates the enabled overhead
  < 3 % alongside ``bench_o1``'s).
* :class:`ResourceSampler` — a background asyncio task sampling the
  *runtime* (not the queries): event-loop lag, resident set size
  (``/proc/self/statm``, stdlib only), GC generation counts and
  collections, plus caller-supplied gauges (the serving layer wires in
  coalescer queue depth and executor occupancy).  Samples land on
  ordinary registry gauges so they ride ``/metrics`` and the
  ``/v1/debug/stream`` telemetry push alike.

The :class:`~repro.obs.slo.SLOEngine` evaluates service-level
objectives against :meth:`RollingWindow.snapshot`; the
``WireServer``'s ``GET /v1/debug/stream`` WebSocket pushes the same
snapshot (plus new SLO alerts and the sampler gauges) as versioned
JSON deltas — see :func:`repro.obs.export.telemetry_payload` and
``tools/obs_top.py`` for the operator-facing end of the pipe.

Clocks are injectable (``clock=``) so tests drive the window
deterministically; the defaults are ``time.monotonic`` (bucket
placement must never jump backwards) and ``time.time`` for wall-clock
stamps.
"""

from __future__ import annotations

import asyncio
import gc
import os
import threading
import time

from .metrics import Histogram, MetricsRegistry

__all__ = [
    "ResourceSampler",
    "RollingWindow",
]


class _TimeBucket:
    """One slot of the circular window: an epoch tag (which absolute
    time bucket this slot currently represents), the error count and
    per-``(graph, outcome)`` counts recorded during that bucket's
    second(s), and an unregistered :class:`~repro.obs.metrics.Histogram`
    holding the slot's latency count, sum and buckets.  Slots are reused
    in place — a record landing in a slot whose epoch has moved on
    resets it first."""

    __slots__ = ("epoch", "errors", "keys", "hist")

    def __init__(self, bounds):
        self.epoch = -1
        self.errors = 0
        self.keys: dict[tuple, int] = {}
        self.hist = Histogram("repro_window_latency_seconds", buckets=bounds)

    def reset(self, epoch: int) -> None:
        """Re-tag this slot for a new epoch, zeroing its counts."""
        self.epoch = epoch
        self.errors = 0
        self.keys = {}
        self.hist.reset()


class RollingWindow:
    """A thread-safe sliding window of completed-query telemetry.

    Parameters
    ----------
    buckets:
        Number of time buckets (default 60).  The window spans
        ``buckets × width`` seconds; counts older than that age out as
        their slots are reused.
    width:
        Seconds per bucket (default 1.0).
    bounds:
        Strictly increasing latency-histogram upper bounds (seconds),
        validated by :class:`~repro.obs.metrics.Histogram`; defaults to
        :attr:`~repro.obs.metrics.Histogram.DEFAULT_BUCKETS`, so window
        quantiles and the cumulative ``/metrics`` histograms speak the
        same bucket vocabulary.
    clock:
        Monotonic time source (injectable for deterministic tests).

    Thread-safety: one lock guards the slots; :meth:`record` holds it
    for O(1), :meth:`snapshot` for O(buckets + keys).  The serving layer
    records from the event loop while the stream pusher, ``/healthz``
    and tests read concurrently.
    """

    def __init__(
        self,
        buckets: int = 60,
        *,
        width: float = 1.0,
        bounds=None,
        clock=time.monotonic,
    ):
        if buckets < 1:
            raise ValueError("buckets must be >= 1")
        if width <= 0:
            raise ValueError("width must be > 0")
        self.n_buckets = int(buckets)
        self.width = float(width)
        self._clock = clock
        self._slots = [_TimeBucket(bounds) for _ in range(buckets)]
        self.bounds = self._slots[0].hist.buckets
        self._lock = threading.Lock()
        self._t0 = clock()
        self._total = 0  # lifetime records, monotonic (never ages out)

    @property
    def span(self) -> float:
        """The window's full extent in seconds (``buckets × width``)."""
        return self.n_buckets * self.width

    def record(
        self,
        duration: float,
        *,
        graph: str | None = None,
        outcome: str = "ok",
    ) -> None:
        """Fold one completed query into the current time bucket — O(1):
        one bucket-index division, one histogram observation, a handful
        of integer adds.  ``outcome != "ok"`` counts as an error;
        ``graph``/``outcome`` key the per-combination rate counts the
        stream and ``snapshot()`` group by."""
        now = self._clock()
        epoch = int((now - self._t0) / self.width)
        key = (graph, outcome)
        with self._lock:
            slot = self._slots[epoch % self.n_buckets]
            if slot.epoch != epoch:
                slot.reset(epoch)
            slot.hist.observe(duration)
            if outcome != "ok":
                slot.errors += 1
            slot.keys[key] = slot.keys.get(key, 0) + 1
            self._total += 1

    def _live_slots(self, now: float, span: float | None) -> list[_TimeBucket]:
        """The slots still inside the window at ``now`` (newest epoch
        last), optionally restricted to the trailing ``span`` seconds."""
        epoch_now = int((now - self._t0) / self.width)
        n_back = self.n_buckets
        if span is not None:
            n_back = min(n_back, max(1, int(span / self.width + 0.5)))
        oldest = epoch_now - n_back + 1
        return [
            slot
            for slot in self._slots
            if oldest <= slot.epoch <= epoch_now
        ]

    def snapshot(self, *, span: float | None = None) -> dict:
        """Merge the live buckets into one JSON-ready view of the
        trailing window (optionally only its last ``span`` seconds):

        ``count`` / ``errors`` / ``sum`` totals, ``rate`` and
        ``error_rate`` per second of covered time, non-cumulative
        ``latency`` bucket counts over :attr:`bounds`, interpolated
        ``quantiles`` (p50/p95/p99), per-``(graph, outcome)``
        ``keys`` rows sorted by descending count, the monotonic lifetime
        ``total``, and the window geometry (``span`` / ``covered`` /
        ``width``).  ``covered`` is the seconds of window actually
        elapsed (a freshly built window has seen less than its full
        span), which is the rate denominator."""
        now = self._clock()
        with self._lock:
            slots = self._live_slots(now, span)
            errors = sum(s.errors for s in slots)
            total_sum = sum(s.hist.sum for s in slots)
            cumulative = [0] * (len(self.bounds) + 1)
            keys: dict[tuple, int] = {}
            for s in slots:
                cumulative = [
                    a + b
                    for a, b in zip(cumulative, s.hist.cumulative_counts())
                ]
                for key, c in s.keys.items():
                    keys[key] = keys.get(key, 0) + c
            total = self._total
        count = cumulative[-1]
        latency = [c - p for p, c in zip([0] + cumulative, cumulative)]
        full_span = self.span if span is None else min(span, self.span)
        covered = max(min(now - self._t0, full_span), self.width)
        return {
            "span": full_span,
            "width": self.width,
            "covered": covered,
            "count": count,
            "errors": errors,
            "sum": total_sum,
            "rate": count / covered,
            "error_rate": (errors / count) if count else 0.0,
            "latency": latency,
            "bounds": list(self.bounds),
            "quantiles": {
                f"p{round(q * 100)}": _interpolate(
                    latency, self.bounds, q, count
                )
                for q in (0.5, 0.95, 0.99)
            },
            "keys": [
                {
                    "graph": graph,
                    "outcome": outcome,
                    "count": c,
                }
                for (graph, outcome), c in sorted(
                    keys.items(),
                    key=lambda kv: (-kv[1], str(kv[0])),
                )
            ],
            "total": total,
        }

    def stats(self) -> dict:
        """Occupancy and configuration as one plain dict — the lifetime
        ``total`` plus window geometry (for ``MixingService.stats``)."""
        with self._lock:
            total = self._total
        return {
            "total": total,
            "buckets": self.n_buckets,
            "width": self.width,
            "span": self.span,
        }

    def __repr__(self) -> str:
        return (
            f"RollingWindow({self.n_buckets}x{self.width:g}s, "
            f"total={self._total})"
        )


def _interpolate(latency, bounds, q: float, count: int) -> float | None:
    """The ``q``-quantile of a windowed latency histogram by linear
    interpolation inside the bucket the target rank falls in (Prometheus
    ``histogram_quantile`` semantics over non-cumulative counts).
    ``None`` when the histogram is empty; ranks in the overflow bucket
    report the last finite bound."""
    if count <= 0:
        return None
    target = q * count
    cum = 0
    for idx, c in enumerate(latency):
        if c == 0:
            continue
        if cum + c >= target:
            if idx >= len(bounds):  # +Inf bucket: unresolvable beyond
                return float(bounds[-1])
            lo = bounds[idx - 1] if idx > 0 else 0.0
            hi = bounds[idx]
            return float(lo + (hi - lo) * (target - cum) / c)
        cum += c
    return float(bounds[-1])


def _read_rss_bytes() -> int:
    """Resident set size in bytes from ``/proc/self/statm`` (stdlib
    only: field 2 is resident pages, scaled by the system page size).
    Returns 0 where procfs is unavailable (macOS, exotic containers) —
    the gauge then simply stays flat instead of the sampler failing."""
    try:
        with open("/proc/self/statm", "rb") as fh:
            fields = fh.read().split()
        return int(fields[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, IndexError, ValueError):
        return 0


class ResourceSampler:
    """A background task sampling runtime health into registry gauges.

    Each tick (every ``interval`` seconds) samples:

    * **event-loop lag** — how late ``asyncio.sleep(interval)`` woke up
      versus its target, the canonical "is the loop starved" signal
      (``repro_runtime_loop_lag_seconds``);
    * **RSS** — resident memory from ``/proc/self/statm``
      (``repro_runtime_rss_bytes``);
    * **GC** — per-generation live object counts and cumulative
      collection counts (``repro_runtime_gc_objects{gen}`` /
      ``repro_runtime_gc_collections{gen}``);
    * **caller gauges** — ``sources`` maps gauge names to zero-argument
      callables sampled each tick; the serving layer wires in coalescer
      queue depth and executor occupancy this way, so the sampler never
      imports the service.

    Gauges live on ``registry`` (private when omitted) and therefore
    ride both ``/metrics`` and the ``/v1/debug/stream`` telemetry push;
    :meth:`values` returns the latest flat sample dict for the stream
    payload.  The sampler is an observer: it reads counters and procfs,
    never the computation, so serving results are bitwise identical with
    it running or not (gated with the window in ``bench_o2``).

    Start with :meth:`start` on a running loop; stop with
    :meth:`aclose` (both idempotent).  A ``sources`` callable that
    raises disables only itself (sampled as 0) — a debug gauge must
    never take the serving loop down.
    """

    def __init__(
        self,
        *,
        interval: float = 1.0,
        registry: MetricsRegistry | None = None,
        sources: dict | None = None,
    ):
        if interval <= 0:
            raise ValueError("interval must be > 0")
        self.interval = float(interval)
        self.metrics = registry if registry is not None else MetricsRegistry()
        self._sources = dict(sources or {})
        self._task: asyncio.Task | None = None
        self._lock = threading.Lock()
        self._values: dict[str, float] = {}
        self._loop_lag = self.metrics.gauge(
            "repro_runtime_loop_lag_seconds",
            "Event-loop scheduling lag of the sampler's last tick.",
        )
        self._rss = self.metrics.gauge(
            "repro_runtime_rss_bytes",
            "Resident set size sampled from /proc/self/statm.",
        )
        self._gc_objects = self.metrics.gauge(
            "repro_runtime_gc_objects",
            "Live objects tracked per GC generation.",
            labels=("gen",),
        )
        self._gc_collections = self.metrics.gauge(
            "repro_runtime_gc_collections",
            "Cumulative GC collections per generation.",
            labels=("gen",),
        )
        self._samples = self.metrics.counter(
            "repro_runtime_samples_total", "Resource-sampler ticks taken."
        )
        self._source_gauges = {
            name: self.metrics.gauge(
                name, "Caller-supplied runtime gauge (resource sampler)."
            )
            for name in self._sources
        }

    @property
    def running(self) -> bool:
        """True while the background sampling task is alive."""
        return self._task is not None and not self._task.done()

    def start(self) -> "ResourceSampler":
        """Start the background sampling task on the running event loop
        (idempotent) and take one immediate sample so gauges are live
        before the first interval elapses."""
        if not self.running:
            self.sample_once(0.0)
            self._task = asyncio.ensure_future(self._run())
        return self

    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            target = loop.time() + self.interval
            await asyncio.sleep(self.interval)
            self.sample_once(max(0.0, loop.time() - target))

    def sample_once(self, loop_lag: float = 0.0) -> dict:
        """Take one sample synchronously (the background task calls this
        each tick; tests call it directly) and return the flat value
        dict also available from :meth:`values`."""
        values: dict[str, float] = {
            "loop_lag_seconds": float(loop_lag),
            "rss_bytes": float(_read_rss_bytes()),
        }
        self._loop_lag.set(values["loop_lag_seconds"])
        self._rss.set(values["rss_bytes"])
        for gen, n in enumerate(gc.get_count()):
            self._gc_objects.labels(gen=gen).set(n)
            values[f"gc_objects_gen{gen}"] = float(n)
        for gen, st in enumerate(gc.get_stats()):
            collections = int(st.get("collections", 0))
            self._gc_collections.labels(gen=gen).set(collections)
            values[f"gc_collections_gen{gen}"] = float(collections)
        for name, fn in self._sources.items():
            try:
                sampled = float(fn())
            except Exception:
                sampled = 0.0
            self._source_gauges[name].set(sampled)
            values[name] = sampled
        self._samples.inc()
        with self._lock:
            self._values = values
        return values

    def values(self) -> dict:
        """The most recent flat sample (gauge name → value; empty before
        the first tick) — what the telemetry stream embeds per frame."""
        with self._lock:
            return dict(self._values)

    async def aclose(self) -> None:
        """Cancel and await the background task (idempotent)."""
        task, self._task = self._task, None
        if task is not None and not task.done():
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass

    def __repr__(self) -> str:
        state = "running" if self.running else "stopped"
        return f"ResourceSampler(interval={self.interval:g}s, {state})"
