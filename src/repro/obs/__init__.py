"""Unified observability: metrics registry, query tracing, kernel profiling.

One vocabulary for everything the system measures about itself, shared
by every tier (engine, parallel executor, serving layer, dynamic
tracker, benchmarks):

* :mod:`repro.obs.metrics` — thread-safe :class:`MetricsRegistry` of
  counters / gauges / fixed-bucket histograms with labeled children, a
  ``snapshot()`` JSON view, and a Prometheus-text ``render()`` the
  future HTTP ``/metrics`` endpoint serves verbatim.  Component counter
  dicts (:class:`~repro.service.ResultCache`,
  :class:`~repro.service.QueryCoalescer`,
  :class:`~repro.parallel.ShardExecutor`, the dynamic tracker) are views
  over registry counters; their documented ``stats()`` shapes are
  unchanged.
* :mod:`repro.obs.trace` — span-based per-query timelines threaded
  ``MixingService.submit`` → coalescer flush → cache lookup → batched
  engine → kernel calls, with shard workers' timelines shipped back over
  the executor's task-return channel into the parent trace.
* :mod:`repro.obs.kernels` — per-kernel call counts and wall seconds of
  the engine's hot loops, plus the screening re-verification volume.
* :mod:`repro.obs.flight` — the always-on bounded flight recorder of
  completed query records (plus the slow-query log), fed by
  ``MixingService.submit`` and exported over the wire debug endpoints.
* :mod:`repro.obs.export` — the stable JSON schema flight records and
  span trees are served in (``/v1/debug/flight`` / ``/v1/debug/slow`` /
  ``/v1/debug/trace/<id>``).
* :mod:`repro.obs.reporting` — the shared benchmark reporter and the
  machine fingerprint its artifacts carry.
* :mod:`repro.obs.live` — live telemetry: the bucketed
  :class:`RollingWindow` of per-(graph, outcome) rates and
  streaming latency quantiles fed from the service completion path,
  plus the :class:`ResourceSampler` background task (event-loop lag,
  RSS, GC, queue depth, executor occupancy).
* :mod:`repro.obs.slo` — declarative :class:`SLO` objectives evaluated
  against the rolling window into typed ok/warn/breach verdicts with
  error-budget burn rate and a bounded transition-alert ring, surfaced
  on ``/healthz`` and the ``/v1/debug/stream`` telemetry push.

The cost contract (see :mod:`repro.obs.config`): plain counters always
record; timing instrumentation records only while observability is
enabled (:func:`set_observability` / :func:`observability` /
``REPRO_OBS=1``) and costs one boolean check when disabled.  The switch
never changes results — every result-producing path is bitwise identical
with observability enabled, disabled, or absent
(``tests/test_obs.py``; ``benchmarks/bench_o1_observability.py`` gates
the enabled overhead at < 3%).
"""

from .config import (
    OBS_ENV,
    observability,
    observability_enabled,
    set_observability,
)
from .export import (
    flight_payload,
    record_to_dict,
    slow_payload,
    telemetry_payload,
    trace_payload,
)
from .flight import (
    FlightRecorder,
    QueryRecord,
    graph_key,
    kernels_from_span,
    stages_from_span,
)
from .kernels import (
    KERNEL_LABEL,
    KernelProfiler,
    diff_kernel_snapshots,
    kernel_profiler,
)
from .live import (
    ResourceSampler,
    RollingWindow,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_registry,
)
from .slo import (
    SLO,
    SLOEngine,
    SLOVerdict,
)
from .reporting import BenchReporter, machine_fingerprint
from .trace import (
    Span,
    attach_or_record,
    clear_traces,
    current_span,
    recent_traces,
    start_span,
    trace,
    use_span,
)

__all__ = [
    "BenchReporter",
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "KERNEL_LABEL",
    "KernelProfiler",
    "MetricsRegistry",
    "OBS_ENV",
    "QueryRecord",
    "ResourceSampler",
    "RollingWindow",
    "SLO",
    "SLOEngine",
    "SLOVerdict",
    "Span",
    "attach_or_record",
    "clear_traces",
    "current_span",
    "default_registry",
    "diff_kernel_snapshots",
    "flight_payload",
    "graph_key",
    "kernel_profiler",
    "kernels_from_span",
    "machine_fingerprint",
    "observability",
    "observability_enabled",
    "recent_traces",
    "record_to_dict",
    "set_observability",
    "slow_payload",
    "stages_from_span",
    "start_span",
    "telemetry_payload",
    "trace",
    "trace_payload",
    "use_span",
]
