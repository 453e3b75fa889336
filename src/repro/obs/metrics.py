"""Metrics primitives: counters, gauges, histograms and their registry.

A :class:`MetricsRegistry` is a named collection of metrics with two
export views:

* :meth:`MetricsRegistry.snapshot` — a plain nested ``dict`` (JSON-ready;
  the benchmark harness dumps one next to every results artifact);
* :meth:`MetricsRegistry.render` — the Prometheus text exposition format,
  which a future HTTP ``/metrics`` endpoint can serve verbatim
  (``# HELP`` / ``# TYPE`` headers, ``name{label="value"} value`` series,
  ``_bucket``/``_sum``/``_count`` histogram series).

Metric naming follows the Prometheus conventions: every metric is
prefixed ``repro_``, counters end in ``_total``, durations are
``_seconds``.  A metric created with ``labels=("kind",)`` is a
*family*: call :meth:`Counter.labels` to get (or create) the child for
one label combination — e.g.
``registry.histogram("repro_engine_solve_seconds", labels=("kind",))
.labels(kind="times").observe(dt)``.

Threading: every metric guards its state with its own lock, so components
may share one registry across threads (the serving layer records from the
event loop, engine worker threads and benchmark threads at once — the
thread hammer in ``tests/test_obs.py`` pins exact totals).  Composition:
:meth:`MetricsRegistry.include` lets one registry re-export another's
metrics in its views — the serving layer composes its cache/coalescer
registry with the executor's and the process-global engine registry so a
single ``render()`` covers every tier.

Per-component topology: each instrumented component (cache, coalescer,
executor, graph registry, tracker) defaults to a *private* registry so
two instances never collide; process-wide concerns (engine solve
latencies, kernel profiling) live in the shared
:func:`default_registry`.
"""

from __future__ import annotations

import bisect
import re
import threading

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "default_registry",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _validate_name(name: str) -> str:
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_labels(pairs) -> str:
    if not pairs:
        return ""
    inner = ",".join(
        f'{k}="{_escape_label_value(str(v))}"' for k, v in pairs
    )
    return "{" + inner + "}"


class _Metric:
    """Shared machinery of every metric type: identity (name / help /
    label schema), the per-metric lock, and the label-family children
    map.  A metric constructed with ``label_names`` and no label values
    is a *family*; :meth:`labels` returns its per-combination children,
    which are what actually hold values."""

    kind = "untyped"

    def __init__(self, name, help="", label_names=(), _label_values=None):
        if _label_values is None:
            _validate_name(name)
            for ln in label_names:
                if not isinstance(ln, str) or not _LABEL_RE.match(ln):
                    raise ValueError(f"invalid label name {ln!r}")
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)
        self.label_values = (
            tuple(_label_values) if _label_values is not None else None
        )
        self._lock = threading.Lock()
        self._children: dict[tuple, _Metric] = {}

    @property
    def is_family(self) -> bool:
        """True when this metric is a label family (values live on the
        children returned by :meth:`labels`, not on the family itself)."""
        return bool(self.label_names) and self.label_values is None

    def labels(self, **labels) -> "_Metric":
        """The child metric for one label-value combination (created on
        first use, returned from then on).  Only valid on a family; the
        keyword names must match the family's label schema exactly."""
        if not self.is_family:
            raise ValueError(
                f"metric {self.name!r} takes no labels"
                if not self.label_names
                else f"metric {self.name!r} child cannot be re-labelled"
            )
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"metric {self.name!r} expects labels "
                f"{self.label_names}, got {tuple(sorted(labels))}"
            )
        key = tuple(str(labels[ln]) for ln in self.label_names)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._make_child(key)
                self._children[key] = child
            return child

    def _make_child(self, label_values: tuple) -> "_Metric":
        raise NotImplementedError  # pragma: no cover - overridden

    def series(self) -> list:
        """The leaf series of this metric as ``(label_values, metric)``
        pairs — one ``(None, self)`` pair for an unlabelled metric, one
        pair per child (sorted by label values) for a family."""
        if self.is_family:
            with self._lock:
                return sorted(self._children.items())
        return [(self.label_values, self)]

    def reset(self) -> None:
        """Zero this metric; a family also drops all of its children
        (their label combinations are re-created on next use).  This is a
        bookkeeping hook for windowed measurement (e.g.
        :meth:`~repro.parallel.ShardExecutor.reset`), not part of the
        Prometheus exposition semantics."""
        with self._lock:
            self._children.clear()
            self._reset_values()

    def _reset_values(self) -> None:
        raise NotImplementedError  # pragma: no cover - overridden

    def _label_pairs(self):
        if self.label_values is None:
            return ()
        return tuple(zip(self.label_names, self.label_values))

    def __repr__(self) -> str:
        lbl = (
            dict(self._label_pairs())
            if self.label_values is not None
            else list(self.label_names)
        )
        return f"{type(self).__name__}({self.name!r}, labels={lbl})"


class Counter(_Metric):
    """A monotonically increasing count (``..._total`` by convention);
    ``inc()`` is its only mutation."""

    kind = "counter"

    def __init__(self, name, help="", label_names=(), _label_values=None):
        super().__init__(name, help, label_names, _label_values)
        self._value = 0

    def _make_child(self, label_values):
        return Counter(
            self.name, self.help, self.label_names, _label_values=label_values
        )

    def inc(self, value=1) -> None:
        """Add ``value`` (default 1) to the counter; negative increments
        are rejected (counters only go up)."""
        if value < 0:
            raise ValueError("counters cannot decrease")
        with self._lock:
            self._value += value

    @property
    def value(self):
        """The current count (``int`` while only integer increments were
        recorded, so ``stats()`` views stay integer-typed)."""
        return self._value

    def _reset_values(self) -> None:
        self._value = 0


class Gauge(_Metric):
    """A value that can go up and down (sizes, high-water marks)."""

    kind = "gauge"

    def __init__(self, name, help="", label_names=(), _label_values=None):
        super().__init__(name, help, label_names, _label_values)
        self._value = 0

    def _make_child(self, label_values):
        return Gauge(
            self.name, self.help, self.label_names, _label_values=label_values
        )

    def set(self, value) -> None:
        """Set the gauge to ``value``."""
        with self._lock:
            self._value = value

    def inc(self, value=1) -> None:
        """Add ``value`` (may be negative) to the gauge."""
        with self._lock:
            self._value += value

    def set_max(self, value) -> None:
        """Raise the gauge to ``value`` if it is larger (atomic
        high-water-mark update — the coalescer's ``largest_batch``)."""
        with self._lock:
            if value > self._value:
                self._value = value

    @property
    def value(self):
        """The current gauge value."""
        return self._value

    def _reset_values(self) -> None:
        self._value = 0


class Histogram(_Metric):
    """A fixed-bucket distribution of observations (Prometheus
    semantics: a bucket with bound ``le`` counts every observation
    ``<= le``; rendering emits cumulative ``_bucket`` series plus
    ``_sum`` and ``_count``).  Buckets are fixed at construction —
    a strictly increasing tuple of upper bounds, ``+Inf`` implicit."""

    kind = "histogram"

    #: Default latency buckets (seconds): spans four orders of magnitude
    #: around typical engine-call costs.
    DEFAULT_BUCKETS = (
        0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0,
    )

    def __init__(
        self,
        name,
        help="",
        buckets=None,
        label_names=(),
        _label_values=None,
    ):
        super().__init__(name, help, label_names, _label_values)
        buckets = tuple(
            float(b) for b in (
                self.DEFAULT_BUCKETS if buckets is None else buckets
            )
        )
        if not buckets or any(
            b2 <= b1 for b1, b2 in zip(buckets, buckets[1:])
        ):
            raise ValueError(
                "histogram buckets must be a non-empty strictly "
                f"increasing sequence, got {buckets!r}"
            )
        self.buckets = buckets
        self._counts = [0] * (len(buckets) + 1)  # trailing +Inf bucket
        self._sum = 0.0
        self._count = 0
        self._exemplars: dict[int, str] = {}

    def _make_child(self, label_values):
        return Histogram(
            self.name,
            self.help,
            self.buckets,
            self.label_names,
            _label_values=label_values,
        )

    def observe(self, value, *, exemplar=None) -> None:
        """Record one observation (an exact bucket-boundary value counts
        into the bucket whose upper bound it equals — ``le`` is
        inclusive).  ``exemplar`` optionally tags the bucket the value
        lands in with a trace id: one exemplar per bucket, last
        observation wins — so a histogram spike links directly to a
        flight-recorder entry (see :meth:`exemplars`).  Exemplars live
        only in the JSON :meth:`MetricsRegistry.snapshot` view; the
        Prometheus text rendering is unchanged."""
        value = float(value)
        idx = bisect.bisect_left(self.buckets, value)
        with self._lock:
            self._counts[idx] += 1
            self._sum += value
            self._count += 1
            if exemplar is not None:
                self._exemplars[idx] = str(exemplar)

    def exemplars(self) -> dict[str, str]:
        """The per-bucket exemplar trace ids, keyed by the bucket's upper
        bound (``"+Inf"`` for the overflow bucket); only buckets that
        ever received an exemplar appear.  Last observation per bucket
        wins."""
        bounds = [str(b) for b in self.buckets] + ["+Inf"]
        with self._lock:
            return {bounds[idx]: tid for idx, tid in self._exemplars.items()}

    @property
    def count(self) -> int:
        """Total number of observations."""
        return self._count

    @property
    def sum(self) -> float:
        """Sum of all observed values."""
        return self._sum

    def cumulative_counts(self) -> list[int]:
        """Cumulative per-bucket counts (one entry per bound plus the
        trailing ``+Inf`` bucket) — the Prometheus ``_bucket`` series."""
        with self._lock:
            out, run = [], 0
            for c in self._counts:
                run += c
                out.append(run)
            return out

    def _reset_values(self) -> None:
        self._counts = [0] * (len(self.buckets) + 1)
        self._sum = 0.0
        self._count = 0
        self._exemplars = {}


class MetricsRegistry:
    """A named collection of metrics with JSON and Prometheus views.

    :meth:`counter` / :meth:`gauge` / :meth:`histogram` are idempotent
    get-or-create front doors (re-requesting a name returns the existing
    metric; a kind or label-schema mismatch raises).  See the module
    docstring for the naming scheme, the per-component topology, and
    :meth:`include` composition."""

    def __init__(self):
        self._metrics: dict[str, _Metric] = {}
        self._includes: list["MetricsRegistry"] = []
        self._lock = threading.Lock()

    def _get_or_create(self, cls, name, help, labels, **kwargs):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if type(existing) is not cls or existing.label_names != tuple(
                    labels
                ):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind} with labels "
                        f"{existing.label_names}"
                    )
                return existing
            metric = cls(name, help, label_names=labels, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name, help="", labels=()) -> Counter:
        """Get or create the :class:`Counter` (family, with ``labels``)
        named ``name``."""
        return self._get_or_create(Counter, name, help, labels)

    def gauge(self, name, help="", labels=()) -> Gauge:
        """Get or create the :class:`Gauge` (family, with ``labels``)
        named ``name``."""
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(self, name, help="", buckets=None, labels=()) -> Histogram:
        """Get or create the :class:`Histogram` named ``name`` with the
        given fixed ``buckets`` (:attr:`Histogram.DEFAULT_BUCKETS` when
        omitted)."""
        return self._get_or_create(
            Histogram, name, help, labels, buckets=buckets
        )

    def include(self, other: "MetricsRegistry") -> None:
        """Re-export ``other``'s metrics through this registry's
        :meth:`snapshot` and :meth:`render` views (idempotent; a registry
        never includes itself).  This is how the serving layer composes
        per-component registries into one ``/metrics`` payload."""
        if not isinstance(other, MetricsRegistry):
            raise TypeError("include() takes a MetricsRegistry")
        if other is self:
            return
        with self._lock:
            if other not in self._includes:
                self._includes.append(other)

    def _collect(self, seen=None) -> list[_Metric]:
        """Every metric visible through this registry (own metrics first,
        then included registries', transitively, each registry once)."""
        if seen is None:
            seen = set()
        if id(self) in seen:
            return []
        seen.add(id(self))
        with self._lock:
            metrics = list(self._metrics.values())
            includes = list(self._includes)
        for inc in includes:
            metrics.extend(inc._collect(seen))
        return metrics

    def snapshot(self) -> dict:
        """A JSON-ready nested dict of every visible metric: per metric
        its kind, help and series (label values plus the value — for
        histograms the cumulative bucket counts, sum and count)."""
        out: dict = {}
        for metric in self._collect():
            entry = out.setdefault(
                metric.name,
                {"kind": metric.kind, "help": metric.help, "series": []},
            )
            for label_values, leaf in metric.series():
                labels = (
                    dict(zip(metric.label_names, label_values))
                    if label_values is not None
                    else {}
                )
                if metric.kind == "histogram":
                    series = {
                        "labels": labels,
                        "buckets": {
                            str(le): c
                            for le, c in zip(
                                list(leaf.buckets) + ["+Inf"],
                                leaf.cumulative_counts(),
                            )
                        },
                        "sum": leaf.sum,
                        "count": leaf.count,
                    }
                    exemplars = leaf.exemplars()
                    if exemplars:
                        series["exemplars"] = exemplars
                    entry["series"].append(series)
                else:
                    entry["series"].append(
                        {"labels": labels, "value": leaf.value}
                    )
        return out

    def render(self) -> str:
        """The Prometheus text exposition of every visible metric —
        servable verbatim as a ``/metrics`` response body (one
        ``# HELP`` / ``# TYPE`` header per metric, then its series;
        histograms emit cumulative ``_bucket{le=...}`` series plus
        ``_sum`` and ``_count``)."""
        lines: list[str] = []
        rendered: set[str] = set()
        for metric in self._collect():
            if metric.name in rendered:
                header = False
            else:
                rendered.add(metric.name)
                header = True
            if header:
                if metric.help:
                    lines.append(f"# HELP {metric.name} {metric.help}")
                lines.append(f"# TYPE {metric.name} {metric.kind}")
            for label_values, leaf in metric.series():
                pairs = (
                    tuple(zip(metric.label_names, label_values))
                    if label_values is not None
                    else ()
                )
                if metric.kind == "histogram":
                    bounds = list(leaf.buckets) + ["+Inf"]
                    for le, c in zip(bounds, leaf.cumulative_counts()):
                        lines.append(
                            f"{metric.name}_bucket"
                            f"{_format_labels(pairs + (('le', le),))} {c}"
                        )
                    lines.append(
                        f"{metric.name}_sum{_format_labels(pairs)} "
                        f"{leaf.sum}"
                    )
                    lines.append(
                        f"{metric.name}_count{_format_labels(pairs)} "
                        f"{leaf.count}"
                    )
                else:
                    lines.append(
                        f"{metric.name}{_format_labels(pairs)} {leaf.value}"
                    )
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry(metrics={len(self._metrics)}, "
            f"includes={len(self._includes)})"
        )


_default_registry: MetricsRegistry | None = None
_default_lock = threading.Lock()


def default_registry() -> MetricsRegistry:
    """The process-global registry for process-wide instrumentation —
    engine solve latencies, kernel profiling, benchmark sections.
    Components with per-instance counters (cache, coalescer, executor)
    keep private registries and are composed into one view with
    :meth:`MetricsRegistry.include` instead."""
    global _default_registry
    with _default_lock:
        if _default_registry is None:
            _default_registry = MetricsRegistry()
        return _default_registry
