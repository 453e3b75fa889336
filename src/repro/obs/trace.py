"""Span-based query tracing: where did this query spend its time?

A *span* is one named, timed region with optional metadata and child
spans — a query's spans form a timeline tree.  The serving pipeline
threads one tree per query:

``query`` (service submit) → ``cache_lookup`` → ``coalesced_batch``
(one per coalescer flush, shared by every query in the batch) →
``engine_solve`` (the batched driver) → per-kernel timings collected by
:mod:`repro.obs.kernels` — and, when the batch shards across a
:class:`~repro.parallel.ShardExecutor`, one ``shard_solve`` span per
worker process, shipped back over the executor's task-return channel and
re-attached under the dispatching span (see
:meth:`Span.to_dict` / :meth:`Span.from_dict`).

Propagation is :mod:`contextvars`-based, so the ambient span follows the
code across ``await`` boundaries and into ``asyncio.to_thread`` workers
(the coalescer's batch span is entered on the event loop but times the
engine call on a worker thread).  Spans for work shared by several
queries (a coalesced batch) are created *detached* — no ambient parent,
because "which query arrived first" is nondeterministic — and each
waiting query adopts the finished batch span into its own tree.

Everything here is gated on :func:`~repro.obs.config.observability_enabled`:
disabled (the default), :func:`trace` yields ``None`` and costs one
boolean check; results are bitwise identical either way.

Finished root spans land in a bounded in-process sink readable with
:func:`recent_traces` — enough for tests, benchmarks, and a future
``/traces`` debug endpoint without unbounded growth.
"""

from __future__ import annotations

import collections
import contextvars
import threading
import time
from contextlib import contextmanager

from .config import observability_enabled

__all__ = [
    "Span",
    "attach_or_record",
    "clear_traces",
    "current_span",
    "recent_traces",
    "start_span",
    "trace",
    "use_span",
]

#: The ambient span of the current logical context (``None`` outside any
#: trace).  contextvars make this follow tasks and to_thread workers.
_current: contextvars.ContextVar["Span | None"] = contextvars.ContextVar(
    "repro_obs_current_span", default=None
)

_SINK_MAXLEN = 256
_sink: collections.deque = collections.deque(maxlen=_SINK_MAXLEN)
_sink_lock = threading.Lock()


class Span:
    """One named, timed region of a query timeline.

    Carries a ``name``, a ``meta`` dict of freeform attributes (driver
    kind, batch size, worker pid, ...), a monotonic start time, a
    ``duration`` (seconds, set by :meth:`finish`), and child spans.
    Spans are created through :func:`trace` / :func:`start_span` rather
    than directly; :meth:`to_dict` / :meth:`from_dict` round-trip a
    finished subtree through pickle-friendly dicts so shard workers can
    ship their timelines back to the parent process."""

    __slots__ = ("name", "meta", "children", "duration", "_t0")

    def __init__(self, name: str, meta: dict | None = None):
        self.name = name
        self.meta = dict(meta) if meta else {}
        self.children: list[Span] = []
        self.duration: float | None = None
        self._t0 = time.perf_counter()

    def finish(self) -> "Span":
        """Stop the clock: record the elapsed wall time since creation
        as :attr:`duration` (idempotent — the first call wins) and return
        the span for chaining."""
        if self.duration is None:
            self.duration = time.perf_counter() - self._t0
        return self

    def add_child(self, child: "Span") -> "Span":
        """Append ``child`` to this span's children and return the
        child (used both by the ambient-context machinery and when
        re-attaching spans shipped from shard workers)."""
        self.children.append(child)
        return child

    def to_dict(self) -> dict:
        """This finished subtree as a nested plain dict (name, meta,
        duration, children) — pickle/JSON friendly, so worker processes
        can return their timelines over the executor's result channel."""
        return {
            "name": self.name,
            "meta": dict(self.meta),
            "duration": self.duration,
            "children": [c.to_dict() for c in self.children],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        """Rebuild a span subtree from :meth:`to_dict` output (the
        parent process does this with each shard worker's shipped
        timeline before attaching it to the live trace)."""
        span = cls(data["name"], data.get("meta"))
        span.duration = data.get("duration")
        span.children = [
            cls.from_dict(c) for c in data.get("children", ())
        ]
        return span

    def find(self, name: str) -> "Span | None":
        """Depth-first search this subtree for the first span named
        ``name`` (a test/debug convenience; returns ``None`` if absent)."""
        if self.name == name:
            return self
        for child in self.children:
            hit = child.find(name)
            if hit is not None:
                return hit
        return None

    def __repr__(self) -> str:
        dur = (
            f"{self.duration * 1e3:.3f}ms"
            if self.duration is not None
            else "running"
        )
        return (
            f"Span({self.name!r}, {dur}, children={len(self.children)})"
        )


def current_span() -> Span | None:
    """The ambient span of the calling context, or ``None`` when no
    trace is active (or observability is disabled)."""
    return _current.get()


def start_span(name: str, detached: bool = False, **meta) -> Span | None:
    """Create (and return) a new span without entering it as ambient
    context, or ``None`` when observability is disabled.  Attached
    (default) — the span is added as a child of the current ambient
    span, if any.  ``detached=True`` — no parent linkage: used for work
    shared by several queries (a coalesced batch), where any single
    ambient parent would be a nondeterministic choice; the finished span
    is later adopted by each interested trace via :func:`attach_or_record`.
    The caller must pair this with :func:`use_span` (to run code under
    it) and :meth:`Span.finish`."""
    if not observability_enabled():
        return None
    span = Span(name, meta)
    if not detached:
        parent = _current.get()
        if parent is not None:
            parent.add_child(span)
    return span


@contextmanager
def use_span(span: Span | None):
    """Make ``span`` the ambient span for the duration of the ``with``
    block (restoring the previous ambient span on exit).  Does *not*
    finish the span — pair with :func:`start_span`/:meth:`Span.finish`
    when the span's lifetime outlives one code block (the coalescer's
    batch span is entered once per engine call but finished after the
    fan-out).  A ``None`` span (observability disabled) is a no-op."""
    if span is None:
        yield None
        return
    token = _current.set(span)
    try:
        yield span
    finally:
        _current.reset(token)


@contextmanager
def trace(name: str, **meta):
    """Time a region as a span in the current query timeline.

    The common front door: creates a span (child of the ambient span if
    one exists, else a new root), makes it ambient for the block, and
    finishes it on exit; a root span is additionally delivered to the
    :func:`recent_traces` sink.  Yields the :class:`Span` — or ``None``
    when observability is disabled, in which case the whole context
    manager is one boolean check and the traced code runs unchanged."""
    if not observability_enabled():
        yield None
        return
    parent = _current.get()
    span = Span(name, meta)
    if parent is not None:
        parent.add_child(span)
    token = _current.set(span)
    try:
        yield span
    finally:
        _current.reset(token)
        span.finish()
        if parent is None:
            _record_root(span)


def attach_or_record(span: Span | None) -> None:
    """Deliver a finished detached span into the current timeline: added
    as a child of the ambient span when a trace is active, else recorded
    as a root in the :func:`recent_traces` sink.  How coalesced-batch
    and shard-worker spans join the query traces that waited on them.
    ``None`` (observability was disabled when the span would have been
    created) is a no-op."""
    if span is None:
        return
    parent = _current.get()
    if parent is not None:
        parent.add_child(span)
    else:
        _record_root(span)


def _record_root(span: Span) -> None:
    with _sink_lock:
        _sink.append(span)


def recent_traces(clear: bool = False) -> list[Span]:
    """The most recently finished root spans (bounded to the last 256;
    oldest first).  ``clear=True`` also empties the sink — tests and
    benchmarks use that to scope assertions to one operation."""
    with _sink_lock:
        out = list(_sink)
        if clear:
            _sink.clear()
    return out


def clear_traces() -> None:
    """Empty the finished-trace sink (:func:`recent_traces` starts
    fresh)."""
    with _sink_lock:
        _sink.clear()
