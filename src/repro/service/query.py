"""The serving layer's request model.

A :class:`MixingQuery` is one client's question — "what is ``τ_s(β, ε)`` of
source ``s`` on graph ``G`` under these engine knobs?" — carried as a frozen
value object.  It names the graph either directly (a
:class:`~repro.graphs.base.Graph`), dynamically (a
:class:`~repro.dynamic.DynamicGraph`, snapshotted at submission time), or
symbolically (a string resolved through the service's
:class:`~repro.service.registry.GraphRegistry`), and exposes the **full**
knob space of :func:`~repro.engine.batch.batched_local_mixing_times`.

Queries are grouped and cached by their *canonical* knob identity, not
their spelling: :meth:`MixingQuery.semantic_key` delegates to the engine's
shared canonicalization head
(:func:`~repro.engine.batch.canonical_times_key`), so ``beta=4`` with
``sizes="all"`` and the explicitly enumerated equivalent size list land on
the same cache line and in the same coalesced batch, while the
execution-only ``batch_size`` (proven result-neutral by the
loop-equivalence contract) is kept out of the cache key entirely: it
splits coalescer groups, since one engine call runs with one chunk size,
but never fragments the cache.

A query checks its knob *types* at construction, against the engine's
one knob table (:func:`~repro.walks.local_mixing._check_knob_types`): a
float source, a string flag or a bool batch size raises ``TypeError``
and a non-finite real ``ValueError``, so no coerced query reaches a
cache key.  Value ranges need the resolved graph and are checked at
submission, where a bad value is recorded as ``bad_request``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import NamedTuple

from repro.constants import DEFAULT_EPS
from repro.engine.batch import TimesKey, canonical_times_key
from repro.graphs.base import Graph
from repro.walks.local_mixing import _check_knob_types

__all__ = ["ExecutionKey", "MixingQuery"]


class ExecutionKey(NamedTuple):
    """How a batch must be *executed*: the semantic :class:`TimesKey` plus
    the result-neutral ``batch_size``.  The
    :class:`~repro.service.coalescer.QueryCoalescer` groups concurrent
    queries by ``(graph, ExecutionKey)`` — queries in one group are
    answered by a single engine call, which is only legal because every
    query in the group canonicalizes to the same semantics."""

    times: TimesKey
    batch_size: int | None


@dataclass(frozen=True)
class MixingQuery:
    """One local-mixing request: ``(graph, source)`` plus the engine's full
    knob space (same defaults as
    :func:`~repro.engine.batch.batched_local_mixing_times`).

    ``graph`` may be a :class:`~repro.graphs.base.Graph` (served as-is), a
    :class:`~repro.dynamic.DynamicGraph` (snapshotted when the query is
    admitted — each query is answered exactly for the topology current at
    submission), or a ``str`` naming a graph registered with the service's
    :class:`~repro.service.registry.GraphRegistry`.
    """

    graph: object
    source: int
    beta: float
    eps: float = DEFAULT_EPS
    sizes: object = "all"
    threshold_factor: float = 1.0
    grid_factor: float | None = None
    t_schedule: str = "all"
    t_max: int | None = None
    lazy: bool = False
    require_source: bool = False
    batch_size: int | None = None
    #: Relative deadline in seconds from submission (``None`` — wait
    #: forever).  A deadline never changes *what* is computed — it is
    #: excluded from both the cache key and the coalescing group — only
    #: whether this waiter is still listening when the answer lands: the
    #: coalescer flushes early so the group's earliest deadline can be
    #: met, and a waiter whose deadline passes first gets a typed
    #: :class:`~repro.service.errors.DeadlineExceededError` while the
    #: solve continues for its co-waiters and the cache.
    deadline: float | None = None

    def __post_init__(self):
        # Types only: ranges are checked at submission (module docstring).
        _check_knob_types(
            source=self.source, **self.engine_kwargs(),
            deadline=self.deadline,
        )

    def engine_kwargs(self) -> dict:
        """The knob dictionary a batched/parallel driver call takes
        (everything except the graph and the source list)."""
        out = {}
        for name in _ENGINE_KNOBS:
            value = getattr(self, name)
            if name == "sizes" and isinstance(value, tuple):
                value = list(value)
            out[name] = value
        return out

    def semantic_key(self, g: Graph) -> TimesKey:
        """Validate this query's knobs against the resolved graph ``g`` and
        collapse them to the engine's canonical :class:`TimesKey` (raises
        the engine's own fail-fast errors on a bad knob)."""
        return canonical_times_key(g, **self.engine_kwargs())


#: Field names forwarded verbatim to the batched engine driver.
_ENGINE_KNOBS = tuple(
    f.name for f in fields(MixingQuery)
    if f.name not in ("graph", "source", "deadline")
)
