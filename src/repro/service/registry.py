"""Named-graph registry with dynamic-snapshot change tracking.

A :class:`GraphRegistry` lets clients address graphs symbolically — a
query carries ``graph="social"`` instead of the object — and is the
serving layer's integration point with :mod:`repro.dynamic`:

* a registered static :class:`~repro.graphs.base.Graph` resolves to
  itself, forever;
* a registered :class:`~repro.dynamic.DynamicGraph` resolves to its
  *current* ``snapshot()`` — and whenever that snapshot differs from the
  one served last, the registry computes the locality radius of the edit
  (:func:`~repro.dynamic.tracker.edit_distance_bounds`) and notifies its
  change listeners with ``(prev_snapshot, new_snapshot, dmin)``.  The
  :class:`~repro.service.MixingService` wires in
  :meth:`~repro.service.cache.ResultCache.carry_forward`, which carries
  provably-unaffected cache entries forward, so a mutation
  invalidates only the sources it can actually reach — the dirty set —
  exactly mirroring the incremental tracker's pruning argument.

Unregistered objects pass through: a query may always carry a ``Graph``
or ``DynamicGraph`` directly, and direct ``DynamicGraph`` objects get the
same change tracking (keyed by object identity) as registered ones.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable

from repro.dynamic.graph import DynamicGraph
from repro.dynamic.tracker import edit_distance_bounds
from repro.graphs.base import Graph
from repro.obs import MetricsRegistry

__all__ = ["GraphRegistry"]


class GraphRegistry:
    """Resolve query graph references (names, graphs, dynamic graphs) to
    concrete immutable snapshots, reporting dynamic-graph changes.

    Change listeners are callables
    ``listener(prev_g, new_g, dmin)`` invoked synchronously
    from :meth:`resolve` when a tracked dynamic graph's snapshot moved to
    a different same-``n`` structure (``dmin`` is
    :func:`~repro.dynamic.tracker.edit_distance_bounds` of the pair).  A
    node-count change carries no per-node correspondence, so listeners are
    not called for it — dependent caches simply miss on the new structure.

    Parameters
    ----------
    max_tracked:
        How many dynamic graphs to keep change-tracking state for (each
        entry pins the graph and its last-served snapshot).  Queries that
        carry transient ``DynamicGraph`` objects directly would otherwise
        grow the map without bound; evicting an entry is always sound —
        the next resolve simply starts fresh, forgoing one carry-forward
        opportunity, never correctness.
    registry:
        Optional shared :class:`~repro.obs.metrics.MetricsRegistry` for
        the ``repro_registry_*`` counters (private when omitted); exposed
        as :attr:`metrics`.  The :meth:`stats` dict shape is unchanged.
    """

    def __init__(
        self,
        *,
        max_tracked: int = 64,
        registry: MetricsRegistry | None = None,
    ):
        if max_tracked < 1:
            raise ValueError("max_tracked must be >= 1")
        self._named: dict[str, Graph | DynamicGraph] = {}
        #: Last snapshot served per tracked DynamicGraph, LRU-bounded (by
        #: object id; the value also pins the object so the id cannot be
        #: recycled while the entry lives).
        self._tracked: "OrderedDict[int, tuple[DynamicGraph, Graph]]" = (
            OrderedDict()
        )
        self._max_tracked = int(max_tracked)
        self._listeners: list[Callable] = []
        self.metrics = registry if registry is not None else MetricsRegistry()
        self._resolves = self.metrics.counter(
            "repro_registry_resolves_total", "Graph-reference resolutions."
        )
        self._changes = self.metrics.counter(
            "repro_registry_changes_total",
            "Same-n dynamic-snapshot changes reported to listeners.",
        )
        self._n_changes = self.metrics.counter(
            "repro_registry_n_changes_total",
            "Dynamic-snapshot changes that altered the node count.",
        )

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #

    def register(self, name: str, graph: Graph | DynamicGraph) -> None:
        """Register ``graph`` under ``name`` (re-registering a name is an
        error unless it is the same object)."""
        if not isinstance(name, str) or not name:
            raise ValueError("graph name must be a non-empty string")
        if not isinstance(graph, (Graph, DynamicGraph)):
            raise TypeError("graph must be a Graph or DynamicGraph")
        existing = self._named.get(name)
        if existing is not None and existing is not graph:
            raise ValueError(f"graph name {name!r} already registered")
        self._named[name] = graph

    def unregister(self, name: str) -> None:
        """Remove a name (its change-tracking state is dropped too)."""
        graph = self._named.pop(name, None)
        if isinstance(graph, DynamicGraph) and graph not in [
            g for g in self._named.values() if isinstance(g, DynamicGraph)
        ]:
            self._tracked.pop(id(graph), None)

    def names(self) -> list[str]:
        """Registered names, sorted."""
        return sorted(self._named)

    def add_listener(self, listener: Callable) -> None:
        """Subscribe to dynamic-snapshot changes (see the class docstring
        for the callback signature)."""
        self._listeners.append(listener)

    # ------------------------------------------------------------------ #
    # Resolution
    # ------------------------------------------------------------------ #

    def resolve(self, ref: "str | Graph | DynamicGraph") -> Graph:
        """The immutable :class:`Graph` a query against ``ref`` must be
        answered on *right now*.

        Strings look up registered objects; a :class:`Graph` is returned
        as-is; a :class:`DynamicGraph` (registered or direct) is
        snapshotted, and a changed snapshot fires the change listeners
        before the new snapshot is returned.
        """
        self._resolves.inc()
        if isinstance(ref, str):
            obj = self._named.get(ref)
            if obj is None:
                raise KeyError(f"no graph registered under {ref!r}")
            ref = obj
        if isinstance(ref, Graph):
            return ref
        if not isinstance(ref, DynamicGraph):
            raise TypeError(
                f"cannot resolve {type(ref).__name__} to a graph"
            )
        new = ref.snapshot()
        tracked = self._tracked.get(id(ref))
        prev = tracked[1] if tracked is not None else None
        if prev is not None and prev is not new:
            if prev.n == new.n:
                self._changes.inc()
                dmin = edit_distance_bounds(prev, new)
                for listener in self._listeners:
                    listener(prev, new, dmin)
            else:
                self._n_changes.inc()
        self._tracked[id(ref)] = (ref, new)
        self._tracked.move_to_end(id(ref))
        while len(self._tracked) > self._max_tracked:
            self._tracked.popitem(last=False)
        return new

    def stats(self) -> dict:
        """Counters: ``resolves``, ``changes`` (same-``n`` snapshot moves
        reported to listeners), ``n_changes`` (node-count moves), plus the
        current ``registered`` and ``tracked`` graph counts.  The dict
        shape is unchanged by the metrics-registry migration."""
        return {
            "changes": self._changes.value,
            "n_changes": self._n_changes.value,
            "resolves": self._resolves.value,
            "registered": len(self._named),
            "tracked": len(self._tracked),
        }
