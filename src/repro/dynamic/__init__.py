"""Dynamic networks: evolving graphs with incremental local-mixing tracking.

The subsystem layers three pieces on top of the immutable CSR
:class:`~repro.graphs.base.Graph` and the batched walk engine
(:mod:`repro.engine`):

* :class:`~repro.dynamic.graph.DynamicGraph` — a mutable edge-set overlay
  with ``add_edge`` / ``remove_edge`` / ``rewire`` / node join–leave and a
  structurally memoized ``snapshot()`` (unchanged or revisited topologies
  return the same :class:`Graph` object, so downstream per-graph caches
  keep hitting).
* :mod:`~repro.dynamic.schedules` — reproducible update-schedule
  generators: edge-Markovian churn, random rewiring, barbell bridge
  insertion/removal, node join/leave.
* :class:`~repro.dynamic.tracker.MixingTracker` /
  :func:`~repro.dynamic.tracker.track_local_mixing` — maintain the full
  per-source τ-spectrum across updates, provably identical to a
  from-scratch :func:`~repro.engine.batch.batched_local_mixing_times` on
  every snapshot, via structural memoization, locality pruning (prior τ
  values bound each source's replay radius) and the engine's fused
  search-free re-scan prefilter.  The tracker covers the engine's full
  knob space, ``require_source=True`` included.
"""

from repro.dynamic.graph import DynamicGraph, GraphUpdate
from repro.dynamic.schedules import (
    barbell_bridge_schedule,
    edge_markovian_churn,
    node_churn,
    random_rewiring,
)
from repro.dynamic.tracker import (
    MixingTracker,
    TrackedSnapshot,
    TrackingTrace,
    edit_distance_bounds,
    track_local_mixing,
)

__all__ = [
    "DynamicGraph",
    "GraphUpdate",
    "edge_markovian_churn",
    "random_rewiring",
    "barbell_bridge_schedule",
    "node_churn",
    "MixingTracker",
    "TrackedSnapshot",
    "TrackingTrace",
    "edit_distance_bounds",
    "track_local_mixing",
]
