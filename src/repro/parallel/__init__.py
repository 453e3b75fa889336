"""Sharded parallel execution: multi-core, shared-memory solves with the
loop-equivalence guarantee.

The paper's headline is *distributed* computation of the local mixing
time; this subsystem is the shared-memory realization of that idea on one
machine.  It multiplies the batched engine (:mod:`repro.engine`) across
cores without giving up a single bit of exactness:

* :class:`~repro.parallel.shared.SharedCSR` — a graph's CSR arrays placed
  in one :mod:`multiprocessing.shared_memory` segment once and mapped
  zero-copy by every worker through a tiny picklable
  :class:`~repro.parallel.shared.SharedHandle` (no per-task pickling of
  the topology, no re-validation).  It is the one segment format.
* :class:`~repro.parallel.executor.ShardExecutor` — a persistent process
  pool with per-worker warm state (attached graphs and their caches kept
  hot across tasks), deterministic contiguous source sharding and ordered
  merges.
* Front door :func:`~repro.parallel.api.parallel_local_mixing_times` —
  the drop-in counterpart of the batched τ driver carrying the full knob
  space (``require_source``, schedules, grids, ``batch_size`` — all
  validated in the parent), whose output is
  **identical** to the serial engine (and therefore to the per-source
  reference loop) for every knob combination and any worker count.  Each
  process holds ``n`` times one column tile's width of dense block.
* :func:`~repro.parallel.api.shard_map` — the generic per-item fan-out the
  Monte-Carlo estimator sweeps and family sweeps ride on.

The dynamic :class:`~repro.dynamic.MixingTracker` accepts an executor (or
``n_workers``) and re-solves its dirty-source set in parallel shards after
each event, keeping its provable equivalence to from-scratch
recomputation.

When sharding loses to batching: worker spawn plus one shared-memory
publication is milliseconds (``fork``) to ~a second (``spawn``), so for
small graphs or few sources the serial batched call wins — reuse one
:class:`ShardExecutor` across calls to amortize, or stay serial below a
few hundred sources.
"""

from repro.parallel.shared import SharedCSR, SharedHandle
from repro.parallel.executor import (
    ShardExecutor,
    default_start_method,
    shard_bounds,
)
from repro.parallel.api import parallel_local_mixing_times, shard_map

__all__ = [
    "SharedCSR",
    "SharedHandle",
    "ShardExecutor",
    "default_start_method",
    "shard_bounds",
    "parallel_local_mixing_times",
    "shard_map",
]
