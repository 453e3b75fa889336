"""Batched multi-source walk engine.

The paper's headline quantity ``τ(β,ε) = max_v τ_v(β,ε)`` needs a local
mixing computation from *every* source — an ``O(n)``-fold redundancy when
each source rebuilds the walk operator and re-runs a full trajectory (the
paper flags exactly this cost when discussing the full pass).  The engine
amortizes the shared structure across sources, following the many-walks
batching idea of Das Sarma et al. and Molla–Pandurangan:

* :class:`~repro.engine.propagator.BlockPropagator` advances an ``n × k``
  block of distributions with **one sparse mat-mat per step** (``P ← A @ P``)
  instead of ``k`` independent matvec trajectories, plus a shared
  :class:`~repro.walks.distribution.SpectralPropagator` cache keyed by
  ``(graph, lazy)`` for the global mixing time's random access in ``t``.
* :class:`~repro.engine.oracle.BatchedUniformDeviationOracle` sorts all ``k``
  columns at once and answers ``min_{|S|=R} Σ|p − 1/R|`` for every source per
  ``(t, R)`` grid point in ``O(k log n)`` via a unimodal bracket search —
  or, fused, bounds the whole ``(R, column)`` grid search-free in ``O(1)``
  per pair (``deviation_lower_bounds``, the drivers' prefilter).
  :class:`~repro.engine.oracle.BatchedDegreeDeviationOracle` is the
  degree-proportional-target companion: a column-vectorized, bitwise-equal
  transcript of the per-source fixed-point heuristic for irregular graphs.
* :func:`~repro.engine.batch.batched_local_mixing_times` and
  :func:`~repro.engine.batch.batched_local_mixing_spectra` are the drivers
  the multi-source call sites (``graph_local_mixing_time``, sweeps, report,
  the dynamic :class:`~repro.dynamic.MixingTracker`) run on; their outputs
  are **identical** to the per-source loop for *every* knob combination —
  ``target="degree"`` and ``require_source=True`` included; nothing falls
  back to a per-source trajectory loop (hits are re-verified with the exact
  single-source arithmetic before a source stops).
  :func:`~repro.engine.batch.batched_mixing_times` (global Definition-1
  times behind ``graph_mixing_time``) and
  :func:`~repro.engine.batch.batched_local_mixing_profiles` (deviation
  profiles behind ``local_mixing_profile``) follow the same contract.

Both hot loops — block propagation (``A @ P``) and the float64 sorted
deviation scan of :mod:`repro.engine.oracle` — are plain functions the
drivers call directly; while observability is enabled each driver call
binds them once to :class:`~repro.obs.KernelProfiler` timing closures.

τ computations have one method, the iterative block trajectory, and never
touch the spectral cache; only global-mixing-time calls
(:func:`~repro.engine.batch.batched_mixing_times` and the batch engine of
:func:`~repro.walks.mixing.graph_mixing_time`) fill it.  Each cached
entry pins a dense ``n × n`` eigenbasis, so the cache is controllable:
:func:`~repro.engine.propagator.clear_propagator_cache`,
:func:`~repro.engine.propagator.set_propagator_cache_maxsize` and
:func:`~repro.engine.propagator.propagator_cache_info` bound and inspect it.
"""

from repro.engine.propagator import (
    BlockPropagator,
    clear_propagator_cache,
    propagator_cache_info,
    set_propagator_cache_maxsize,
    shared_spectral_propagator,
)
from repro.engine.oracle import (
    BatchedDegreeDeviationOracle,
    BatchedUniformDeviationOracle,
)
from repro.engine.batch import (
    TimesKey,
    batched_local_mixing_profiles,
    batched_local_mixing_times,
    batched_local_mixing_spectra,
    batched_mixing_times,
    canonical_times_key,
)

__all__ = [
    "BlockPropagator",
    "shared_spectral_propagator",
    "clear_propagator_cache",
    "set_propagator_cache_maxsize",
    "propagator_cache_info",
    "BatchedDegreeDeviationOracle",
    "BatchedUniformDeviationOracle",
    "batched_local_mixing_times",
    "batched_local_mixing_spectra",
    "batched_local_mixing_profiles",
    "batched_mixing_times",
    "TimesKey",
    "canonical_times_key",
]
