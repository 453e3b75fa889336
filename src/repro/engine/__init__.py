"""Batched multi-source walk engine.

The paper's headline quantity ``τ(β,ε) = max_v τ_v(β,ε)`` needs a local
mixing computation from *every* source — an ``O(n)``-fold redundancy when
each source rebuilds the walk operator and re-runs a full trajectory (the
paper flags exactly this cost when discussing the full pass).  The engine
amortizes the shared structure across sources, following the many-walks
batching idea of Das Sarma et al. and Molla–Pandurangan:

* :class:`~repro.engine.propagator.BlockPropagator` advances an ``n × k``
  block of distributions with **one sparse mat-mat per step** (``P ← A @ P``)
  instead of ``k`` independent matvec trajectories.
* The kernels of :mod:`repro.engine.oracle` sort all ``k``
  columns at once, bound ``min_{|S|=R} Σ|p − 1/R|`` for the whole
  ``(R, column)`` grid search-free in ``O(1)`` per pair
  (:func:`~repro.engine.oracle.deviation_lower_bounds_kernel`, the
  drivers' screen), and verify flagged pairs bitwise
  (:func:`~repro.engine.oracle.exact_best_sums_kernel`).
* :func:`~repro.engine.batch.batched_local_mixing_times` and
  :func:`~repro.engine.batch.batched_local_mixing_spectra` are the drivers
  the multi-source call sites (``graph_local_mixing_time``, sweeps, report,
  the dynamic :class:`~repro.dynamic.MixingTracker`) run on; their outputs
  are **identical** to the per-source loop for *every* knob combination —
  ``require_source=True`` included; nothing falls
  back to a per-source trajectory loop (hits are re-verified with the exact
  single-source arithmetic before a source stops).
  :func:`~repro.engine.batch.batched_mixing_times` (global Definition-1
  times behind ``graph_mixing_time``) and
  :func:`~repro.engine.batch.batched_local_mixing_profiles` (deviation
  profiles behind ``local_mixing_profile``) follow the same contract.

Both hot loops — block propagation (``A @ P``, scipy's CSR kernel
called by :func:`~repro.engine.propagator.csr_step_block`) and the
float64 sorted deviation scan of :mod:`repro.engine.oracle` — are plain
functions the drivers call directly; while observability is enabled each driver call
binds them once to :class:`~repro.obs.KernelProfiler` timing closures.

τ computations have one method, the iterative block trajectory.  Only the
global mixing time (:func:`~repro.engine.batch.batched_mixing_times`)
offers a spectral method; each call builds its own
:class:`~repro.walks.distribution.SpectralPropagator`, so no dense
eigenbasis outlives the call; the engine's one process-wide object is the
pool multi-tile τ calls run on (see :mod:`repro.engine.batch`).
"""

from repro.engine.propagator import BlockPropagator
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
    "batched_local_mixing_times",
    "batched_local_mixing_spectra",
    "batched_local_mixing_profiles",
    "batched_mixing_times",
    "TimesKey",
    "canonical_times_key",
]
