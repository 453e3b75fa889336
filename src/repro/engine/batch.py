"""Multi-source local-mixing drivers on the batched engine.

:func:`batched_local_mixing_times` computes ``τ_s(β,ε)`` for many sources at
once and returns, per source, the **same**
:class:`~repro.walks.local_mixing.LocalMixingResult` the per-source loop
would produce — same ``time``, ``set_size``, bitwise-equal ``deviation`` and
same bookkeeping counters.  Exactness is preserved by a two-phase check per
``(t, R)`` grid point:

1. a fast batched prefilter bounds every live column's best deviation from
   below — one fused, search-free
   :meth:`~repro.engine.oracle.BatchedUniformDeviationOracle.deviation_lower_bounds`
   call per step covering the entire ``(R, column)`` grid in ``O(1)`` per
   pair;
2. only ``(R, column)`` pairs whose bound falls below
   ``threshold · (1 + 1e-9)`` are re-examined with the exact single-source
   arithmetic (:class:`~repro.walks.local_mixing.UniformDeviationOracle` /
   ``_degree_target_best``), whose verdict — and reported deviation — is
   what the per-source loop computes.  A lower bound can over-flag but
   never under-flag — its deviation from the exact minimum is summation
   roundoff, orders of magnitude below the ``1e-9`` relative slack — so a
   source can never stop earlier or later than its per-source run.

The drivers cover the **full** knob space of the per-source functions:
``require_source=True`` is handled in-block (the unconstrained lower bound
is also valid for the source-pinned minimum, and flagged pairs are decided
by the exact constrained oracle on the column), and ``target="degree"``
runs on the bitwise-equal vectorized transcript of the per-source
fixed-point heuristic
(:class:`~repro.engine.oracle.BatchedDegreeDeviationOracle`).  Nothing
falls back to a per-source trajectory loop.

Every driver runs the float64 kernels of :mod:`repro.engine.oracle` and
the ``A @ P`` block step directly.  While observability is enabled, each
driver call binds them once to :class:`~repro.obs.KernelProfiler` timing
closures (:func:`_kernels`), so the disabled cost is one boolean check per
call.
"""

from __future__ import annotations

import math
from operator import matmul
from typing import NamedTuple, Sequence

import numpy as np

from repro.constants import DEFAULT_EPS
from repro.errors import ConvergenceError
from repro.graphs.base import Graph
from repro.engine.oracle import (
    BatchedDegreeDeviationOracle,
    BatchedUniformDeviationOracle,
    deviation_lower_bounds_kernel,
    sorted_scan_arrays,
    split_points_kernel,
)
from repro.engine.propagator import BlockPropagator, block_distribution_at
from repro.obs import (
    default_registry,
    kernel_profiler,
    observability_enabled,
    trace,
)

__all__ = [
    "batched_local_mixing_times",
    "batched_local_mixing_spectra",
    "batched_local_mixing_profiles",
    "batched_mixing_times",
    "TimesKey",
    "canonical_times_key",
]

#: Relative slack above the stopping threshold under which a fast bound is
#: re-verified with the exact oracle (covers floating-point tie noise).
_VERIFY_SLACK = 1e-9


class _Kernels(NamedTuple):
    """The hot kernels one driver call runs: the plain float64
    functions, or :class:`~repro.obs.KernelProfiler` timing closures
    around them while observability is enabled."""

    step_block: object
    sorted_scan: object
    split_points: object
    deviation_lower_bounds: object
    #: ``(pairs, flagged)`` screening-volume recorder, ``None`` when
    #: observability is disabled.
    screen: object


_PLAIN_KERNELS = _Kernels(
    matmul,
    sorted_scan_arrays,
    split_points_kernel,
    deviation_lower_bounds_kernel,
    None,
)


def _kernels() -> _Kernels:
    """The kernels for one driver call, bound once to the profiler when
    observability is enabled (results are bitwise identical either way:
    the timing closures only read the clock around the call)."""
    if not observability_enabled():
        return _PLAIN_KERNELS
    prof = kernel_profiler()
    return _Kernels(
        prof.timed("step_block", matmul),
        prof.timed("sorted_scan", sorted_scan_arrays),
        prof.timed("split_points", split_points_kernel),
        prof.timed("deviation_lower_bounds", deviation_lower_bounds_kernel),
        prof.record_screen,
    )


def _observe_engine_span(span, kind: str) -> None:
    """Feed a finished ``engine_solve`` span's duration into the
    per-driver-call latency histogram
    (``repro_engine_solve_seconds{kind}``; no-op when observability was
    disabled and the span is ``None``)."""
    if span is not None and span.duration is not None:
        default_registry().histogram(
            "repro_engine_solve_seconds",
            "Wall seconds per batched engine driver call.",
            labels=("kind",),
        ).labels(kind=kind).observe(span.duration)


def _exact_best_sum(z: np.ndarray, pre: np.ndarray, R: int) -> float:
    """``min_{|S|=R} Σ|p − 1/R|`` for one sorted column ``z`` with prefix
    sums ``pre`` — a transcript of
    :meth:`~repro.walks.local_mixing.UniformDeviationOracle.best_sum`
    (the shared :func:`~repro.walks.local_mixing.window_deviation_sums`
    formula plus the same ``argmin``), fed from the batched oracle's
    column-sorted block instead of a fresh per-column ``argsort``/``cumsum``
    (both produce bitwise-identical arrays, so the value is too)."""
    from repro.walks.local_mixing import window_deviation_sums

    starts = np.arange(z.size - R + 1)
    sums = window_deviation_sums(z, pre, R, 1.0 / R, starts)
    return float(sums[int(np.argmin(sums))])


def _normalize_sources(g: Graph, sources) -> list[int]:
    if sources is None:
        sources = range(g.n)
    out = [int(s) for s in sources]
    if not out:
        raise ValueError("need at least one source")
    if min(out) < 0 or max(out) >= g.n:
        raise ValueError("source out of range")
    return out


def _validate_schedule(schedule: str) -> None:
    if schedule not in ("all", "doubling"):
        raise ValueError(f"unknown t_schedule {schedule!r}")


def _prepare_times_call(
    g: Graph,
    beta: float,
    eps: float,
    *,
    sources,
    sizes,
    threshold_factor: float,
    grid_factor: float | None,
    t_schedule: str,
    t_max: int | None,
    lazy: bool,
    target: str,
    method: str,
    batch_size: int | None,
) -> tuple[list[int], list[int], int]:
    """Shared fail-fast validation head of the multi-source τ drivers
    (:func:`batched_local_mixing_times` and the sharded
    :func:`~repro.parallel.parallel_local_mixing_times`).

    Every knob — scalars, ``t_schedule``, ``batch_size`` and the ``sizes``
    grid — is validated *before* sources are normalized or
    any candidate structure is built, so a bad call fails fast with the
    same message from every driver.  Returns
    ``(sources, candidate_sizes, t_max)``.
    """
    from repro.walks.local_mixing import _candidate_sizes, _resolve_walk_bounds

    if not 0 < eps < 1:
        raise ValueError("eps must be in (0,1)")
    if beta < 1:
        raise ValueError("beta must be >= 1 (sets of size at least n/beta)")
    if threshold_factor <= 0:
        raise ValueError("threshold_factor must be positive")
    if method not in ("iterative", "spectral"):
        raise ValueError(f"unknown method {method!r}")
    if target not in ("uniform", "degree"):
        raise ValueError(f"unknown target {target!r}")
    _validate_schedule(t_schedule)
    if batch_size is not None and batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    grid_factor = eps if grid_factor is None else grid_factor
    candidates = _candidate_sizes(g.n, beta, sizes, grid_factor)
    src = _normalize_sources(g, sources)
    t_max = _resolve_walk_bounds(g, lazy, t_max)
    return src, candidates, t_max


class TimesKey(NamedTuple):
    """The canonical, hashable identity of a τ computation's *semantics*.

    Two :func:`batched_local_mixing_times` calls on the same graph whose
    knobs canonicalize to the same :class:`TimesKey` produce identical
    per-source results: the driver's decisions depend on the knobs only
    through the resolved candidate-size grid, the stopping ``threshold``
    (``eps · threshold_factor``), the step schedule / resolved ``t_max``,
    the walk operator (``lazy``) and the semantics flags — not through the
    raw ``(beta, eps, sizes, grid_factor, …)`` spellings, nor through the
    execution-only knob ``batch_size`` (which the loop-equivalence
    contract guarantees cannot change any output).  The
    serving layer's :class:`~repro.service.ResultCache` keys on
    ``(graph, source, TimesKey)`` for exactly this reason.
    """

    sizes: tuple[int, ...]
    threshold: float
    t_schedule: str
    t_max: int
    lazy: bool
    require_source: bool
    target: str
    method: str


def canonical_times_key(
    g: Graph,
    beta: float,
    eps: float = DEFAULT_EPS,
    *,
    sizes: str | list[int] = "all",
    threshold_factor: float = 1.0,
    grid_factor: float | None = None,
    t_schedule: str = "all",
    t_max: int | None = None,
    lazy: bool = False,
    require_source: bool = False,
    target: str = "uniform",
    method: str = "iterative",
    batch_size: int | None = None,
) -> TimesKey:
    """Validate a full :func:`batched_local_mixing_times` knob set against
    ``g`` and collapse it to its canonical :class:`TimesKey`.

    Runs the same fail-fast validation head as the drivers
    (:func:`_prepare_times_call` — so a bad knob raises here with the same
    message it would raise from the engine), then resolves every
    graph-dependent default: ``sizes``/``beta``/``grid_factor`` become the
    explicit candidate-size tuple, ``eps``/``threshold_factor`` the stopping
    threshold, and ``t_max`` its resolved walk bound.  ``batch_size`` is
    validated but deliberately *absent* from the key — it partitions work,
    never changes results, so it must never fragment cache lines keyed by
    this identity.
    """
    # sources=[0]: the key is source-independent, and normalizing the
    # default all-sources list would cost O(n) per key computation (the
    # serving layer derives one key per submitted query).
    _, candidates, t_max = _prepare_times_call(
        g,
        beta,
        eps,
        sources=[0],
        sizes=sizes,
        threshold_factor=threshold_factor,
        grid_factor=grid_factor,
        t_schedule=t_schedule,
        t_max=t_max,
        lazy=lazy,
        target=target,
        method=method,
        batch_size=batch_size,
    )
    return TimesKey(
        sizes=tuple(int(r) for r in candidates),
        threshold=float(eps * threshold_factor),
        t_schedule=t_schedule,
        t_max=int(t_max),
        lazy=bool(lazy),
        require_source=bool(require_source),
        target=target,
        method=method,
    )


def _prepare_profiles_call(
    g: Graph,
    beta: float,
    *,
    sources,
    sizes,
    grid_factor: float,
    t_max: int,
) -> tuple[list[int], list[int]]:
    """Fail-fast validation head of the profile drivers (batched and
    parallel): ``beta``, the ``sizes`` grid and ``t_max`` are checked
    before sources are normalized.  Returns
    ``(sources, candidate_sizes)``.
    """
    from repro.walks.local_mixing import _candidate_sizes

    if beta < 1:
        raise ValueError("beta must be >= 1 (sets of size at least n/beta)")
    candidates = _candidate_sizes(g.n, beta, sizes, grid_factor)
    if t_max < 0:
        raise ValueError("t_max must be non-negative")
    src = _normalize_sources(g, sources)
    return src, candidates


def _prepare_spectra_call(
    g: Graph,
    eps: float,
    *,
    sources,
    sizes: list[int] | None,
    grid_factor: float | None,
    t_max: int | None,
    lazy: bool,
    method: str,
) -> tuple[list[int], list[int], int]:
    """Fail-fast validation head of the spectrum drivers (batched and
    parallel): knobs — including the explicit ``sizes`` list — are checked
    before sources are normalized.  Returns
    ``(sources, sizes, t_max)``."""
    from repro.walks.local_mixing import _resolve_walk_bounds, size_grid

    if not 0 < eps < 1:
        raise ValueError("eps must be in (0,1)")
    if method not in ("iterative", "spectral"):
        raise ValueError(f"unknown method {method!r}")
    if sizes is None:
        sizes = size_grid(g.n, g.n, eps if grid_factor is None else grid_factor)
    else:
        sizes = sorted(set(int(s) for s in sizes))
        if not sizes or sizes[0] < 1 or sizes[-1] > g.n:
            raise ValueError("sizes out of range")
    src = _normalize_sources(g, sources)
    t_max = _resolve_walk_bounds(g, lazy, t_max)
    return src, sizes, t_max


def batched_local_mixing_times(
    g: Graph,
    beta: float,
    eps: float = DEFAULT_EPS,
    *,
    sources: Sequence[int] | None = None,
    sizes: str | list[int] = "all",
    threshold_factor: float = 1.0,
    grid_factor: float | None = None,
    t_schedule: str = "all",
    t_max: int | None = None,
    lazy: bool = False,
    require_source: bool = False,
    target: str = "uniform",
    method: str = "iterative",
    batch_size: int | None = None,
) -> list["LocalMixingResult"]:
    """``τ_s(β,ε)`` for every source in ``sources`` (default: all nodes).

    Accepts the same semantics knobs as
    :func:`~repro.walks.local_mixing.local_mixing_time` — including
    ``require_source=True`` (each source pinned inside its witness set,
    decided by the exact constrained oracle on the shared block) and
    ``target="degree"`` (the irregular-graph degree-proportional target,
    evaluated by the bitwise-equal batched transcript of the per-source
    fixed-point heuristic) — plus:

    method:
        ``"iterative"`` (default) advances the block one sparse mat-mat per
        step — bitwise identical to the per-source loop.  ``"spectral"``
        evaluates each scheduled ``t`` by random access through the shared
        :func:`~repro.engine.propagator.shared_spectral_propagator` cache —
        asymptotically better for doubling schedules with long gaps, but
        floating-point-different from the iterative trajectory (results can
        differ where a deviation sits within rounding noise of the
        threshold).
    batch_size:
        Maximum number of source columns propagated at once (memory control
        for large graphs).  Default: all sources in one block.

    Returns the results in ``sources`` order; every result is identical —
    same time, set size, bitwise-equal deviation and same bookkeeping
    counters — to the corresponding per-source
    :func:`~repro.walks.local_mixing.local_mixing_time` call (the
    loop-equivalence guarantee; ``engine="loop"`` call sites are the
    reference this is tested against).
    """
    src, candidates, t_max = _prepare_times_call(
        g,
        beta,
        eps,
        sources=sources,
        sizes=sizes,
        threshold_factor=threshold_factor,
        grid_factor=grid_factor,
        t_schedule=t_schedule,
        t_max=t_max,
        lazy=lazy,
        target=target,
        method=method,
        batch_size=batch_size,
    )
    threshold = eps * threshold_factor
    kernels = _kernels()

    results: list[LocalMixingResult | None] = [None] * len(src)
    if batch_size is None:
        batch_size = len(src)
    with trace("engine_solve", kind="times", sources=len(src)) as _sp:
        for lo in range(0, len(src), batch_size):
            chunk = src[lo : lo + batch_size]
            for pos, res in _solve_chunk(
                g,
                chunk,
                candidates,
                threshold,
                t_schedule,
                t_max,
                lazy,
                method,
                target=target,
                require_source=require_source,
                kernels=kernels,
            ):
                results[lo + pos] = res
    _observe_engine_span(_sp, "times")
    missing = [src[i] for i, r in enumerate(results) if r is None]
    if missing:
        raise ConvergenceError(
            f"no local mixing found up to t_max={t_max} for sources "
            f"{missing[:8]}{'…' if len(missing) > 8 else ''} "
            f"(beta={beta}, eps={eps}, threshold={threshold})",
            last_length=t_max,
        )
    return results  # type: ignore[return-value]


def _solve_chunk(
    g: Graph,
    chunk: list[int],
    candidates: list[int],
    threshold: float,
    t_schedule: str,
    t_max: int,
    lazy: bool,
    method: str,
    *,
    target: str = "uniform",
    require_source: bool = False,
    kernels: _Kernels,
):
    """Yield ``(position_in_chunk, LocalMixingResult)`` as sources resolve.

    Per scheduled step: one batched prefilter over the whole
    ``(R, live column)`` grid (a valid lower bound for every target /
    constraint combination — the fused D1-style
    ``deviation_lower_bounds`` kernel), then exact per-source verification
    of the flagged pairs in ascending-``R`` order, so the first verified
    hit per column is exactly the per-source loop's stopping point and
    every counter reconstructs the loop's bookkeeping.  Unconstrained
    uniform-target pairs are decided straight off the float64 scan arrays;
    the degree target's prefilter is already the exact fixed-point
    transcript.
    """
    from repro.walks.local_mixing import (
        LocalMixingResult,
        UniformDeviationOracle,
        _degree_target_best,
        _t_iter,
    )

    # The degree transcript is an exact prefilter, not a screen, so it
    # records no screening volume.
    screen_record = kernels.screen if target != "degree" else None
    cutoff = threshold * (1.0 + _VERIFY_SLACK)
    n_cand = len(candidates)
    Rs = np.asarray(candidates, dtype=np.int64)
    inv_r = 1.0 / Rs
    degrees = g.degrees.astype(np.float64) if target == "degree" else None
    col_pos = np.arange(len(chunk))  # chunk position per live column
    prop = None
    if method == "iterative":
        prop = BlockPropagator(
            g, chunk, lazy=lazy, step_block=kernels.step_block
        )
    for steps, t in enumerate(_t_iter(t_schedule, t_max), start=1):
        if col_pos.size == 0:
            return
        if prop is not None:
            P = prop.advance_to(t)
        else:
            P = block_distribution_at(
                g, [chunk[i] for i in col_pos], t, lazy=lazy
            )
        live_nodes = [chunk[int(i)] for i in col_pos]
        S = pre = None  # free the previous step's scan before the next sort
        if target == "degree":
            doracle = BatchedDegreeDeviationOracle(
                P, degrees, sources=live_nodes
            )
            # The transcript values ARE the per-source heuristic values
            # (bitwise), so they prefilter exactly; flagged pairs are still
            # re-decided by the scalar reference below.
            bounds = doracle.best_sums_grid(Rs, require_source=require_source)
        else:
            S, pre = kernels.sorted_scan(P)
            k0_all = kernels.split_points(S, inv_r)
            # One search-free kernel call for the whole (R, column) grid;
            # valid for the constrained minimum too (pinning the source
            # can only increase it).
            bounds = kernels.deviation_lower_bounds(pre, Rs, inv_r, k0_all)
        hits = bounds < cutoff
        if screen_record is not None:
            screen_record(hits.size, int(np.count_nonzero(hits)))
        exact: dict[int, UniformDeviationOracle] = {}
        resolved: list[int] = []
        for col in map(int, np.flatnonzero(hits.any(axis=0))):
            node = int(live_nodes[col])
            for r_idx in map(int, np.flatnonzero(hits[:, col])):
                R = int(Rs[r_idx])
                if target == "degree":
                    s_exact = _degree_target_best(
                        P[:, col], degrees, R, node, require_source
                    )
                elif require_source:
                    uo = exact.get(col)
                    if uo is None:
                        uo = UniformDeviationOracle(P[:, col], source=node)
                        exact[col] = uo
                    s_exact, _ = uo.best_sum(R, require_source=True)
                else:
                    s_exact = _exact_best_sum(S[:, col], pre[:, col], R)
                if s_exact < threshold:
                    yield int(col_pos[col]), LocalMixingResult(
                        time=t,
                        set_size=R,
                        deviation=s_exact,
                        threshold=threshold,
                        steps_checked=steps,
                        sizes_checked=(steps - 1) * n_cand + r_idx + 1,
                    )
                    resolved.append(col)
                    break
        if resolved:
            keep = np.setdiff1d(
                np.arange(P.shape[1]), np.asarray(resolved, dtype=np.int64)
            )
            col_pos = col_pos[keep]
            if prop is not None:
                prop.drop_columns(keep)


def batched_local_mixing_profiles(
    g: Graph,
    beta: float,
    *,
    sources: Sequence[int] | None = None,
    sizes: str | list[int] = "all",
    grid_factor: float = DEFAULT_EPS,
    t_max: int = 100,
    lazy: bool = False,
    require_source: bool = False,
) -> np.ndarray:
    """The best achievable deviation ``min_R min_S Σ|p_t − 1/R|`` for every
    source at every ``t = 0..t_max``, as a ``(k, t_max + 1)`` array.

    One block trajectory replaces ``k`` independent
    :func:`~repro.walks.local_mixing.local_mixing_profile` runs; each row is
    bitwise identical to the per-source function: the block columns are
    bitwise equal to the single-source trajectory, the batched oracle's
    column-sorted block and prefix sums are bitwise equal to each
    per-column ``argsort``/``cumsum``, and every minimum is the exact
    single-source scan (the shared
    :func:`~repro.walks.local_mixing.window_deviation_sums` formula plus
    ``argmin`` — profile *values* feed plots and fits, so no
    threshold-verification shortcut applies).  With ``require_source=True``
    each column's minimum comes from the exact constrained single-source
    oracle (window-through-the-source-slot vs punctured-window
    decomposition) evaluated on the shared block column.
    """
    from repro.walks.local_mixing import (
        UniformDeviationOracle,
        window_deviation_sums,
    )

    src, candidates = _prepare_profiles_call(
        g, beta, sources=sources, sizes=sizes, grid_factor=grid_factor,
        t_max=t_max,
    )
    kernels = _kernels()
    starts = {R: np.arange(g.n - R + 1) for R in candidates}
    out = np.empty((len(src), t_max + 1), dtype=np.float64)
    with trace("engine_solve", kind="profiles", sources=len(src)) as _sp:
        prop = BlockPropagator(
            g, src, lazy=lazy, step_block=kernels.step_block
        )
        for t in range(t_max + 1):
            P = prop.advance_to(t)
            if require_source:
                for j, s in enumerate(src):
                    uo = UniformDeviationOracle(P[:, j], source=s)
                    out[j, t] = min(
                        uo.best_sum(R, require_source=True)[0]
                        for R in candidates
                    )
                continue
            oracle = BatchedUniformDeviationOracle(P)
            for j in range(len(src)):
                z = oracle.sorted[:, j]
                pre = oracle.prefix[:, j]
                best = math.inf
                for R in candidates:
                    sums = window_deviation_sums(
                        z, pre, R, 1.0 / R, starts[R]
                    )
                    best = min(best, float(sums[int(np.argmin(sums))]))
                out[j, t] = best
    _observe_engine_span(_sp, "profiles")
    return out


def batched_mixing_times(
    g: Graph,
    eps: float,
    *,
    sources: Sequence[int] | None = None,
    lazy: bool = False,
    method: str = "auto",
    t_max: int | None = None,
) -> list[int]:
    """Exact global mixing time ``τ_s^mix(ε)`` (Definition 1) for every
    source at once, identical to per-source
    :func:`~repro.walks.mixing.mixing_time` calls.

    ``method="iterative"`` scans one block trajectory (bitwise identical to
    the per-source scan).  ``"spectral"`` runs the per-source doubling +
    binary search (valid by Lemma 1 monotonicity) with all columns advanced
    in lockstep through the shared eigendecomposition; block evaluations can
    drift from :meth:`~repro.walks.distribution.SpectralPropagator.from_source`
    by BLAS-accumulation ulps, so any column whose distance lands within
    ``1e-9`` (relative) of ``eps`` is re-evaluated with the exact per-source
    arithmetic before the comparison — decisions therefore never differ from
    the per-source loop.  ``"auto"`` picks spectral for ``n ≤ 3000`` like
    :func:`~repro.walks.mixing.mixing_time`.
    """
    from repro.constants import MAX_WALK_LENGTH_FACTOR
    from repro.spectral.stationary import stationary_distribution
    from repro.walks.mixing import _check_walk_defined

    if not 0 < eps < 1:
        raise ValueError("eps must be in (0,1)")
    _check_walk_defined(g, lazy)
    src = _normalize_sources(g, sources)
    if t_max is None:
        t_max = MAX_WALK_LENGTH_FACTOR * g.n**3
    if method == "auto":
        method = "spectral" if g.n <= 3000 else "iterative"
    if method not in ("iterative", "spectral"):
        raise ValueError(f"unknown method {method!r}")
    pi = stationary_distribution(g)

    if method == "iterative":
        return _iterative_mixing_times(g, src, eps, pi, lazy, t_max)
    return _spectral_mixing_times(g, src, eps, pi, lazy, t_max)


def _verified_below(P: np.ndarray, pi: np.ndarray, eps: float) -> np.ndarray:
    """Per column of ``P``: is ``‖p − π‖₁ < eps``, deciding near-threshold
    columns with the exact contiguous per-source summation order."""
    dists = np.abs(P - pi[:, None]).sum(axis=0)
    below = dists < eps
    near = np.abs(dists - eps) <= eps * _VERIFY_SLACK
    for c in np.flatnonzero(near):
        below[c] = float(np.abs(P[:, int(c)] - pi).sum()) < eps
    return below


def _iterative_mixing_times(g, src, eps, pi, lazy, t_max):
    times: list[int | None] = [None] * len(src)
    prop = BlockPropagator(g, src, lazy=lazy)
    col_pos = np.arange(len(src))
    for t in range(t_max + 1):
        P = prop.advance_to(t)
        below = _verified_below(P, pi, eps)
        for c in np.flatnonzero(below):
            times[col_pos[c]] = t
        keep = np.flatnonzero(~below)
        if keep.size == 0:
            break
        if keep.size < col_pos.size:
            col_pos = col_pos[keep]
            prop.drop_columns(keep)
    if any(t is None for t in times):
        raise ConvergenceError(
            f"no t <= {t_max} reached eps={eps}", last_length=t_max
        )
    return times  # type: ignore[return-value]


def _spectral_mixing_times(g, src, eps, pi, lazy, t_max):
    from repro.engine.propagator import shared_spectral_propagator

    prop = shared_spectral_propagator(g, lazy)
    src_arr = np.asarray(src, dtype=np.int64)
    times = np.full(len(src), -1, dtype=np.int64)

    def exact_below(j: int, t: int) -> bool:
        p = prop.from_source(int(src_arr[j]), int(t))
        return float(np.abs(p - pi).sum()) < eps

    def below_at(js: np.ndarray, ts: np.ndarray) -> np.ndarray:
        P = prop.from_sources_at(src_arr[js], ts)
        dists = np.abs(P - pi[:, None]).sum(axis=0)
        below = dists < eps
        near = np.abs(dists - eps) <= eps * _VERIFY_SLACK
        for c in np.flatnonzero(near):
            below[c] = exact_below(int(js[c]), int(ts[c]))
        return below

    live = np.arange(len(src))
    zero = below_at(live, np.zeros(live.size, dtype=np.int64))
    times[live[zero]] = 0
    live = live[~zero]
    # Doubling phase: per column, the first power of two with dist < eps.
    hi_of = np.zeros(len(src), dtype=np.int64)
    hi = 1
    while live.size:
        found = below_at(live, np.full(live.size, hi, dtype=np.int64))
        hi_of[live[found]] = hi
        live = live[~found]
        hi *= 2
        if live.size and hi > t_max:
            raise ConvergenceError(
                f"no t <= {t_max} reached eps={eps}", last_length=hi // 2
            )
    # Binary search per column (vectorized across columns, each at its own
    # bracket) — valid because the distance is non-increasing (Lemma 1).
    active = np.flatnonzero((times < 0))
    lo_of = hi_of // 2
    while True:
        open_cols = active[hi_of[active] - lo_of[active] > 1]
        if open_cols.size == 0:
            break
        mid = (lo_of[open_cols] + hi_of[open_cols]) // 2
        found = below_at(open_cols, mid)
        hi_of[open_cols[found]] = mid[found]
        lo_of[open_cols[~found]] = mid[~found]
    times[active] = hi_of[active]
    return [int(t) for t in times]


def batched_local_mixing_spectra(
    g: Graph,
    eps: float = DEFAULT_EPS,
    *,
    sources: Sequence[int] | None = None,
    sizes: list[int] | None = None,
    grid_factor: float | None = None,
    t_max: int | None = None,
    lazy: bool = False,
    require_source: bool = False,
    method: str = "iterative",
) -> list[dict[int, int | float]]:
    """The multi-source local-mixing *spectrum*: for every source, for each
    candidate set size ``R``, the first ``t`` with
    ``min_{|S|=R} Σ|p_t − 1/R| < ε`` — one shared block trajectory instead
    of one :func:`~repro.walks.local_mixing.local_mixing_spectrum` run per
    source.  Results (in ``sources`` order) match the single-source function
    exactly for every knob, including ``require_source=True`` (screened by
    the unconstrained fused lower bounds — valid for the pinned minimum too
    — and decided by the exact constrained oracle on the column); sizes
    that never mix within ``t_max`` map to ``math.inf``.
    """
    from repro.walks.local_mixing import UniformDeviationOracle

    src, sizes, t_max = _prepare_spectra_call(
        g,
        eps,
        sources=sources,
        sizes=sizes,
        grid_factor=grid_factor,
        t_max=t_max,
        lazy=lazy,
        method=method,
    )

    kernels = _kernels()
    cutoff = eps * (1.0 + _VERIFY_SLACK)
    Rs = np.asarray(sizes, dtype=np.int64)
    inv_r = 1.0 / Rs
    out: list[dict[int, int | float]] = [{} for _ in src]
    col_pos = np.arange(len(src))
    # unresolved[c, r]: column c has not yet mixed at sizes[r].
    unresolved = np.ones((len(src), len(sizes)), dtype=bool)
    with trace("engine_solve", kind="spectra", sources=len(src)) as _sp:
        prop = (
            BlockPropagator(g, src, lazy=lazy, step_block=kernels.step_block)
            if method == "iterative"
            else None
        )
        for t in range(t_max + 1):
            if col_pos.size == 0:
                break
            if prop is not None:
                P = prop.advance_to(t)
            else:
                P = block_distribution_at(
                    g, [src[i] for i in col_pos], t, lazy=lazy
                )
            S, pre = kernels.sorted_scan(P)
            k0_all = kernels.split_points(S, inv_r)
            bounds = kernels.deviation_lower_bounds(pre, Rs, inv_r, k0_all)
            exact: dict[int, UniformDeviationOracle] = {}
            live = unresolved[col_pos]
            hits = live.T & (bounds < cutoff)
            if kernels.screen is not None:
                kernels.screen(hits.size, int(np.count_nonzero(hits)))
            for col in map(int, np.flatnonzero(hits.any(axis=0))):
                uo = exact.get(col)
                if uo is None:
                    uo = UniformDeviationOracle(
                        P[:, col],
                        source=(
                            int(src[int(col_pos[col])])
                            if require_source
                            else None
                        ),
                    )
                    exact[col] = uo
                for r_idx in map(int, np.flatnonzero(hits[:, col])):
                    R = int(Rs[r_idx])
                    s_exact, _ = uo.best_sum(R, require_source=require_source)
                    if s_exact < eps:
                        pos = int(col_pos[col])
                        out[pos][R] = t
                        unresolved[pos, r_idx] = False
            keep = np.flatnonzero(unresolved[col_pos].any(axis=1))
            if keep.size < col_pos.size:
                col_pos = col_pos[keep]
                if prop is not None:
                    prop.drop_columns(keep)
    _observe_engine_span(_sp, "spectra")
    for pos in range(len(src)):
        for R in sizes:
            out[pos].setdefault(R, math.inf)
    return out
