"""Multi-source local-mixing drivers on the batched engine.

:func:`batched_local_mixing_times` computes ``τ_s(β,ε)`` for many sources at
once and returns, per source, the **same**
:class:`~repro.walks.local_mixing.LocalMixingResult` the per-source loop
would produce — same ``time``, ``set_size``, bitwise-equal ``deviation`` and
same bookkeeping counters.  Exactness is preserved by a two-phase check per
``(t, R)`` grid point:

1. a fast batched prefilter bounds every live column's best deviation from
   below — one fused, search-free
   :func:`~repro.engine.oracle.deviation_lower_bounds_kernel`
   call per step covering the entire ``(R, column)`` grid in ``O(1)`` per
   pair;
2. only ``(R, column)`` pairs whose bound falls below
   ``threshold · (1 + 1e-9)`` are re-examined with the exact single-source
   arithmetic — batched per step: one
   :func:`~repro.engine.oracle.exact_best_sums_kernel` call runs the
   window scan's float64 operations on every flagged pair (constrained
   pairs use :class:`~repro.walks.local_mixing.UniformDeviationOracle`).
   That verdict — and reported deviation — is
   what the per-source loop computes.  A lower bound can over-flag but never
   under-flag — its deviation from the exact minimum is summation
   roundoff, orders of magnitude below the ``1e-9`` relative slack — so a
   source can never stop earlier or later than its per-source run.

**Drift credit** skips both phases for columns that
provably cannot hit.  The deviation is not monotone in ``t`` (paper §3
remark) but is 1-Lipschitz in L1: for every fixed ``S``, ``Σ_{u∈S}|p(u) −
1/R|`` moves by at most ``‖p − q‖₁``, and so do its minima over ``S``, ``R``
and ``S ∋ s``.  A non-hit column gets credit ``min_R v_R − cutoff − slack``
(``v_R`` exact where verified, else the bound); each later step charges it
the *measured* drift ``‖P_t − P_{t−1}‖₁``; while positive, it is not screened.

**Size anchors** certify whole intervals of set sizes:
shrinking a size-``R`` set to ``a ≤ R`` of its nodes (keeping ``s``) shows
``D_R ≥ D_a − (R − a)/R``, pinned or not.  Each step bounds the sparse
anchors of :func:`_size_anchors` first; the per-size screen and exact
verification run only on flagged anchors' intervals (indices mapped back
to the candidates).  With every size its own anchor, it is the plain screen.

The drivers cover the **full** knob space of the per-source functions:
``require_source=True`` is handled in-block (the unconstrained lower bound
is also valid for the source-pinned minimum, and flagged pairs are decided
by the exact constrained oracle on the column).  Nothing falls back to a
per-source trajectory loop.

Every driver runs the float64 kernels of :mod:`repro.engine.oracle` and
the ``A @ P`` block step (:func:`~repro.engine.propagator.csr_step_block`)
directly; the screen's size operands are a
:class:`~repro.engine.oracle.ScreenGrid` built once per solve.  While
observability is enabled, each driver call binds the kernels once to
:class:`~repro.obs.KernelProfiler` timing closures (:func:`_kernels`), so
the disabled cost is one boolean check per call.

**Column tiles.**  A column of the block is one source's walk and never
reads another column, so :func:`batched_local_mixing_times` splits its
sources into contiguous, near-even tiles whose ``n × columns`` float64
block fits :data:`_TILE_BYTES` (and with it the ``(candidates × columns)``
screen grid: there are at most ``n`` candidates), and solves the tiles'
trajectories concurrently on a thread pool owned by the call, one thread
per usable CPU.  Sorting, scanning, the CSR mat-mat and the exact kernel
are per-column computations, so a solve is bitwise the same
for any tiling and any thread count.  A one-tile call runs inline and
starts no thread; a multiprocessing child (a shard-pool worker) solves
its tiles on its own thread only.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, NamedTuple, Sequence

import numpy as np

from repro.constants import DEFAULT_EPS
from repro.errors import ConvergenceError
from repro.graphs.base import Graph
from repro.engine.oracle import (
    deviation_lower_bounds_kernel,
    exact_best_sums_kernel,
    screen_grid,
    sorted_scan_arrays,
    split_points_kernel,
)
from repro.engine.propagator import BlockPropagator, csr_step_block
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

#: Per-node slack (times ``n``) off every drift credit; ``u = 2^-53``.
#: (1) Lower-bound roundoff is inside ``cutoff`` already.  (2) Float versus
#: real deviation of one vector: within ``(3n + 20)u`` (prefix sums of ``n``
#: terms of mass ``≤ 1``), paid at the grant and at the skipped step.
#: (3) Summed drift: each measured drift is within relative ``nu`` and the
#: charged sum stays below the credit (``< 2``): ``2nu``, plus ``4u`` for the
#: grant; the running credit's ``≤ u·credit`` error per charged step is
#: absorbed by rounding each update one ulp down.  ``(8n + 44)u ≤ 32nu``.
#: Size anchors use it without the ``1e-9`` slack (short of ``(3n + 20)u``
#: at large ``n``): float ``LB_a`` is within ``(2n + 12)u`` above the real
#: ``D_a`` and ``δ_a`` is rounded up, so ``LB_a − δ_a ≥ cutoff + slack`` puts
#: every float ``D_R`` at ``≥ cutoff + (27n − 32)u ≥ threshold`` (``n ≥ 2``);
#: a credit granted from anchor values needs ``(7n + 36)u``.
_CREDIT_SLACK = 32 * 2.0**-53

#: Largest anchor interval slack ``δ_a``, as a share of the threshold: a
#: column within about this share of it at an anchor screens its interval.
_ANCHOR_SHARE = 0.25

#: Byte budget of one tile's ``n × columns`` float64 block.  Every
#: per-step array of the tile (block, sorted block, prefix sums, the
#: ``(candidates × columns)`` screen grid) is then at most about that
#: size, so a tile's working set stays cache-sized.  Picked from a sweep
#: on the ``all_sources`` workload (``n = 1000``: 8 tiles of 125).
_TILE_BYTES = 1 << 20

def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the platform
    has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # macOS, Windows
        return os.cpu_count() or 1


def _tile_plan(
    k: int, n: int, batch_size: int | None
) -> tuple[list[tuple[int, int]], int]:
    """``(tiles, threads)`` for a ``k``-source call on ``n`` nodes:
    contiguous near-even ``[lo, hi)`` tiles, each within
    :data:`_TILE_BYTES` of block and at most ``batch_size`` wide, and the
    number of threads to run them on — capped so the columns in flight
    never exceed ``batch_size``, and 1 in a multiprocessing child, whose
    parent already spreads the work over processes."""
    width = max(1, _TILE_BYTES // (8 * n))
    if batch_size is not None:
        width = min(width, batch_size)
    n_tiles = -(-k // width)
    tiles = [
        (k * i // n_tiles, k * (i + 1) // n_tiles) for i in range(n_tiles)
    ]
    threads = 1
    if n_tiles > 1 and multiprocessing.parent_process() is None:
        threads = min(_usable_cpus(), n_tiles)
        if batch_size is not None:
            threads = max(1, min(threads, batch_size // width))
    return tiles, threads


def _run_tiles(solve: Callable, tiles: list, threads: int) -> list:
    """``[solve(lo, hi) for lo, hi in tiles]`` on ``threads`` threads of a
    pool owned by this call (inline for one thread).  The first error is
    re-raised and the tiles not yet started are cancelled."""
    if threads == 1:
        return [solve(lo, hi) for lo, hi in tiles]
    with ThreadPoolExecutor(threads, thread_name_prefix="repro-tile") as ex:
        return list(ex.map(solve, *zip(*tiles)))


class _Kernels(NamedTuple):
    """The hot kernels one driver call runs: the plain float64
    functions, or :class:`~repro.obs.KernelProfiler` timing closures
    around them while observability is enabled."""

    step_block: object
    sorted_scan: object
    split_points: object
    deviation_lower_bounds: object
    best_sums: object  # exact verification of flagged pairs
    #: ``(pairs, flagged, certified)`` screening-volume recorder, ``None``
    #: when observability is disabled.
    screen: object


_PLAIN_KERNELS = _Kernels(
    csr_step_block,
    sorted_scan_arrays,
    split_points_kernel,
    deviation_lower_bounds_kernel,
    exact_best_sums_kernel,
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
        prof.timed("step_block", csr_step_block),
        prof.timed("sorted_scan", sorted_scan_arrays),
        prof.timed("split_points", split_points_kernel),
        prof.timed("deviation_lower_bounds", deviation_lower_bounds_kernel),
        prof.timed("best_sums", exact_best_sums_kernel),
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


def _normalize_sources(g: Graph, sources) -> list[int]:
    from repro.walks.local_mixing import _check_knob_type

    if sources is None:
        sources = range(g.n)
    out = []
    for s in sources:
        _check_knob_type("source", s)
        out.append(int(s))
    if not out:
        raise ValueError("need at least one source")
    if min(out) < 0 or max(out) >= g.n:
        raise ValueError("source out of range")
    return out


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
    require_source: bool,
    batch_size: int | None,
) -> tuple[list[int], list[int], int]:
    """Shared fail-fast validation head of the multi-source τ drivers
    (:func:`batched_local_mixing_times` and the sharded
    :func:`~repro.parallel.parallel_local_mixing_times`).

    Every knob passes the knob table
    (:func:`~repro.walks.local_mixing._check_knobs`, the rules
    :func:`~repro.walks.local_mixing.local_mixing_time` checks too) and
    the ``sizes`` grid is built *before* sources are normalized, so a bad
    call fails fast with the same exception and message from every driver.
    Returns ``(sources, candidate_sizes, t_max)``.
    """
    from repro.walks.local_mixing import (
        _candidate_sizes,
        _check_knobs,
        _resolve_walk_bounds,
    )

    _check_knobs(
        beta=beta, eps=eps, sizes=sizes, threshold_factor=threshold_factor,
        grid_factor=grid_factor, t_schedule=t_schedule, t_max=t_max,
        lazy=lazy, require_source=require_source, batch_size=batch_size,
    )
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
    execution-only knob ``batch_size``.  The serving layer's
    :class:`~repro.service.ResultCache` keys on ``(graph, source,
    TimesKey)`` for exactly this reason: by the loop-equivalence contract
    neither ``batch_size`` nor the source set can change any output.
    """

    sizes: tuple[int, ...]
    threshold: float
    t_schedule: str
    t_max: int
    lazy: bool
    require_source: bool


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
        g, beta, eps, sources=[0], sizes=sizes,
        threshold_factor=threshold_factor, grid_factor=grid_factor,
        t_schedule=t_schedule, t_max=t_max, lazy=lazy,
        require_source=require_source, batch_size=batch_size,
    )
    return TimesKey(
        sizes=tuple(int(r) for r in candidates),
        threshold=float(eps * threshold_factor),
        t_schedule=t_schedule,
        t_max=int(t_max),
        lazy=bool(lazy),
        require_source=bool(require_source),
    )


def _prepare_profiles_call(
    g: Graph,
    beta: float,
    *,
    sources,
    sizes,
    grid_factor: float,
    t_max: int,
    lazy: bool,
    require_source: bool,
) -> tuple[list[int], list[int]]:
    """Fail-fast validation head of the profile drivers (batched and
    parallel): the knob table and the ``sizes`` grid are checked before
    sources are normalized.  Returns ``(sources, candidate_sizes)``.

    ``t_max`` is the profile's output length, so unlike the τ drivers'
    walk bound it has no default; ``grid_factor=None`` is
    :data:`~repro.constants.DEFAULT_EPS`.
    """
    from repro.walks.local_mixing import _candidate_sizes, _check_knobs

    if t_max is None:
        raise TypeError("t_max must be an integer, got None")
    _check_knobs(
        beta=beta, sizes=sizes, grid_factor=grid_factor, t_max=t_max,
        lazy=lazy, require_source=require_source,
    )
    grid_factor = DEFAULT_EPS if grid_factor is None else grid_factor
    candidates = _candidate_sizes(g.n, beta, sizes, grid_factor)
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
    require_source: bool,
) -> tuple[list[int], list[int], int]:
    """Fail-fast validation head of the spectrum drivers (batched and
    parallel): knobs — including the explicit ``sizes`` list — are checked
    before sources are normalized.  Returns
    ``(sources, sizes, t_max)``."""
    from repro.walks.local_mixing import _resolve_walk_bounds, _spectrum_sizes

    sizes = _spectrum_sizes(
        g.n, eps, sizes, grid_factor, t_max=t_max, lazy=lazy,
        require_source=require_source,
    )
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
    batch_size: int | None = None,
) -> list["LocalMixingResult"]:
    """``τ_s(β,ε)`` for every source in ``sources`` (default: all nodes).

    Accepts the same semantics knobs as
    :func:`~repro.walks.local_mixing.local_mixing_time` — including
    ``require_source=True`` (each source pinned inside its witness set,
    decided by the exact constrained oracle on the shared block) — plus:

    batch_size:
        Maximum number of source columns propagated at once, summed over
        the threads (memory control for large graphs).  A solve always
        runs as column tiles of at most :data:`_TILE_BYTES`
        of block each, on up to one thread per usable CPU; a
        ``batch_size`` makes the tiles at most that wide and runs only as
        many at once as fit in it.  Default: no cap beyond the tiles.

    Returns the results in ``sources`` order; every result is identical —
    same time, set size, bitwise-equal deviation and same bookkeeping
    counters — to the corresponding per-source
    :func:`~repro.walks.local_mixing.local_mixing_time` call (the
    loop-equivalence guarantee; that per-source function is the
    reference this is tested against).
    """
    src, candidates, t_max = _prepare_times_call(
        g, beta, eps, sources=sources, sizes=sizes,
        threshold_factor=threshold_factor, grid_factor=grid_factor,
        t_schedule=t_schedule, t_max=t_max, lazy=lazy,
        require_source=require_source, batch_size=batch_size,
    )
    threshold = eps * threshold_factor
    kernels = _kernels()

    def solve_tile(lo: int, hi: int) -> list:
        return list(
            _solve_chunk(
                g,
                src[lo:hi],
                candidates,
                threshold,
                t_schedule,
                t_max,
                lazy,
                require_source=require_source,
                kernels=kernels,
            )
        )

    results: list[LocalMixingResult | None] = [None] * len(src)
    tiles, threads = _tile_plan(len(src), g.n, batch_size)
    with trace(
        "engine_solve", kind="times", sources=len(src), tiles=len(tiles),
        workers=threads,
    ) as _sp:
        solved = _run_tiles(solve_tile, tiles, threads)
    for (lo, _), tile in zip(tiles, solved):
        for pos, res in tile:
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


def _size_anchors(Rs: np.ndarray, gamma: float):
    """Greedy anchors over the ascending ``Rs``, each owning the next sizes
    with ``(R − a)/R ≤ gamma``: ``(anchor indices, interval lengths, δ_a)``
    (``δ_a`` rounded up), or ``None`` when every size is its own anchor."""
    first, a = [0], int(Rs[0])
    for i, R in enumerate(Rs.tolist()):
        if R - a > gamma * R:
            first.append(i)
            a = R
    if len(first) == Rs.size:
        return None
    first = np.asarray(first)
    last = np.append(first[1:], Rs.size) - 1
    delta = np.nextafter((Rs[last] - Rs[first]) / Rs[last], np.inf)
    return first, last - first + 1, delta


def _first_per_column(cols: np.ndarray) -> np.ndarray:
    """Positions of each column's first entry in ``cols``, in ascending
    column order (``np.unique(cols, return_index=True)[1]``, without its
    generic dispatch)."""
    if cols.size < 2:
        return np.arange(cols.size)
    order = cols.argsort(kind="stable")
    sc = cols[order]
    first = np.empty(sc.size, dtype=bool)
    first[0] = True
    np.not_equal(sc[1:], sc[:-1], out=first[1:])
    return order[first]


def _solve_chunk(
    g: Graph,
    chunk: list[int],
    candidates: list[int],
    threshold: float,
    t_schedule: str,
    t_max: int,
    lazy: bool,
    *,
    require_source: bool = False,
    kernels: _Kernels,
):
    """Yield ``(position_in_chunk, LocalMixingResult)`` as sources resolve.

    Per scheduled step: one batched prefilter over the whole
    ``(R, live column)`` grid (a valid lower bound with or without the
    source constraint — the fused D1-style ``deviation_lower_bounds``
    kernel), then exact verification of the flagged pairs; a column's
    first verified hit in ascending ``R`` is exactly the per-source loop's
    stopping point, and every counter reconstructs the loop's
    bookkeeping.  Unconstrained pairs are decided by one
    ``exact_best_sums_kernel`` call; source-pinned ones by the scalar
    constrained oracle.  Drift credit and size anchors prove pairs
    non-hits, which are not screened.
    """
    from repro.walks.local_mixing import (
        LocalMixingResult,
        UniformDeviationOracle,
        _t_iter,
    )

    screen_record = kernels.screen
    in_block = not require_source
    cutoff = threshold * (1.0 + _VERIFY_SLACK)
    slack = _CREDIT_SLACK * g.n
    n_cand = len(candidates)
    Rs = np.asarray(candidates, dtype=np.int64)
    inv_r = 1.0 / Rs
    gamma = threshold * _ANCHOR_SHARE
    anchors = _size_anchors(Rs, gamma)
    # The screen's size operands, built once per solve.
    grid = screen_grid(Rs, inv_r, g.n, len(chunk))
    if anchors is not None:
        anc, own, delta = anchors
        anc_grid, delta = grid.take(anc), delta[:, None]
    col_pos = np.arange(len(chunk))  # chunk position per live column
    credit = np.zeros(len(chunk))  # proven no-hit margin per live column
    # The tile's scan workspace (sorted, prefix).
    work = np.empty((len(chunk), g.n)), np.zeros((len(chunk), g.n + 1))
    flat = work[0].reshape(-1)  # the drift diff's buffer
    prop = BlockPropagator(g, chunk, lazy=lazy, step_block=kernels.step_block)
    for steps, t in enumerate(_t_iter(t_schedule, t_max), start=1):
        if col_pos.size == 0:
            return
        P_prev = prop.block
        P = prop.advance_to(t)
        cred = (credit > 0).nonzero()[0]
        if cred.size:  # charge the measured L1 drift, rounded down
            # The live block's diff, in the sorted buffer (this step's scan
            # refills it).  numpy sums a block's columns sequentially but a
            # lone column pairwise, so a lone credited column is summed
            # alone: each drift keeps the bits of a credited-only block.
            diff = np.subtract(P, P_prev, out=flat[: P.size].reshape(P.shape))
            drift = np.abs(diff, out=diff).sum(axis=0)
            if cred.size == col_pos.size:  # every column: in place
                np.subtract(credit, drift, out=credit)
                np.nextafter(credit, -np.inf, out=credit)
            else:
                drift = drift[cred] if cred.size > 1 else diff[:, cred[0]].sum()
                credit[cred] = np.nextafter(credit[cred] - drift, -np.inf)
        P_prev = None
        need = (credit <= 0).nonzero()[0]  # columns to screen this step
        if screen_record is not None:
            screen_record(0, 0, (col_pos.size - need.size) * n_cand)
        if need.size == 0:
            continue
        sub = None if need.size == col_pos.size else need
        S, pre = kernels.sorted_scan(P, sub, work)
        grid_s, rows, floor = grid, None, np.inf
        if anchors is not None:
            k0a = kernels.split_points(S, anc_grid.c)
            lba = kernels.deviation_lower_bounds(pre, anc_grid, k0a)
            lba -= delta  # D_R ≥ D_a − (R − a)/R on a's interval
            flag = lba < cutoff + slack
            credit[need] = lba.min(axis=0) - cutoff - slack
            fine = flag.any(axis=0).nonzero()[0]
            out = ~flag.any(axis=1)  # anchors that certify every column
            rows = np.repeat(~out, own).nonzero()[0]
            if screen_record is not None:
                screen_record(0, 0, need.size * n_cand - fine.size * rows.size)
            if fine.size == 0:
                continue
            if out.any():
                floor = lba[out][:, fine].min(axis=0)
            if fine.size < need.size:  # ascending: forward copies are safe
                for i, j in enumerate(fine.tolist()):
                    if i < j:
                        S[i], pre[i] = S[j], pre[j]
                need, S, pre = need[fine], S[: fine.size], pre[: fine.size]
            grid_s = grid.take(rows)
        if not in_block:
            live_nodes = [chunk[int(i)] for i in col_pos[need]]
        Rs_s, inv_s = grid_s.R, grid_s.c
        k0_all = kernels.split_points(S, inv_s)
        # One search-free kernel call for the whole (R, column) grid; valid
        # for the constrained minimum too (pinning the source can only
        # increase it).
        bounds = kernels.deviation_lower_bounds(pre, grid_s, k0_all)
        hits = bounds < cutoff
        if screen_record is not None:
            screen_record(hits.size, int(np.count_nonzero(hits)))
        found = []  # (screened column, r_idx, exact value) of each first hit
        if in_block:
            # R-major order: a column's first hit has its smallest R.
            r_idx, cols = np.nonzero(hits)
            vals = kernels.best_sums(pre, Rs_s, inv_s, k0_all, r_idx, cols)
            bounds[r_idx, cols] = vals
            ok = (vals < threshold).nonzero()[0]
            first = ok[_first_per_column(cols[ok])]
            found = zip(cols[first], r_idx[first], vals[first].tolist())
        else:
            for col in map(int, np.flatnonzero(hits.any(axis=0))):
                node = int(live_nodes[col])
                uo = UniformDeviationOracle(P[:, need[col]], source=node)
                for r_idx in map(int, np.flatnonzero(hits[:, col])):
                    R = int(Rs_s[r_idx])
                    s_exact, _ = uo.best_sum(R, require_source=True)
                    bounds[r_idx, col] = s_exact
                    if s_exact < threshold:
                        found.append((col, r_idx, s_exact))
                        break
        # Verified values now replace bounds.
        low = np.minimum(bounds.min(axis=0), floor)
        credit[need] = low - cutoff - slack
        keep = np.ones(col_pos.size, dtype=bool)
        for col, r_idx, s_exact in found:
            r_idx = int(r_idx if rows is None else rows[r_idx])
            keep[need[col]] = False
            yield int(col_pos[need[col]]), LocalMixingResult(
                time=t,
                set_size=int(Rs[r_idx]),
                deviation=s_exact,
                threshold=threshold,
                steps_checked=steps,
                sizes_checked=(steps - 1) * n_cand + r_idx + 1,
            )
        if not keep.all():
            keep = np.flatnonzero(keep)
            col_pos, credit = col_pos[keep], credit[keep]
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
    bitwise equal to the single-source trajectory, the source-major
    sorted rows and prefix sums are bitwise equal to each per-column
    ``argsort``/``cumsum``, and every minimum is the exact
    single-source scan (:func:`~repro.engine.oracle.exact_best_sums_kernel`
    over every ``(R, column)`` pair — profile *values* feed plots and
    fits, so no threshold-verification shortcut applies).  With
    ``require_source=True`` each column's minimum comes from the exact
    constrained single-source oracle (window-through-the-source-slot vs
    punctured-window decomposition) evaluated on the shared block column.
    """
    from repro.walks.local_mixing import UniformDeviationOracle

    src, candidates = _prepare_profiles_call(
        g, beta, sources=sources, sizes=sizes, grid_factor=grid_factor,
        t_max=t_max, lazy=lazy, require_source=require_source,
    )
    kernels = _kernels()
    Rs = np.asarray(candidates, dtype=np.int64)
    inv_r = 1.0 / Rs
    r_idx, cols = np.divmod(np.arange(Rs.size * len(src)), len(src))
    out = np.empty((len(src), t_max + 1), dtype=np.float64)
    with trace("engine_solve", kind="profiles", sources=len(src)) as _sp:
        prop = BlockPropagator(
            g, src, lazy=lazy, step_block=kernels.step_block
        )
        work = np.empty((len(src), g.n)), np.zeros((len(src), g.n + 1))
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
            S, pre = kernels.sorted_scan(P, None, work)
            k0 = kernels.split_points(S, inv_r)
            vals = kernels.best_sums(pre, Rs, inv_r, k0, r_idx, cols)
            out[:, t] = vals.reshape(Rs.size, len(src)).min(axis=0)
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
    in lockstep through one eigendecomposition, built for this call;
    block evaluations can drift from
    :meth:`~repro.walks.distribution.SpectralPropagator.from_source` by
    BLAS-accumulation ulps, so any column whose distance lands within
    ``1e-9`` (relative) of ``eps`` is re-evaluated with the exact per-source
    arithmetic before the comparison — decisions therefore never differ from
    the per-source loop.  ``"auto"`` picks spectral for ``n ≤ 3000`` like
    :func:`~repro.walks.mixing.mixing_time`, whose knob checks (the knob
    table, then the sources, then the walk preconditions) this head shares.
    """
    from repro.spectral.stationary import stationary_distribution
    from repro.walks.local_mixing import _check_knobs
    from repro.walks.mixing import _resolve_mixing_walk

    _check_knobs(eps=eps, lazy=lazy, t_max=t_max, method=method)
    src = _normalize_sources(g, sources)
    t_max, method = _resolve_mixing_walk(g, lazy, t_max, method)
    pi = stationary_distribution(g)

    if method == "iterative":
        return _iterative_mixing_times(g, src, eps, pi, lazy, t_max)
    return _spectral_mixing_times(g, src, eps, pi, lazy, t_max)


def _verified_below(
    P: np.ndarray, pi: np.ndarray, eps: float,
    exact_below: Callable[[int], bool],
) -> np.ndarray:
    """Per column of ``P``: is ``‖p − π‖₁ < eps``.  Columns within
    :data:`_VERIFY_SLACK` (relative) of ``eps`` are decided by
    ``exact_below(column)``, the per-source arithmetic."""
    dists = np.abs(P - pi[:, None]).sum(axis=0)
    below = dists < eps
    near = np.abs(dists - eps) <= eps * _VERIFY_SLACK
    for c in np.flatnonzero(near):
        below[c] = exact_below(int(c))
    return below


def _iterative_mixing_times(g, src, eps, pi, lazy, t_max):
    times: list[int | None] = [None] * len(src)
    prop = BlockPropagator(g, src, lazy=lazy)
    col_pos = np.arange(len(src))
    for t in range(t_max + 1):
        P = prop.advance_to(t)
        # The exact check sums the column in its contiguous per-source order.
        below = _verified_below(
            P, pi, eps, lambda c: float(np.abs(P[:, c] - pi).sum()) < eps
        )
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
    from repro.walks.distribution import SpectralPropagator

    prop = SpectralPropagator(g, lazy=lazy)
    src_arr = np.asarray(src, dtype=np.int64)
    times = np.full(len(src), -1, dtype=np.int64)

    def exact_below(j: int, t: int) -> bool:
        p = prop.from_source(int(src_arr[j]), int(t))
        return float(np.abs(p - pi).sum()) < eps

    def below_at(js: np.ndarray, ts: np.ndarray) -> np.ndarray:
        P = prop.from_sources_at(src_arr[js], ts)
        return _verified_below(
            P, pi, eps, lambda c: exact_below(int(js[c]), int(ts[c]))
        )

    live = np.arange(len(src))
    zero = below_at(live, np.zeros(live.size, dtype=np.int64))
    times[live[zero]] = 0
    live = live[~zero]
    # Doubling phase, every probe capped at t_max: per column, the first
    # probe with dist < eps (hi_of) and the probe before it (lo_of) — the
    # per-source search's probes exactly.
    lo_of = np.zeros(len(src), dtype=np.int64)
    hi_of = np.zeros(len(src), dtype=np.int64)
    lo, hi = 0, min(1, t_max)
    while live.size:
        if hi == lo:  # dist(t_max) >= eps for the live columns
            raise ConvergenceError(
                f"no t <= {t_max} reached eps={eps}", last_length=t_max
            )
        found = below_at(live, np.full(live.size, hi, dtype=np.int64))
        lo_of[live[found]] = lo
        hi_of[live[found]] = hi
        live = live[~found]
        lo, hi = hi, min(2 * hi, t_max)
    # Binary search per column (vectorized across columns, each at its own
    # bracket) — valid because the distance is non-increasing (Lemma 1).
    active = np.flatnonzero((times < 0))
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
        require_source=require_source,
    )

    kernels = _kernels()
    cutoff = eps * (1.0 + _VERIFY_SLACK)
    Rs = np.asarray(sizes, dtype=np.int64)
    inv_r = 1.0 / Rs
    grid = screen_grid(Rs, inv_r, g.n, len(src))
    out: list[dict[int, int | float]] = [{} for _ in src]
    col_pos = np.arange(len(src))
    # unresolved[c, r]: column c has not yet mixed at sizes[r].
    unresolved = np.ones((len(src), len(sizes)), dtype=bool)
    work = np.empty((len(src), g.n)), np.zeros((len(src), g.n + 1))
    with trace("engine_solve", kind="spectra", sources=len(src)) as _sp:
        prop = BlockPropagator(
            g, src, lazy=lazy, step_block=kernels.step_block
        )
        for t in range(t_max + 1):
            if col_pos.size == 0:
                break
            P = prop.advance_to(t)
            S, pre = kernels.sorted_scan(P, None, work)
            k0_all = kernels.split_points(S, inv_r)
            bounds = kernels.deviation_lower_bounds(pre, grid, k0_all)
            live = unresolved[col_pos]
            hits = live.T & (bounds < cutoff)
            if kernels.screen is not None:
                kernels.screen(hits.size, int(np.count_nonzero(hits)))
            r_idx, cols = np.nonzero(hits)
            if require_source:
                uo = {
                    c: UniformDeviationOracle(P[:, c], source=src[col_pos[c]])
                    for c in set(cols.tolist())
                }
                ok = np.fromiter(
                    (uo[c].best_sum(int(Rs[r]), require_source=True)[0] < eps
                     for r, c in zip(r_idx.tolist(), cols.tolist())),
                    dtype=bool, count=r_idx.size,
                )
            else:
                vals = kernels.best_sums(pre, Rs, inv_r, k0_all, r_idx, cols)
                ok = vals < eps
            pos, r_ok = col_pos[cols[ok]], r_idx[ok]
            unresolved[pos, r_ok] = False
            for p, R in zip(pos.tolist(), Rs[r_ok].tolist()):
                out[p][R] = t
            keep = np.flatnonzero(unresolved[col_pos].any(axis=1))
            if keep.size < col_pos.size:
                col_pos = col_pos[keep]
                prop.drop_columns(keep)
    _observe_engine_span(_sp, "spectra")
    for pos in range(len(src)):
        for R in sizes:
            out[pos].setdefault(R, math.inf)
    return out
