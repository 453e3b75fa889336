"""Batched uniform-deviation queries over a block of distributions.

The single-source :class:`~repro.walks.local_mixing.UniformDeviationOracle`
sorts one ``p`` and scans every length-``R`` window of the sorted copy.  The
batched oracle sorts **all k columns at once** and answers
``min_{|S|=R} Σ_{u∈S} |p(u) − 1/R|`` for every column per ``(t, R)`` grid
point without the window scan.

Shapes: the walk block ``P`` is ``(n, k)``, one column per source.  The
scan is source-major: ``sorted`` is ``(k, n)``, one contiguous ascending
row per source, and ``prefix`` is ``(k, n+1)``, each row's prefix sums
after a leading zero.  Sorting a contiguous row and a strided column give
the same values, and a row ``cumsum`` adds in the same sequential order,
so the scan is bitwise the per-source one.  Per-size arrays (``k0``,
bounds, sums) are ``(sizes, k)``; a column subset is a take of rows.

The window sum ``F(start)`` over the sorted column is *unimodal* in
``start``.  Writing ``x_j = |sorted_j − c|`` with ``c = 1/R``,
``F(start+1) − F(start) = x[start+R] − x[start]``; ``x`` decreases until the
sorted values cross ``c`` and increases after, so the difference is ``≤ 0``
while the window sits below the crossing, is monotone
(``sorted[start] + sorted[start+R] − 2c``) while it straddles, and is
``≥ 0`` past it.  The first start where the monotone predicate

    start ≥ k0   or   (start + R ≥ k0  and  sorted[start] + sorted[start+R] ≥ 2c)

holds (``k0`` = number of sorted entries below ``c``) is therefore a
minimizer, and a vectorized binary search finds it for all ``k`` columns in
``O(k log n)`` — versus ``O(k·(n−R))`` for the scan.

Floating-point caveat: the minimum *value* is evaluated with exactly the
single-source oracle's arithmetic at the bracketed start, but when exact
ties make the window-sum profile flat, the bracketed start can differ from
``np.argmin``'s pick by a few ulps of ``F``.  Callers that need decisions
bitwise-identical to the per-source loop (the batch drivers do) re-verify
near-threshold hits with the exact single-source oracle; see
:mod:`repro.engine.batch`.

:class:`BatchedDegreeDeviationOracle` is the degree-proportional-target
companion: a column-vectorized transcript of the single-source fixed-point
heuristic (stationary-weighted residual sort + volume recomputation) whose
values are bitwise equal to the per-source calls, which is what lets the
batch drivers cover ``target="degree"`` without falling back to the loop.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "BatchedUniformDeviationOracle",
    "BatchedDegreeDeviationOracle",
    "sorted_scan_arrays",
    "split_points_kernel",
    "best_sums_kernel",
    "best_sums_grid_kernel",
    "deviation_lower_bounds_kernel",
    "exact_best_sums_kernel",
]


# --------------------------------------------------------------------- #
# Kernels
#
# The oracle's hot arithmetic lives in these module-level float64
# functions so the batch drivers can call them directly on a block's scan
# arrays (and time them with the kernel profiler while observability is
# enabled).  Integer operands promote to float64 exactly (values are
# bounded by ``n``), and the grid-kernel equivalence tests pin the values
# against the oracle class.
# --------------------------------------------------------------------- #


def sorted_scan_arrays(
    P: np.ndarray,
    cols: np.ndarray | None = None,
    out: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Source-major scan of the block ``P``: row ``j`` of ``sorted`` is
    column ``cols[j]`` of ``P`` (every column when ``cols`` is ``None``) in
    ascending order, row ``j`` of ``prefix`` its prefix sums after a
    leading zero; shapes ``(m, n)`` / ``(m, n+1)``.  With a workspace
    ``out = (sorted, prefix)`` of at least ``m`` rows whose prefix column 0
    is zero, the scan fills their first ``m`` rows and allocates nothing."""
    P = np.asarray(P, dtype=np.float64)
    if P.ndim != 2:
        raise ValueError("P must be an (n, k) block, one column per source")
    n, m = P.shape[0], P.shape[1] if cols is None else len(cols)
    if out is None:
        out = np.empty((m, n)), np.zeros((m, n + 1))
    S, prefix = out[0][:m], out[1][:m]
    if cols is None:
        np.copyto(S, P.T)
    else:
        np.take(P.T, cols, axis=0, out=S, mode="clip")
    S.sort(axis=1)
    np.cumsum(S, axis=1, out=prefix[:, 1:])
    return S, prefix


def split_points_kernel(S: np.ndarray, cs: np.ndarray) -> np.ndarray:
    """Per target value and column, the number of sorted entries strictly
    below the target: entry ``[i, j]`` is
    ``searchsorted(S[j], cs[i])`` — the split the window formula pivots
    on."""
    cs = np.asarray(cs, dtype=np.float64)
    out = np.empty((cs.size, S.shape[0]), dtype=np.int64)
    # Keys ascending (callers pass 1/R for ascending R): each search walks
    # its row forward; the key order changes no integer.
    keys = cs[::-1]
    for j, row in enumerate(S):
        out[::-1, j] = row.searchsorted(keys)
    return out


def best_sums_kernel(
    S: np.ndarray,
    pre: np.ndarray,
    R: int,
    c: float,
    k0: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """The bracketed window minimum for one set size ``R`` with target
    value ``c`` over every column of the scan ``(S, pre)``; returns
    ``(sums, starts)`` (see
    :meth:`BatchedUniformDeviationOracle.best_sums`)."""
    k, n = S.shape
    rows = np.arange(k)
    if k0 is None:
        k0 = (S < c).sum(axis=1)
    # Vectorized binary search for the first start where the window-sum
    # difference turns non-negative; W-1 is the "all differences
    # negative" sentinel.
    W = n - R + 1
    lo = np.zeros(k, dtype=np.int64)
    hi = np.full(k, W - 1, dtype=np.int64)
    two_c = 2.0 * c
    while True:
        active = lo < hi
        if not active.any():
            break
        mid = np.where(active, (lo + hi) >> 1, 0)
        s_lo = S[rows, mid]
        s_hi = S[rows, mid + R]
        pred = (mid >= k0) | ((mid + R >= k0) & (s_lo + s_hi >= two_c))
        hi = np.where(active & pred, mid, hi)
        lo = np.where(active & ~pred, mid + 1, lo)
    start = lo
    # Evaluate the window sum at the bracketed start with the exact
    # arithmetic of UniformDeviationOracle._window_sums.
    kk = np.clip(k0, start, start + R)
    gather = pre[rows, kk]
    p_lo = pre[rows, start]
    p_hi = pre[rows, start + R]
    below = c * (kk - start) - (gather - p_lo)
    above = (p_hi - gather) - c * (R - (kk - start))
    return below + above, start


def best_sums_grid_kernel(
    S: np.ndarray,
    pre: np.ndarray,
    Rs: np.ndarray,
    cs: np.ndarray,
    k0: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`best_sums_kernel` vectorized over the whole ``(R, column)``
    grid — one search trajectory per grid element, identical per element to
    the per-``R`` kernel (see
    :meth:`BatchedUniformDeviationOracle.best_sums_grid`)."""
    k, n = S.shape
    rows = np.arange(k)[None, :]
    R_col = np.asarray(Rs, dtype=np.int64)[:, None]
    c_col = np.asarray(cs, dtype=np.float64)[:, None]
    lo = np.zeros((R_col.size, k), dtype=np.int64)
    hi = np.broadcast_to(n - R_col, lo.shape).copy()  # W - 1 per row
    two_c = 2.0 * c_col
    while True:
        active = lo < hi
        if not active.any():
            break
        mid = np.where(active, (lo + hi) >> 1, 0)
        s_lo = S[rows, mid]
        # Active positions satisfy mid + R <= n - 1; inactive ones are
        # don't-cares whose gather index merely needs to stay in bounds.
        s_hi = S[rows, np.minimum(mid + R_col, n - 1)]
        pred = (mid >= k0) | ((mid + R_col >= k0) & (s_lo + s_hi >= two_c))
        hi = np.where(active & pred, mid, hi)
        lo = np.where(active & ~pred, mid + 1, lo)
    start = lo
    kk = np.clip(k0, start, start + R_col)
    gather = pre[rows, kk]
    p_lo = pre[rows, start]
    p_hi = pre[rows, start + R_col]
    below = c_col * (kk - start) - (gather - p_lo)
    above = (p_hi - gather) - c_col * (R_col - (kk - start))
    return below + above, start


#: Window starts per :func:`exact_best_sums_kernel` chunk.  Each of the
#: chunk's int64/float64 temporaries is then 64 KiB, under glibc's default
#: 128 KiB mmap threshold, so malloc recycles them from the heap; larger
#: ones would each be mapped, zero-faulted and unmapped again per chunk.
EXACT_CHUNK_ELEMENTS = 1 << 13


def exact_best_sums_kernel(
    pre: np.ndarray, Rs: np.ndarray, cs: np.ndarray, k0: np.ndarray,
    r_idx: np.ndarray, cols: np.ndarray,
) -> np.ndarray:
    """Per flagged pair ``(Rs[r_idx[i]], cols[i])``, the exact window
    minimum ``sums[argmin(sums)]`` of
    :func:`~repro.walks.local_mixing.window_deviation_sums` over every
    start, bitwise: the same elementwise float64 formula, evaluated over
    one ragged array of all the pairs' window starts (``cs = 1/Rs``, ``k0``
    its :func:`split_points_kernel` splits).  Window sums are never
    ``-0.0`` or NaN, so each segment's minimum is the element ``argmin``
    picks."""
    if r_idx.size == 0:
        return np.empty(0)
    n = pre.shape[1] - 1
    flat = pre.ravel()  # row j starts at j·(n+1)
    widths = n - Rs[r_idx] + 1  # window starts per pair
    ends = np.cumsum(widths)
    out = np.empty(r_idx.size)
    a = 0
    while a < r_idx.size:  # pairs [a, b) fill one chunk (at least one)
        base = ends[a - 1] if a else 0
        b = np.searchsorted(ends, base + EXACT_CHUNK_ELEMENTS, "right")
        b = max(a + 1, int(b))
        w = widths[a:b]
        offs = ends[a:b] - w - base  # segment offsets within the chunk
        r = r_idx[a:b]
        pos = np.arange(ends[b - 1] - base)  # offset + window start
        R = np.repeat(Rs[r], w)
        # d = clip(k0, start, start + R) - start, the entries below c.
        d = np.repeat(k0[r, cols[a:b]] + offs, w) - pos
        np.clip(d, 0, R, out=d)
        i_s = np.repeat(cols[a:b] * (n + 1) - offs, w) + pos
        p_s, p_k, p_e = flat[i_s], flat[i_s + d], flat[i_s + R]
        c = np.repeat(cs[r], w)
        df = d.astype(np.float64)  # exact: the integers are at most n
        below = c * df - (p_k - p_s)
        above = (p_e - p_k) - c * (R - df)
        out[a:b] = np.minimum.reduceat(below + above, offs)
        a = b
    return out


def deviation_lower_bounds_kernel(
    pre: np.ndarray, Rs: np.ndarray, cs: np.ndarray, k0: np.ndarray
) -> np.ndarray:
    """Search-free per-``(R, column)`` lower bounds on the window minima,
    straight from the prefix sums (see
    :meth:`BatchedUniformDeviationOracle.deviation_lower_bounds` for the
    three bounds being combined and why they are valid)."""
    k, n = pre.shape[0], pre.shape[1] - 1
    Rs = np.asarray(Rs, dtype=np.int64)
    R_col = Rs[:, None]
    c_col = np.asarray(cs, dtype=np.float64)[:, None]
    # Gathers that depend only on R are column takes; the k0-dependent
    # ones index the flat prefix block, where row j starts at j·(n+1).
    flat = pre.ravel()
    base = np.arange(0, k * (n + 1), n + 1)[None, :]
    target = c_col * R_col  # cR (≈ 1, kept in float for safety)
    rest = pre.T[n - Rs]  # mass outside the heaviest window
    top = pre[:, n][None, :] - rest  # heaviest window mass
    bot = pre.T[Rs]  # lightest window mass
    # (a) |mass − cR| over the feasible mass range.
    b_mass = np.maximum(target - top, bot - target)
    # (b) below-c part of the rightmost window.
    m2 = np.clip(k0 - (n - R_col), 0, R_col)
    b_below = c_col * m2 - (flat[((n - R_col) + m2) + base] - rest)
    # (c) above-c part of the leftmost window.
    a3 = np.minimum(k0, R_col)
    b_above = (bot - flat[a3 + base]) - c_col * (R_col - a3)
    out = np.maximum(b_mass, np.maximum(b_below, b_above))
    return np.maximum(out, 0.0)


class BatchedUniformDeviationOracle:
    """Answers best-deviation queries for every column of an ``n × k`` block.

    Parameters
    ----------
    P:
        Block of ``k`` distributions, one per column (non-negative).
    """

    def __init__(self, P: np.ndarray):
        P = np.asarray(P, dtype=np.float64)
        if P.ndim != 2:
            raise ValueError("P must be an (n, k) block, one column per source")
        self.n, self.k = P.shape
        #: Source-major scan: row ``j`` is column ``j`` of the block sorted
        #: ascending, shape ``(k, n)``, and its prefix sums after a leading
        #: zero, ``(k, n+1)``.
        self.sorted, self.prefix = sorted_scan_arrays(P)

    def split_points(self, cs: np.ndarray) -> np.ndarray:
        """``k0`` for each target value: entry ``[i, j]`` is the number of
        sorted values of column ``j`` strictly below ``cs[i]`` (the
        ``searchsorted`` split the window formula pivots on)."""
        cs = np.asarray(cs, dtype=np.float64)
        return split_points_kernel(self.sorted, cs)

    def best_sums(
        self, R: int, *, k0: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(sums, starts)`` for set size ``R``: per column, the minimum of
        ``Σ_{j∈[start, start+R)} |sorted_j − 1/R|`` over window starts and a
        start achieving it (the bracketed minimizer; see module docstring).
        """
        n = self.n
        if not 1 <= R <= n:
            raise ValueError(f"R={R} out of range [1, {n}]")
        return best_sums_kernel(self.sorted, self.prefix, R, 1.0 / R, k0)

    def best_sums_grid(
        self, Rs: np.ndarray, *, k0: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`best_sums` for a whole grid of set sizes at once.

        Returns ``(sums, starts)`` of shape ``(len(Rs), k)``: entry ``[i, j]``
        is the best deviation (and a start achieving it) of column ``j`` at
        set size ``Rs[i]``.  Every element goes through exactly the same
        binary-search trajectory and window-sum arithmetic as the per-``R``
        :meth:`best_sums` call, so the values are bitwise identical — the
        difference is purely mechanical: one vectorized search over the
        ``(R, column)`` grid instead of ``len(Rs)`` Python-level calls, which
        is what makes per-snapshot rescans affordable for the dynamic-network
        tracker (:mod:`repro.dynamic`).
        """
        Rs = np.asarray(Rs, dtype=np.int64)
        if Rs.ndim != 1 or Rs.size == 0:
            raise ValueError("Rs must be a non-empty 1-D array of set sizes")
        n, k = self.n, self.k
        if Rs.min() < 1 or Rs.max() > n:
            raise ValueError(f"set sizes out of range [1, {n}]")
        cs = 1.0 / Rs
        if k0 is None:
            k0 = self.split_points(cs)
        k0 = np.asarray(k0, dtype=np.int64)
        if k0.shape != (Rs.size, k):
            raise ValueError("k0 must have shape (len(Rs), k)")
        return best_sums_grid_kernel(self.sorted, self.prefix, Rs, cs, k0)

    def deviation_lower_bounds(
        self, Rs: np.ndarray, *, k0: np.ndarray | None = None
    ) -> np.ndarray:
        """Search-free lower bounds on :meth:`best_sums_grid`'s minima:
        a ``(len(Rs), k)`` array with entry ``[i, j] ≤ min_start
        Σ_{u∈window} |p_j(u) − 1/Rs[i]|``, in ``O(1)`` per pair straight
        from the prefix sums.

        Three bounds are combined, each valid for *every* window of the
        sorted column: (a) ``Σ|p − c| ≥ |mass(S) − cR|``, and window masses
        range between the lightest (leftmost) and heaviest (rightmost)
        windows; (b) the below-``c`` part ``Σ (c − p)⁺`` is a window sum of
        a non-increasing sequence, so the rightmost window minimizes it;
        (c) symmetrically, the leftmost window minimizes the above-``c``
        part.  Deviations from the exact minima are pure summation roundoff
        (``≪`` the engine's verification slack), so a "bound < cutoff →
        verify exactly" prefilter — the dynamic tracker's re-scan
        (:mod:`repro.dynamic.tracker`) — can never miss a firing ``(t, R)``
        pair: it trades a handful of extra exact verifications for skipping
        the per-pair window search entirely.
        """
        Rs = np.asarray(Rs, dtype=np.int64)
        if Rs.ndim != 1 or Rs.size == 0:
            raise ValueError("Rs must be a non-empty 1-D array of set sizes")
        n, k = self.n, self.k
        if Rs.min() < 1 or Rs.max() > n:
            raise ValueError(f"set sizes out of range [1, {n}]")
        cs = 1.0 / Rs
        if k0 is None:
            k0 = self.split_points(cs)
        k0 = np.asarray(k0, dtype=np.int64)
        if k0.shape != (Rs.size, k):
            raise ValueError("k0 must have shape (len(Rs), k)")
        return deviation_lower_bounds_kernel(self.prefix, Rs, cs, k0)


class BatchedDegreeDeviationOracle:
    """Degree-target (stationary-weighted) deviation queries over a block.

    The degree-proportional variant of Definition 2 targets
    ``π_S(v) = d(v)/µ(S)``; the single-source reference is the fixed-point
    heuristic ``repro.walks.local_mixing._degree_target_best`` (mean-degree
    volume guess → pick the ``R`` smallest residuals → recompute ``µ(S)``,
    up to four rounds, keeping the best value seen).  This oracle runs that
    heuristic for **all k columns at once** as an exact vectorized
    transcript: the residual block is sorted column-wise with the same
    stable order, the gathers are transposed to ``(k, R)`` C-contiguous
    layout so every row sum uses numpy's pairwise reduction over the same
    ``R`` values in the same order as the 1-D call, and per-column
    convergence freezes a column exactly where the scalar loop would
    ``break`` — so :meth:`best_sums` is **bitwise equal** to ``k``
    independent ``_degree_target_best`` calls.

    On a regular graph the degree target collapses to the uniform one, and
    the heuristic reduces to the uniform window optimum.

    Parameters
    ----------
    P:
        Block of ``k`` distributions, one per column (non-negative).
    degrees:
        Degree vector of the graph, ``float64`` (the reference loop casts
        with ``g.degrees`` — pass the same cast).
    sources:
        Optional source node per column; required for
        ``require_source=True`` queries (the constraint pins each column's
        own source inside its set).
    """

    #: Fixed-point rounds — must match ``_degree_target_best``'s default.
    ITERS = 4

    def __init__(
        self,
        P: np.ndarray,
        degrees: np.ndarray,
        *,
        sources=None,
    ):
        P = np.asarray(P, dtype=np.float64)
        if P.ndim != 2:
            raise ValueError("P must be an (n, k) block, one column per source")
        self.n, self.k = P.shape
        degrees = np.asarray(degrees, dtype=np.float64)
        if degrees.shape != (self.n,):
            raise ValueError("degrees must be a length-n vector")
        self._P = P
        self.degrees = degrees
        self._mean_degree = float(degrees.mean())
        if sources is None:
            self._src = None
        else:
            src = np.asarray(list(sources), dtype=np.int64)
            if src.shape != (self.k,):
                raise ValueError("need one source per column")
            if src.size and (src.min() < 0 or src.max() >= self.n):
                raise ValueError("source out of range")
            self._src = src

    def best_sums(self, R: int, *, require_source: bool = False) -> np.ndarray:
        """Per column, the fixed-point heuristic's best
        ``Σ_{v∈S} |p(v) − d(v)/µ(S)|`` over sets of size ``R`` — bitwise
        equal to the per-source ``_degree_target_best`` transcript (see the
        class docstring for why).  With ``require_source=True`` each
        column's own source is forced into its set (the oracle must have
        been built with ``sources``)."""
        n, k = self.n, self.k
        if not 1 <= R <= n:
            raise ValueError(f"R={R} out of range [1, {n}]")
        if require_source and self._src is None:
            raise ValueError("oracle built without sources")
        P, d = self._P, self.degrees
        mu = np.full(k, R * self._mean_degree)
        best = np.full(k, np.inf)
        alive = np.arange(k)
        for _ in range(self.ITERS):
            Pa = P[:, alive]
            resid = np.abs(Pa - d[:, None] / mu[alive][None, :])
            if require_source:
                resid[self._src[alive], np.arange(alive.size)] = -1.0
            idx = np.argsort(resid, axis=0, kind="stable")[:R]
            # (k, R) C-contiguous gathers: the axis-1 pairwise sums then
            # reduce the same R values in the same order as the scalar
            # loop's 1-D sums — bitwise equal results.
            dg = np.ascontiguousarray(d[idx].T)
            mu_new = dg.sum(axis=1)
            pg = np.ascontiguousarray(Pa[idx, np.arange(alive.size)[None, :]].T)
            val = np.abs(pg - dg / mu_new[:, None]).sum(axis=1)
            best[alive] = np.minimum(best[alive], val)
            converged = np.abs(mu_new - mu[alive]) < 1e-12
            mu[alive] = mu_new
            alive = alive[~converged]
            if alive.size == 0:
                break
        return best

    def best_sums_grid(
        self, Rs: np.ndarray, *, require_source: bool = False
    ) -> np.ndarray:
        """:meth:`best_sums` for a whole grid of set sizes: a
        ``(len(Rs), k)`` array, row ``i`` bitwise equal to
        ``best_sums(Rs[i])``.  Each set size runs its own fixed point, so
        the fusion here is per-``R`` column vectorization (the degree
        residuals pivot on ``µ``, which differs per size — there is no
        shared sort to amortize across sizes the way the uniform oracle
        does)."""
        Rs = np.asarray(Rs, dtype=np.int64)
        if Rs.ndim != 1 or Rs.size == 0:
            raise ValueError("Rs must be a non-empty 1-D array of set sizes")
        if Rs.min() < 1 or Rs.max() > self.n:
            raise ValueError(f"set sizes out of range [1, {self.n}]")
        out = np.empty((Rs.size, self.k), dtype=np.float64)
        for i, R in enumerate(Rs):
            out[i] = self.best_sums(int(R), require_source=require_source)
        return out
