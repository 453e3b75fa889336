"""The seams shared by every solve path: the engine's scan kernels.

The drivers call the float64 kernels of :mod:`repro.engine.oracle`
directly on a source-major scan; these tests pin that every kernel reads
it to exactly the bits the column-major formulas give.
"""

import numpy as np
import pytest

from repro.engine.oracle import (
    deviation_lower_bounds_kernel,
    exact_best_sums_kernel,
    screen_grid,
    sorted_scan_arrays,
    split_points_kernel,
)

# --------------------------------------------------------------------- #
# Source-major scan layout against the column-major formulas
# --------------------------------------------------------------------- #


def _block(kind, n, k, seed):
    """A random, tied or zero-heavy ``(n, k)`` block of distributions."""
    rng = np.random.default_rng(seed)
    if kind == "random":
        P = rng.random((n, k))
    elif kind == "tied":  # few distinct values
        P = rng.integers(1, 4, size=(n, k)).astype(np.float64)
    else:  # zero-heavy, walk-like: most entries below every 1/R
        P = rng.random((n, k)) * (rng.random((n, k)) < 0.2)
        P[0] += 1.0
    return P / P.sum(axis=0)


def _colmajor_scan(P):
    """The column-major scan: ``(n, k)`` sorted block and ``(n+1, k)``
    prefix sums under a zero row."""
    S = np.sort(P, axis=0)
    return S, np.vstack([np.zeros((1, P.shape[1])), np.cumsum(S, axis=0)])


def _colmajor_lower_bounds(pre, Rs, cs, k0):
    """The column-major search-free lower bounds (mass, rightmost
    below-``c`` part, leftmost above-``c`` part)."""
    n = pre.shape[0] - 1
    cols = np.arange(pre.shape[1])[None, :]
    R_col, c_col = Rs[:, None], cs[:, None]
    target = c_col * R_col
    top = pre[n][None, :] - pre[n - Rs]
    bot = pre[Rs]
    b_mass = np.maximum(target - top, bot - target)
    m2 = np.clip(k0 - (n - R_col), 0, R_col)
    b_below = c_col * m2 - (pre[(n - R_col) + m2, cols] - pre[n - Rs])
    a3 = np.minimum(k0, R_col)
    b_above = (bot - pre[a3, cols]) - c_col * (R_col - a3)
    return np.maximum(np.maximum(b_mass, np.maximum(b_below, b_above)), 0.0)


def _colmajor_exact(pre, Rs, cs, k0, r_idx, cols):
    """Per pair, the minimum of the window-sum formula over every start of
    the column-major prefix column."""
    n = pre.shape[0] - 1
    out = []
    for r, j in zip(r_idx.tolist(), cols.tolist()):
        R, c = int(Rs[r]), cs[r]
        start = np.arange(n - R + 1)
        kk = np.clip(k0[r, j], start, start + R)
        d = (kk - start).astype(np.float64)
        below = c * d - (pre[kk, j] - pre[start, j])
        above = (pre[start + R, j] - pre[kk, j]) - c * (R - d)
        out.append((below + above).min())
    return np.array(out)


def _same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and (
        a.tobytes() == b.tobytes()
    )


BLOCKS = [
    (kind, n, k, seed)
    for kind in ("random", "tied", "zeros")
    for n, k, seed in ((1, 1, 0), (7, 1, 1), (31, 6, 2), (64, 9, 3))
]


class TestSourceMajorLayout:
    """The scan is one contiguous row per source; every kernel reads it
    to exactly the bits the column-major scan gave."""

    @pytest.mark.parametrize("kind,n,k,seed", BLOCKS)
    def test_scan_is_the_transposed_column_scan(self, kind, n, k, seed):
        P = _block(kind, n, k, seed)
        S_col, pre_col = _colmajor_scan(P)
        S, pre = sorted_scan_arrays(P)
        assert S.flags.c_contiguous and pre.flags.c_contiguous
        assert _same_bytes(S, np.sort(P, axis=0).T)
        assert _same_bytes(pre, pre_col.T)
        # A column subset into a larger workspace: its first rows only.
        cols = np.arange(k)[::-2]
        work = np.full((k + 2, n), np.nan), np.zeros((k + 2, n + 1))
        S_sub, pre_sub = sorted_scan_arrays(P, cols, work)
        assert np.shares_memory(S_sub, work[0])
        assert np.shares_memory(pre_sub, work[1])
        assert _same_bytes(S_sub, S_col.T[cols])
        assert _same_bytes(pre_sub, pre_col.T[cols])

    @pytest.mark.parametrize("kind,n,k,seed", BLOCKS)
    def test_kernels_match_column_major_formulas(self, kind, n, k, seed):
        P = _block(kind, n, k, seed)
        S_col, pre_col = _colmajor_scan(P)
        S, pre = sorted_scan_arrays(P)
        Rs = np.arange(1, n + 1)
        cs = 1.0 / Rs
        k0 = split_points_kernel(S, cs)
        want_k0 = np.array(
            [[np.searchsorted(S_col[:, j], c) for j in range(k)] for c in cs]
        )
        assert _same_bytes(k0, want_k0.astype(np.int64))
        assert _same_bytes(
            deviation_lower_bounds_kernel(pre, screen_grid(Rs, cs, n, k), k0),
            _colmajor_lower_bounds(pre_col, Rs, cs, k0),
        )
        flags = np.random.default_rng(seed).random((n, k)) < 0.6
        r_idx, cols = np.nonzero(flags)
        assert _same_bytes(
            exact_best_sums_kernel(pre, Rs, cs, k0, r_idx, cols),
            _colmajor_exact(pre_col, Rs, cs, k0, r_idx, cols)
            if r_idx.size else np.empty(0),
        )
