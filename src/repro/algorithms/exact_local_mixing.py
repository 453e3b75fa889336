"""Exact local mixing time (paper §3.2, Theorem 2).

Identical to Algorithm 2 except the walk length increases by **one** per
iteration instead of doubling, so no length is skipped and the first ``ℓ``
passing the check is the exact (grid-semantics) local mixing time.  No
``τ·φ(S) = o(1)`` assumption is needed.

Two paper-faithful cost features:

* the flooding **resumes** from the previous distribution — one extra round
  per iteration ("the Step 3 essentially computes p_ℓ from p_{ℓ−1} in one
  round");
* the BFS tree is **recomputed every iteration** (the paper's pseudocode;
  its footnote 8 notes the alternative of building a full-depth tree once
  up front, available here as ``reuse_bfs=True``).

Total: ``O(τ_s · D̃ · log n · log_{1+ε} β)`` rounds, ``D̃ = min{τ_s, D}``.
"""

from __future__ import annotations

from repro.algorithms.estimate_rw_probability import FloodingEstimator
from repro.algorithms.local_mixing_time import (
    CongestLocalMixingResult,
    _grid_check,
)
from repro.congest.bfs import build_bfs_tree
from repro.congest.message import int_bits
from repro.congest.network import CongestNetwork
from repro.congest.tree_ops import convergecast_count
from repro.constants import DEFAULT_C, DEFAULT_EPS, MAX_WALK_LENGTH_FACTOR
from repro.errors import ConvergenceError
from repro.utils.seeding import as_rng
from repro.walks.local_mixing import _check_knobs, size_grid

__all__ = ["exact_local_mixing_time_congest"]


def exact_local_mixing_time_congest(
    net: CongestNetwork,
    source: int,
    beta: float,
    eps: float = DEFAULT_EPS,
    *,
    c: int = DEFAULT_C,
    grid_factor: float | None = None,
    seed=None,
    t_max: int | None = None,
    reuse_bfs: bool = False,
) -> CongestLocalMixingResult:
    """Run the §3.2 exact algorithm (see module docstring).

    With ``reuse_bfs=True`` a single full-depth BFS tree is built once
    (footnote 8's optimization) instead of one per iteration.
    """
    _check_knobs(
        source=source, beta=beta, eps=eps, grid_factor=grid_factor, t_max=t_max
    )
    if not 0 <= source < net.n:
        raise ValueError("source out of range")
    n = net.n
    if t_max is None:
        t_max = MAX_WALK_LENGTH_FACTOR * n**3
    rng = as_rng(seed)
    sizes = size_grid(n, beta, eps if grid_factor is None else grid_factor)
    threshold = 4.0 * eps

    est = FloodingEstimator(net, source, c=c)
    full_tree = (
        build_bfs_tree(net, source, depth_limit=None) if reuse_bfs else None
    )
    history: list[tuple[int, float]] = []
    for ell in range(1, t_max + 1):
        # One incremental flooding round: p̃_{ℓ-1} → p̃_ℓ.
        p_tilde = est.step(1)
        tree = (
            full_tree
            if full_tree is not None
            else build_bfs_tree(net, source, depth_limit=ell)
        )
        tree_size = convergecast_count(
            net, tree, tree.in_tree, int_bits(n), phase="convergecast"
        )
        assert tree_size == tree.size
        stopped, win_r, win_sum, best = _grid_check(
            net, tree, p_tilde, sizes, threshold, rng
        )
        history.append((ell, best))
        if stopped:
            return CongestLocalMixingResult(
                time=ell,
                set_size=win_r,
                deviation=win_sum,
                threshold=threshold,
                rounds=net.ledger.rounds,
                ledger=net.ledger,
                phases=history,
            )
    raise ConvergenceError(
        f"exact algorithm did not stop by t_max={t_max}", last_length=t_max
    )
