"""**Algorithm 2 — LOCAL-MIXING-TIME** (paper §3, Theorem 1).

Computes a 2-approximation of the local mixing time ``τ_s(β, ε)`` in
``O(τ_s log² n · log_{1+ε} β)`` rounds, assuming ``τ_s·φ(S) = o(1)`` on the
local mixing set (Lemma 4 justifies the doubling under that assumption).

Per outer phase ``ℓ = 1, 2, 4, 8, …``:

1. build a BFS tree of depth ``min{D, ℓ}`` from the source (flooding
   self-truncates at the graph's eccentricity, so no global knowledge of
   ``D`` is needed);
2. run Algorithm 1 for ``ℓ`` rounds → every node holds ``p̃_ℓ(u)``;
3. the source learns the tree size by one convergecast (out-of-tree nodes
   hold ``p̃_ℓ = 0`` exactly and are folded in analytically, see
   :mod:`repro.congest.ksmallest`);
4. for each set size ``R = ⌈n/β⌉, ⌈(1+ε)n/β⌉, …, n``: every node computes
   ``x_u = |p̃_ℓ(u) − 1/R|`` locally, the source gets the sum ``∂`` of the
   ``R`` smallest ``x_u`` by distributed binary search, and **stops with
   output ℓ** if ``∂ < 4ε`` (the Lemma 3 relaxation that covers the sizes
   between grid points).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.algorithms.estimate_rw_probability import FloodingEstimator
from repro.congest.bfs import build_bfs_tree
from repro.congest.metrics import CostLedger
from repro.congest.network import CongestNetwork
from repro.congest.tree_ops import convergecast_count
from repro.congest.message import int_bits
from repro.constants import DEFAULT_C, DEFAULT_EPS, MAX_WALK_LENGTH_FACTOR
from repro.errors import ConvergenceError, ProtocolError
from repro.utils.seeding import as_rng
from repro.walks.local_mixing import _check_knobs, size_grid

__all__ = [
    "CongestLocalMixingResult",
    "local_mixing_time_congest",
    "local_mixing_times_congest",
]


@dataclass(frozen=True)
class CongestLocalMixingResult:
    """Output of the distributed local-mixing-time computation.

    Attributes
    ----------
    time:
        The algorithm's output ``ℓ`` (a 2-approximation under Theorem 1's
        assumption; exact for the §3.2 variant).
    set_size:
        The grid size ``R`` whose check fired.
    deviation:
        The winning ``∂`` (sum of ``R`` smallest ``x_u``), below ``4ε``.
    threshold:
        The compared threshold (``4ε``).
    rounds:
        Total CONGEST rounds consumed (= ledger total for this run).
    ledger:
        Full per-phase cost breakdown (``bfs`` / ``flooding`` / ``ksearch``
        / ``convergecast`` — the three Theorem 1 terms plus bookkeeping).
    phases:
        Per-outer-phase history: ``(ℓ, best ∂ seen at that ℓ)``.
    """

    time: int
    set_size: int
    deviation: float
    threshold: float
    rounds: int
    ledger: CostLedger
    phases: list[tuple[int, float]] = field(default_factory=list)


def _grid_check(
    net: CongestNetwork,
    tree,
    p_tilde: np.ndarray,
    sizes: list[int],
    threshold: float,
    rng,
) -> tuple[bool, int, float, float]:
    """Steps 5–12 of Algorithm 2 for one walk length.

    Returns ``(stopped, winning_R, winning_sum, best_sum_seen)``.
    """
    from repro.congest.ksmallest import k_smallest_sum

    n = net.n
    out_count = n - tree.size
    best = np.inf
    for R in sizes:
        x = np.abs(p_tilde - 1.0 / R)
        ks = k_smallest_sum(
            net,
            tree,
            x,
            R,
            seed=rng,
            virtual_value=1.0 / R,
            virtual_count=out_count,
            phase="ksearch",
        )
        best = min(best, ks.total)
        if ks.total < threshold:
            return True, R, ks.total, best
    return False, -1, np.inf, best


def local_mixing_time_congest(
    net: CongestNetwork,
    source: int,
    beta: float,
    eps: float = DEFAULT_EPS,
    *,
    c: int = DEFAULT_C,
    grid_factor: float | None = None,
    seed=None,
    t_max: int | None = None,
) -> CongestLocalMixingResult:
    """Run Algorithm 2 on ``net`` from ``source``.

    Parameters
    ----------
    beta:
        Set-size parameter — mixing over some set of size ≥ ``n/β``.
    eps:
        Accuracy parameter ε; the stopping rule compares against ``4ε``
        (Lemma 3) and the size grid grows by ``(1+ε)`` unless
        ``grid_factor`` overrides it.
    c:
        Algorithm 1 fixed-point exponent (paper: ``c ≥ 6``).
    seed:
        Seed for the k-smallest tie-breaking perturbations.
    t_max:
        Safety cap on the walk length (default ``8n³``).

    Raises
    ------
    ConvergenceError
        If no ``ℓ ≤ t_max`` satisfies the stopping rule (cannot happen for
        connected non-bipartite graphs with a generous cap, since
        ``τ_s(β,ε) ≤ τ^mix_s(ε) = O(n³)``).
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

    history: list[tuple[int, float]] = []
    ell = 1
    while ell <= t_max:
        # Step 3: BFS tree of depth min{D, ℓ} (self-truncating flooding).
        tree = build_bfs_tree(net, source, depth_limit=ell)
        # Step 4: Algorithm 1 afresh for this phase.
        est = FloodingEstimator(net, source, c=c)
        p_tilde = est.run(ell)
        # The source learns the tree size (needed for the analytic
        # out-of-tree accounting) by one convergecast.
        tree_size = convergecast_count(
            net, tree, tree.in_tree, int_bits(n), phase="convergecast"
        )
        if tree_size != tree.size:
            raise ProtocolError(
                f"convergecast tree-size mismatch at phase ell={ell}: "
                f"counted {tree_size}, tree has {tree.size} nodes"
            )
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
        ell *= 2
    raise ConvergenceError(
        f"Algorithm 2 did not stop by t_max={t_max}", last_length=ell // 2
    )


def _congest_tau_task(g, payload: tuple) -> CongestLocalMixingResult:
    """Worker task: one per-source Algorithm-2 run on a fresh network over
    the shared-memory graph, seeded from its pre-spawned child sequence."""
    source, child_seq, beta, eps, c, grid_factor, t_max, bw = payload
    net = CongestNetwork(g, bandwidth_factor=bw)
    return local_mixing_time_congest(
        net,
        source,
        beta,
        eps,
        c=c,
        grid_factor=grid_factor,
        seed=np.random.default_rng(child_seq),
        t_max=t_max,
    )


def local_mixing_times_congest(
    g,
    sources,
    beta: float,
    eps: float = DEFAULT_EPS,
    *,
    c: int = DEFAULT_C,
    grid_factor: float | None = None,
    seed=None,
    t_max: int | None = None,
    bandwidth_factor: int = 16,
    n_workers: int | None = None,
    executor=None,
) -> list[CongestLocalMixingResult]:
    """Algorithm 2 from many sources — the Monte-Carlo estimator sweep,
    reproducible at any worker count.

    Each source runs :func:`local_mixing_time_congest` on its own fresh
    :class:`~repro.congest.network.CongestNetwork` (so per-run ledgers
    don't interleave).  The tie-breaking randomness is derived **per
    source, before sharding**: one ``numpy.random.SeedSequence`` child is
    spawned per source from ``seed``, so source ``j`` consumes exactly the
    same stream whether the sweep runs serially, on 2 workers, or on 8 —
    the per-shard results (and hence the whole sweep) are identical for
    every worker count.  With ``n_workers``/``executor`` the runs fan out
    through :func:`~repro.parallel.shard_map` over the shared-memory
    topology.

    ``seed`` may be an ``int``, ``None`` (fresh entropy — reproducible
    only within this call) or a ``numpy.random.SeedSequence``.
    """
    from repro.engine.batch import _normalize_sources

    src = _normalize_sources(g, sources)
    seq = (
        seed
        if isinstance(seed, np.random.SeedSequence)
        else np.random.SeedSequence(seed)
    )
    children = seq.spawn(len(src))
    payloads = [
        (s, child, beta, eps, c, grid_factor, t_max, bandwidth_factor)
        for s, child in zip(src, children)
    ]
    if n_workers is None and executor is None:
        return [_congest_tau_task(g, p) for p in payloads]
    from repro.parallel import shard_map

    return shard_map(
        _congest_tau_task,
        payloads,
        graph=g,
        n_workers=n_workers,
        executor=executor,
    )
