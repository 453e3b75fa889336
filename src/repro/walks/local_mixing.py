"""Centralized computation of the **local mixing time** (Definition 2).

This is the ground-truth reference that the paper's distributed algorithms
(Algorithms 1 and 2, and the exact variant of §3.2) are validated against.

Core fact used throughout (regular graphs; paper §3): for a fixed walk
distribution ``p`` and set size ``R``, the set minimizing
``Σ_{u∈S} |p(u) − 1/R|`` is the ``R`` nodes with the smallest
``x_u = |p(u) − 1/R|``; on a copy of ``p`` sorted ascending those nodes form
a **contiguous window**, because ``x`` is V-shaped in ``p``.  The
:class:`UniformDeviationOracle` therefore sorts ``p`` once and answers every
size query with an ``O(n)`` vectorized window scan (windows, prefix sums and
the split point at ``1/R`` are all ``numpy`` primitives).

Semantics knobs mirror the paper exactly:

* ``sizes="all"`` checks every integer ``R ≥ ⌈n/β⌉`` (pure Definition 2);
  ``sizes="grid"`` checks the algorithm's geometric grid
  ``R = n/β·(1+ε)^i`` and should be combined with ``threshold_factor=4``
  (the Lemma 3 relaxation) to reproduce Algorithm 2's stopping rule.
* ``t_schedule="all"`` scans ``t = 0, 1, 2, …`` (exact; §3.2);
  ``"doubling"`` scans ``t = 1, 2, 4, …`` (Algorithm 2; 2-approximation
  under the paper's ``τ·φ(S) = o(1)`` assumption, Lemma 4).
* ``require_source`` enforces ``s ∈ S`` (Definition 2 requires it; the
  distributed algorithm does not — both are available, default ``False`` to
  match Algorithm 2).
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

import numpy as np

from repro.constants import DEFAULT_EPS, MAX_WALK_LENGTH_FACTOR
from repro.errors import BipartiteGraphError, ConvergenceError
from repro.graphs.base import Graph
from repro.walks.distribution import distribution_trajectory

__all__ = [
    "UniformDeviationOracle",
    "best_uniform_deviation",
    "window_deviation_sums",
    "size_grid",
    "LocalMixingResult",
    "local_mixing_time",
    "graph_local_mixing_time",
    "local_mixing_profile",
    "find_witness_set",
]


def window_deviation_sums(
    sorted_p: np.ndarray, prefix: np.ndarray, length: int, c: float,
    starts: np.ndarray,
) -> np.ndarray:
    """``Σ_{j∈[i, i+length)} |sorted_p[j] − c|`` for each start ``i``, given
    the ascending-sorted distribution and its zero-led prefix sums.

    This is the one home of the split-point window formula — shared by
    :class:`UniformDeviationOracle` and the dynamic tracker's transcript
    verifier (:mod:`repro.dynamic.tracker`), whose exactness contract
    depends on both evaluating it with identical arithmetic.
    """
    k0 = int(np.searchsorted(sorted_p, c))
    k = np.clip(k0, starts, starts + length)
    below = c * (k - starts) - (prefix[k] - prefix[starts])
    above = (prefix[starts + length] - prefix[k]) - c * (length - (k - starts))
    return below + above


class UniformDeviationOracle:
    """Answers ``min_{|S|=R} Σ_{u∈S} |p(u) − 1/R|`` queries for one ``p``.

    Parameters
    ----------
    p:
        Walk distribution (1-D, non-negative).
    source:
        Optional source node; needed only for ``require_source`` queries.
    """

    def __init__(self, p: np.ndarray, source: int | None = None):
        p = np.asarray(p, dtype=np.float64)
        if p.ndim != 1:
            raise ValueError("p must be 1-D")
        self.n = p.size
        self.order = np.argsort(p, kind="stable")
        self.sorted = p[self.order]
        self.prefix = np.concatenate([[0.0], np.cumsum(self.sorted)])
        self.source = source
        if source is not None:
            # The slot in sorted order holding the source node itself
            # (stable argsort makes this well-defined among ties).
            self._src_pos = int(np.flatnonzero(self.order == source)[0])

    def _window_sums(
        self, length: int, c: float, starts: np.ndarray
    ) -> np.ndarray:
        """``Σ_{j∈[i, i+length)} |sorted[j] − c|`` for each start ``i``."""
        return window_deviation_sums(self.sorted, self.prefix, length, c, starts)

    def _best_constrained(self, R: int) -> tuple[float, str, int]:
        """Best sum over sets of size ``R`` that contain the source.

        Exact decomposition: a source-containing set is ``{s}`` plus the best
        ``R−1`` nodes among the rest; in sorted order those are either a
        window avoiding the source's slot, or a length-``R`` window through
        the slot with the slot itself removed.
        """
        n, c = self.n, 1.0 / R
        pos = self._src_pos
        x_s = abs(self.sorted[pos] - c)
        best, case, start = math.inf, "window", 0
        # Length-R windows containing the source's slot (slot counted in).
        lo, hi = max(0, pos - R + 1), min(pos, n - R)
        if hi >= lo:
            starts = np.arange(lo, hi + 1)
            sums = self._window_sums(R, c, starts)
            j = int(np.argmin(sums))
            best, case, start = float(sums[j]), "window", int(starts[j])
        if R >= 2:
            # Length-(R−1) windows avoiding the slot, plus the source term.
            L = R - 1
            pieces = []
            if pos - L >= 0:
                pieces.append(np.arange(0, pos - L + 1))
            if pos + 1 <= n - L:
                pieces.append(np.arange(pos + 1, n - L + 1))
            if pieces:
                starts = np.concatenate(pieces)
                sums = self._window_sums(L, c, starts) + x_s
                j = int(np.argmin(sums))
                if sums[j] < best:
                    best, case, start = float(sums[j]), "punctured", int(starts[j])
        elif x_s < best:
            best, case, start = x_s, "punctured", pos
        return best, case, start

    def best_sum(
        self, R: int, *, require_source: bool = False
    ) -> tuple[float, int]:
        """Return ``(min_sum, window_start)`` for set size ``R``.

        Without ``require_source``, ``window_start`` indexes :attr:`order`
        and the witness nodes are ``order[window_start : window_start + R]``.
        With it, use :meth:`witness` to materialize the set (the optimum may
        be a punctured window plus the source).
        """
        n = self.n
        if not 1 <= R <= n:
            raise ValueError(f"R={R} out of range [1, {n}]")
        if require_source:
            if self.source is None:
                raise ValueError("oracle built without a source")
            best, _case, start = self._best_constrained(R)
            return best, start
        starts = np.arange(n - R + 1)
        sums = self._window_sums(R, 1.0 / R, starts)
        j = int(np.argmin(sums))
        return float(sums[j]), int(starts[j])

    def witness(self, R: int, *, require_source: bool = False) -> np.ndarray:
        """A node set achieving :meth:`best_sum`."""
        if not require_source:
            _, start = self.best_sum(R)
            return np.sort(self.order[start : start + R].copy())
        _, case, start = self._best_constrained(R)
        if case == "window":
            # The window contains the source's own slot by construction.
            return np.sort(self.order[start : start + R].copy())
        if R == 1:
            return np.array([self.source], dtype=self.order.dtype)
        # Punctured case: a length-(R−1) window that avoids the source's
        # slot, plus the source itself.
        picks = self.order[start : start + R - 1]
        nodes = np.concatenate([picks, [self.source]])
        return np.sort(nodes)


def best_uniform_deviation(
    p: np.ndarray, R: int, *, source: int | None = None, require_source: bool = False
) -> float:
    """One-shot convenience wrapper around :class:`UniformDeviationOracle`."""
    oracle = UniformDeviationOracle(p, source=source)
    return oracle.best_sum(R, require_source=require_source)[0]


def size_grid(n: int, beta: float, grid_factor: float) -> list[int]:
    """The algorithm's set-size grid ``R = n/β, (1+ε)n/β, …, n`` (integers,
    deduplicated, always ending at ``n``)."""
    _check_knobs(beta=beta, grid_factor=grid_factor)
    growth = 1.0 + grid_factor
    if n * (growth - 1.0) <= 0.5:
        # Each step r·(growth − 1) is below n·(growth − 1) ≤ 1/2 while
        # r < n, so consecutive ceilings differ by at most 1 and the loop
        # below would hit every integer from ⌈n/β⌉ to n — and would never
        # end once 1 + grid_factor rounds to 1.  Past this bound the loop
        # runs O(n·ln β) steps (about 1.5 s at n = 1000, β = 1e300).
        return list(range(int(math.ceil(n / beta)), n + 1))
    sizes = []
    r = n / beta
    while r < n:
        sizes.append(int(math.ceil(r)))
        r *= growth
    sizes.append(n)
    return sorted(set(min(max(s, 1), n) for s in sizes))


@dataclass(frozen=True)
class LocalMixingResult:
    """Outcome of a local mixing time computation.

    Attributes
    ----------
    time:
        The (approximate or exact, per the knobs used) local mixing time.
    set_size:
        The set size ``R`` at which the stopping rule fired.
    deviation:
        The achieved ``Σ|p − 1/R|`` at that size (below the threshold).
    threshold:
        The threshold that was compared against (``ε·threshold_factor``).
    steps_checked:
        Number of walk lengths examined.
    sizes_checked:
        Total number of ``(t, R)`` checks performed.
    """

    time: int
    set_size: int
    deviation: float
    threshold: float
    steps_checked: int
    sizes_checked: int


def _is_integer(value) -> bool:
    # The exact-type test first: the ABC check costs ~10x more.
    return type(value) is int or (
        isinstance(value, numbers.Integral) and not isinstance(value, bool)
    )


#: Knob type phrase → test.  Python would quietly read a bool as an
#: integer, a float source as its floor or ``"false"`` as a true flag, so
#: every front door checks types before it reads a value.
_KINDS = {
    "an integer": _is_integer,
    "a finite real number": lambda v: type(v) is float or (
        isinstance(v, numbers.Real) and not isinstance(v, bool)
    ),
    "a bool": lambda v: type(v) is bool,
    "a string": lambda v: isinstance(v, str),
    "a mode string or an iterable of integers": lambda v: isinstance(v, str)
    or (
        isinstance(v, Iterable)
        and not isinstance(v, Mapping)
        and all(map(_is_integer, v))
    ),
}

#: The one table of τ knob rules (Definition 2: β ≥ 1, ε ∈ (0,1), a source
#: node, set sizes in [1, n]; Definition 1 adds the search ``method``):
#: ``name → (kind, range test, message)``.
#: Ranges that need the graph (source and explicit sizes against ``n``,
#: the sizes mode) are checked by :func:`_candidate_sizes` and the
#: drivers' source normalization.
_KNOB_RULES = {
    "source": ("an integer", None, None),
    "beta": ("a finite real number", lambda v: v >= 1,
             "beta must be >= 1 (sets of size at least n/beta)"),
    "eps": ("a finite real number", lambda v: 0 < v < 1,
            "eps must be in (0,1)"),
    "sizes": ("a mode string or an iterable of integers", None, None),
    "threshold_factor": ("a finite real number", lambda v: v > 0,
                         "threshold_factor must be positive"),
    "grid_factor": ("a finite real number", lambda v: v > 0,
                    "grid_factor must be positive"),
    "t_schedule": ("a string", lambda v: v in ("all", "doubling"),
                   "unknown t_schedule {!r}"),
    "t_max": ("an integer", lambda v: v >= 0, "t_max must be non-negative"),
    "lazy": ("a bool", None, None),
    "require_source": ("a bool", None, None),
    "batch_size": ("an integer", lambda v: v >= 1, "batch_size must be >= 1"),
    "deadline": ("a finite real number", None, None),
    "method": ("a string", lambda v: v in ("auto", "iterative", "spectral"),
               "unknown method {!r}"),
}

#: Knobs for which ``None`` means "the default" and passes every rule.
_OPTIONAL_KNOBS = frozenset({"grid_factor", "t_max", "batch_size", "deadline"})


def _check_knob_type(name: str, value) -> None:
    """Raise ``TypeError`` unless ``value`` has knob ``name``'s kind, and
    ``ValueError`` when a real knob is not finite."""
    if value is None and name in _OPTIONAL_KNOBS:
        return
    kind = _KNOB_RULES[name][0]
    if not _KINDS[kind](value):
        raise TypeError(f"{name} must be {kind}, got {value!r:.60}")
    if kind == "a finite real number":
        try:
            finite = math.isfinite(value)
        except OverflowError:  # an integer past the double range
            finite = False
        if not finite:
            raise ValueError(f"{name} must be finite, got {value!r:.60}")


def _check_knob_types(**knobs) -> None:
    """The type half of :data:`_KNOB_RULES`, for checks made before a
    graph is known (a query object at construction)."""
    for name, value in knobs.items():
        _check_knob_type(name, value)


def _check_knobs(**knobs) -> None:
    """Each knob's type, then its graph-free range (:data:`_KNOB_RULES`)."""
    for name, value in knobs.items():
        _check_knob_type(name, value)
        _, in_range, message = _KNOB_RULES[name]
        if in_range is not None and value is not None and not in_range(value):
            raise ValueError(message.format(value))


def _candidate_sizes(n: int, beta: float, sizes, grid_factor: float) -> list[int]:
    if isinstance(sizes, str):
        if sizes == "all":
            return list(range(int(math.ceil(n / beta)), n + 1))
        if sizes == "grid":
            return size_grid(n, beta, grid_factor)
        raise ValueError(f"unknown sizes mode {sizes!r}")
    out = sorted(set(int(s) for s in sizes))
    if not out or out[0] < 1 or out[-1] > n:
        raise ValueError("explicit sizes out of range")
    return out


def _spectrum_sizes(
    n: int, eps: float, sizes, grid_factor, **knobs
) -> list[int]:
    """Shared knob head of the spectrum functions: checks ``knobs`` too,
    and returns the explicit ``sizes`` or (``None``) the geometric grid
    over ``[1, n]``."""
    sizes = "grid" if sizes is None else sizes
    _check_knobs(eps=eps, sizes=sizes, grid_factor=grid_factor, **knobs)
    return _candidate_sizes(
        n, n, sizes, eps if grid_factor is None else grid_factor
    )


def _resolve_walk_bounds(g: Graph, lazy: bool, t_max: int | None) -> int:
    """Shared preconditions for walk-length searches (Definitions 1 and 2,
    centralized and the batch engine), run after the knob table: the graph must be connected
    and, unless the walk is lazy, non-bipartite; returns ``t_max`` with
    the ``O(n³)`` default applied."""
    g.require_connected()
    if not lazy and g.is_bipartite:
        raise BipartiteGraphError(
            f"{g.name} is bipartite; pass lazy=True for a well-defined walk"
        )
    return MAX_WALK_LENGTH_FACTOR * g.n**3 if t_max is None else t_max


def _t_iter(schedule: str, t_max: int):
    if schedule == "all":
        t = 0
        while t <= t_max:
            yield t
            t += 1
    else:  # "doubling"; the knob table has rejected anything else
        t = 1
        while t <= t_max:
            yield t
            t *= 2


def local_mixing_time(
    g: Graph,
    source: int,
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
) -> LocalMixingResult:
    """Centralized local mixing time ``τ_s(β, ε)`` (Definition 2).

    Default knobs give the *exact* value: every integer set size, every
    walk length, threshold ``ε``, and the uniform target ``1/R`` on every
    graph (the paper states Definition 2 for regular graphs; see
    docs/paper_map.md).  To reproduce Algorithm 2's stopping rule
    exactly, use ``sizes="grid", threshold_factor=4,
    t_schedule="doubling"``.  The batched engine
    (:func:`~repro.engine.batch.batched_local_mixing_times`) returns
    per-source results identical to this loop.
    """
    _check_knobs(
        source=source, beta=beta, eps=eps, sizes=sizes,
        threshold_factor=threshold_factor, grid_factor=grid_factor,
        t_schedule=t_schedule, t_max=t_max, lazy=lazy,
        require_source=require_source,
    )
    if not 0 <= source < g.n:
        raise ValueError("source out of range")
    t_max = _resolve_walk_bounds(g, lazy, t_max)
    grid_factor = eps if grid_factor is None else grid_factor
    candidates = _candidate_sizes(g.n, beta, sizes, grid_factor)
    threshold = eps * threshold_factor

    schedule = _t_iter(t_schedule, t_max)
    target_t = next(schedule, None)
    steps = 0
    checks = 0
    for t, p in distribution_trajectory(g, source, lazy=lazy, t_max=t_max):
        if target_t is None:
            break
        if t < target_t:
            continue
        target_t = next(schedule, None)
        steps += 1
        oracle = UniformDeviationOracle(p, source=source)
        for R in candidates:
            checks += 1
            s, _ = oracle.best_sum(R, require_source=require_source)
            if s < threshold:
                return LocalMixingResult(
                    time=t,
                    set_size=R,
                    deviation=s,
                    threshold=threshold,
                    steps_checked=steps,
                    sizes_checked=checks,
                )
    raise ConvergenceError(
        f"no local mixing found up to t_max={t_max} "
        f"(beta={beta}, eps={eps}, threshold={threshold})",
        last_length=t_max,
    )


def graph_local_mixing_time(
    g: Graph,
    beta: float,
    eps: float = DEFAULT_EPS,
    *,
    sources=None,
    **kwargs,
) -> int:
    """``τ(β,ε) = max_v τ_v(β,ε)`` — optionally over a sample of sources
    (the paper notes a full pass costs an ``O(n)`` factor; sampling is
    appropriate when local mixing times are homogeneous).

    The maximum of one
    :func:`~repro.engine.batch.batched_local_mixing_times` call, which
    ``kwargs`` are forwarded to: one block trajectory and one batched
    screen replace the per-source loop, with per-source outputs identical
    to :func:`local_mixing_time` for every knob combination,
    ``require_source=True`` included.  For a
    sharded solve, take the maximum of
    :func:`~repro.parallel.api.parallel_local_mixing_times`."""
    from repro.engine import batched_local_mixing_times

    results = batched_local_mixing_times(
        g, beta, eps, sources=sources, **kwargs
    )
    return max(r.time for r in results)


def local_mixing_profile(
    g: Graph,
    source: int,
    beta: float,
    *,
    sizes: str | list[int] = "all",
    grid_factor: float = DEFAULT_EPS,
    t_max: int = 100,
    lazy: bool = False,
    require_source: bool = False,
) -> np.ndarray:
    """The best achievable deviation ``min_R min_S Σ|p_t − 1/R|`` for each
    ``t = 0..t_max`` — used to demonstrate the *non-monotonicity* of the
    restricted deviation (paper §3 remark before Lemma 4).

    Runs on the batched engine
    (:func:`repro.engine.batched_local_mixing_profiles` with a single
    column, bitwise identical to the trajectory loop) for every knob
    combination, including the source-containment constraint
    (``require_source=True``), which the engine evaluates with the exact
    constrained single-source arithmetic on the shared block trajectory.
    """
    from repro.engine import batched_local_mixing_profiles

    return batched_local_mixing_profiles(
        g,
        beta,
        sources=[source],
        sizes=sizes,
        grid_factor=grid_factor,
        t_max=t_max,
        lazy=lazy,
        require_source=require_source,
    )[0]


def local_mixing_spectrum(
    g: Graph,
    source: int,
    eps: float = DEFAULT_EPS,
    *,
    sizes: list[int] | None = None,
    grid_factor: float | None = None,
    t_max: int | None = None,
    lazy: bool = False,
    require_source: bool = False,
) -> dict[int, int | float]:
    """The full local-mixing *spectrum*: for each candidate set size ``R``,
    the first time ``t`` with ``min_{|S|=R} Σ|p_t − 1/R| < ε``.

    This generalizes the single-β query: ``τ_s(β,ε)`` is the minimum of the
    spectrum over ``R ≥ n/β`` (since Definition 2 minimizes over all sets
    of size *at least* ``n/β``).  Sizes that never mix within ``t_max``
    map to ``math.inf``.

    Default sizes: the geometric grid over the full range ``[1, n]``.
    """
    sizes = _spectrum_sizes(
        g.n, eps, sizes, grid_factor, source=source, t_max=t_max, lazy=lazy,
        require_source=require_source,
    )
    t_max = _resolve_walk_bounds(g, lazy, t_max)
    unresolved = set(sizes)
    out: dict[int, int | float] = {}
    for t, p in distribution_trajectory(g, source, lazy=lazy, t_max=t_max):
        if not unresolved:
            break
        oracle = UniformDeviationOracle(p, source=source)
        for R in sorted(unresolved):
            s, _ = oracle.best_sum(R, require_source=require_source)
            if s < eps:
                out[R] = t
                unresolved.discard(R)
    for R in unresolved:
        out[R] = math.inf
    return out


def find_witness_set(
    g: Graph,
    source: int,
    beta: float,
    eps: float = DEFAULT_EPS,
    *,
    lazy: bool = False,
    **kwargs,
) -> tuple[LocalMixingResult, np.ndarray]:
    """Compute the local mixing time and return the witness set ``S`` the
    stopping rule fired on (needed by the Lemma 4 experiment, which tracks
    how much probability escapes ``S`` between ``ℓ`` and ``2ℓ``)."""
    res = local_mixing_time(g, source, beta, eps, lazy=lazy, **kwargs)
    from repro.walks.distribution import distribution_at

    p = distribution_at(g, source, res.time, lazy=lazy)
    oracle = UniformDeviationOracle(p, source=source)
    nodes = oracle.witness(
        res.set_size, require_source=kwargs.get("require_source", False)
    )
    return res, nodes
