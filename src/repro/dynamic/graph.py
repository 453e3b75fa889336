"""Mutable edge-set overlay over the immutable CSR :class:`Graph`.

The library's :class:`~repro.graphs.base.Graph` is deliberately immutable —
every algorithm, cache and hash relies on that.  Dynamic-network workloads
("Fast Distributed Computation in Dynamic Networks via Random Walks", Das
Sarma–Molla–Pandurangan) instead evolve a topology round by round, so the
:class:`DynamicGraph` keeps the live edge set in adjacency-set form, applies
``O(1)`` edge updates, and materializes an immutable CSR snapshot on demand.

Snapshots are *structurally memoized*: :meth:`DynamicGraph.snapshot` returns
the **same** :class:`Graph` object whenever the edge set matches a recently
materialized structure (graphs hash by their CSR arrays, so an
add-then-remove round trip lands back on the earlier instance).  Downstream
per-graph caches — ``Graph``'s own ``cached_property`` bits, and for
global-mixing-time calls the engine's
:func:`~repro.engine.propagator.shared_spectral_propagator` eigenbasis
cache (τ computations never fill it) — therefore hit on unchanged or
revisited structures and are naturally invalidated (by keying to a new
object) on changed ones.

Node churn is supported via :meth:`add_node` / :meth:`remove_node`.  Nodes
are always the contiguous integers ``0..n-1`` (a :class:`Graph` invariant),
so removal relabels the last node into the freed slot and reports the move —
the *swap-with-last* convention schedule generators and trackers follow.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.errors import GraphError
from repro.graphs.base import Graph

__all__ = ["DynamicGraph", "GraphUpdate"]


@dataclass(frozen=True)
class GraphUpdate:
    """One topology event, applied via :meth:`DynamicGraph.apply`.

    Kinds
    -----
    ``"add"``
        Insert edge ``(u, v)``.
    ``"remove"``
        Delete edge ``(u, v)``.
    ``"rewire"``
        Replace edge ``(u, v)`` by ``(u, w)`` atomically.
    ``"join"``
        Add a new node (label ``n``) attached to ``neighbors``.
    ``"leave"``
        Remove node ``u`` (the last node is relabelled into its slot).
    """

    kind: str
    u: int | None = None
    v: int | None = None
    w: int | None = None
    neighbors: tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.kind not in ("add", "remove", "rewire", "join", "leave"):
            raise ValueError(f"unknown update kind {self.kind!r}")


#: How many distinct materialized structures a DynamicGraph remembers for
#: snapshot reuse (each entry is one immutable Graph).
_STRUCTURE_MEMO_SIZE = 16


class DynamicGraph:
    """A mutable, undirected, simple graph with cheap immutable snapshots.

    Parameters
    ----------
    base:
        Either a :class:`Graph` to copy the initial topology from, or an
        integer node count for an initially empty graph.
    name:
        Used in snapshot names (``"<name>@v<version>"``).
    """

    def __init__(self, base: Graph | int, *, name: str | None = None):
        if isinstance(base, Graph):
            self._n = base.n
            self._adj: list[set[int]] = [
                set(base.neighbors(u).tolist()) for u in range(base.n)
            ]
            self._m = base.m
            self.name = name or f"dyn({base.name})"
        else:
            n = int(base)
            if n <= 0:
                raise GraphError(f"graph must have at least one node, got n={n}")
            self._n = n
            self._adj = [set() for _ in range(n)]
            self._m = 0
            self.name = name or f"dyn(n={n})"
        self._version = 0
        self._snapshot: Graph | None = None
        self._snapshot_version = -1
        self._built: OrderedDict[Graph, Graph] = OrderedDict()
        if isinstance(base, Graph):
            # Seed the structure memo so a round trip back to the base
            # topology reuses the original object (and its caches).
            self._built[base] = base
            self._snapshot = base
            self._snapshot_version = 0

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #

    @property
    def n(self) -> int:
        """Number of nodes."""
        return self._n

    @property
    def m(self) -> int:
        """Number of (undirected) edges."""
        return self._m

    @property
    def version(self) -> int:
        """Monotone counter bumped by every mutation."""
        return self._version

    def degree(self, u: int) -> int:
        """Degree of node ``u``."""
        self._check_node(u)
        return len(self._adj[u])

    def neighbors(self, u: int) -> np.ndarray:
        """Sorted neighbor array of node ``u`` (a fresh array)."""
        self._check_node(u)
        return np.fromiter(sorted(self._adj[u]), dtype=np.int64)

    def has_edge(self, u: int, v: int) -> bool:
        """``True`` iff ``{u, v}`` is currently an edge."""
        self._check_node(u)
        self._check_node(v)
        return v in self._adj[u]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate undirected edges as ``(u, v)`` with ``u < v``."""
        for u in range(self._n):
            for v in sorted(self._adj[u]):
                if u < v:
                    yield (u, v)

    def __len__(self) -> int:
        return self._n

    def __repr__(self) -> str:
        return (
            f"DynamicGraph(name={self.name!r}, n={self._n}, m={self._m}, "
            f"version={self._version})"
        )

    # ------------------------------------------------------------------ #
    # Mutations
    # ------------------------------------------------------------------ #

    def _check_node(self, u) -> None:
        if not isinstance(u, (int, np.integer)) or not 0 <= u < self._n:
            raise GraphError(f"node {u!r} out of range [0, {self._n})")

    def _touch(self) -> None:
        self._version += 1

    def add_edge(self, u: int, v: int) -> None:
        """Insert edge ``{u, v}`` (must not exist; no self-loops)."""
        self._check_node(u)
        self._check_node(v)
        if u == v:
            raise GraphError("self-loops are not allowed")
        if v in self._adj[u]:
            raise GraphError(f"edge ({u}, {v}) already present")
        self._adj[u].add(v)
        self._adj[v].add(u)
        self._m += 1
        self._touch()

    def remove_edge(self, u: int, v: int) -> None:
        """Delete edge ``{u, v}`` (must exist)."""
        self._check_node(u)
        self._check_node(v)
        if v not in self._adj[u]:
            raise GraphError(f"edge ({u}, {v}) not present")
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        self._m -= 1
        self._touch()

    def rewire(self, u: int, v: int, w: int) -> None:
        """Atomically replace edge ``{u, v}`` by ``{u, w}``.

        The classic dynamic-network primitive (degree of ``u`` is
        preserved); validation happens before either half executes, so a
        failed rewire leaves the graph untouched.
        """
        self._check_node(u)
        self._check_node(v)
        self._check_node(w)
        if v not in self._adj[u]:
            raise GraphError(f"edge ({u}, {v}) not present")
        if w == u:
            raise GraphError("self-loops are not allowed")
        if w == v:
            raise GraphError("rewire target equals the removed endpoint")
        if w in self._adj[u]:
            raise GraphError(f"edge ({u}, {w}) already present")
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        self._adj[u].add(w)
        self._adj[w].add(u)
        self._touch()

    def add_node(self, neighbors=()) -> int:
        """Node join: append node ``n`` attached to ``neighbors``; returns
        the new node's label."""
        nbrs = sorted(set(int(x) for x in neighbors))
        if nbrs and (nbrs[0] < 0 or nbrs[-1] >= self._n):
            raise GraphError("join neighbor out of range")
        new = self._n
        self._adj.append(set(nbrs))
        for w in nbrs:
            self._adj[w].add(new)
        self._n += 1
        self._m += len(nbrs)
        self._touch()
        return new

    def remove_node(self, u: int) -> int | None:
        """Node leave: drop ``u`` and its incident edges.

        Labels must stay contiguous, so the last node (``n-1``) is
        relabelled into slot ``u``; returns the moved label (``n-1``) or
        ``None`` when ``u`` *was* the last node.
        """
        self._check_node(u)
        if self._n == 1:
            raise GraphError("graph must keep at least one node")
        for w in self._adj[u]:
            self._adj[w].discard(u)
        self._m -= len(self._adj[u])
        self._adj[u] = set()
        last = self._n - 1
        moved = None
        if u != last:
            for w in self._adj[last]:
                self._adj[w].discard(last)
                self._adj[w].add(u)
            self._adj[u] = self._adj[last]
            moved = last
        self._adj.pop()
        self._n -= 1
        self._touch()
        return moved

    def apply(self, update: GraphUpdate) -> None:
        """Apply one :class:`GraphUpdate` (dispatch on ``kind``)."""
        if update.kind == "add":
            self.add_edge(update.u, update.v)
        elif update.kind == "remove":
            self.remove_edge(update.u, update.v)
        elif update.kind == "rewire":
            self.rewire(update.u, update.v, update.w)
        elif update.kind == "join":
            self.add_node(update.neighbors)
        elif update.kind == "leave":
            self.remove_node(update.u)
        else:  # pragma: no cover - guarded by GraphUpdate.__post_init__
            raise ValueError(f"unknown update kind {update.kind!r}")

    # ------------------------------------------------------------------ #
    # Snapshots
    # ------------------------------------------------------------------ #

    def snapshot(self) -> Graph:
        """The current topology as an immutable :class:`Graph`.

        ``O(n + m)`` on first materialization of a structure; unchanged (or
        structurally revisited) states return the previously built object so
        per-graph caches downstream keep hitting.
        """
        if self._snapshot is not None and self._snapshot_version == self._version:
            return self._snapshot
        n = self._n
        degrees = np.fromiter(
            (len(nbrs) for nbrs in self._adj), dtype=np.int64, count=n
        )
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        indices = np.empty(int(indptr[-1]), dtype=np.int64)
        for u, nbrs in enumerate(self._adj):
            indices[indptr[u] : indptr[u + 1]] = sorted(nbrs)
        g = Graph.from_csr(
            indptr,
            indices,
            name=f"{self.name}@v{self._version}",
            validate=False,
        )
        cached = self._built.get(g)
        if cached is not None:
            self._built.move_to_end(g)
            g = cached
        else:
            self._built[g] = g
            while len(self._built) > _STRUCTURE_MEMO_SIZE:
                self._built.popitem(last=False)
        self._snapshot = g
        self._snapshot_version = self._version
        return g
