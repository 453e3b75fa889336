"""Seeded inputs of the two serving workloads.

* The **hot graph**: a registered ``random_regular(2000, 8)`` whose
  canonical key is O(n) to derive, queried at beta = 4 over a hot set of
  64 sources that set-up prefills into the result cache (one coalesced
  engine call: the service's default ``max_batch``).
* The **dynamic graph** (``service_hits`` only): a ring of 8 random
  8-regular blocks of 25 nodes.  One edge of each block is cut and its
  ends are bridged to the neighbouring blocks, so every node keeps degree
  8 and the walk target stays uniform.  Queried at beta = 8, eps = 0.25,
  a walk mixes inside its block in about four steps, so an edit in one
  block leaves far blocks' answers provably clean (carried forward) and
  dirties the rest.
* The **edit stream**: degree-preserving double-edge swaps inside one
  block, ``(a, b), (c, d) -> (a, d), (c, b)``, each checked to keep its
  block connected (on the benchmark's own adjacency copy, in about 40 us,
  outside every timed query).
"""

from __future__ import annotations

import random

HOT_N, HOT_D, HOT_BETA, HOT_SET = 2000, 8, 4.0, 64
DYN_BLOCKS, DYN_BLOCK, DYN_D = 8, 25, 8
DYN_KNOBS = {"beta": 8.0, "eps": 0.25}


def hot_graph(seed: int):
    from repro.graphs import random_regular

    return random_regular(HOT_N, HOT_D, seed=seed)


def hot_sources(seed: int) -> list[int]:
    return sorted(random.Random(seed).sample(range(HOT_N), HOT_SET))


def hot_query(source: int, **extra):
    from repro.service import MixingQuery

    return MixingQuery("hot", int(source), beta=HOT_BETA, **extra)


def dyn_query(source: int):
    from repro.service import MixingQuery

    return MixingQuery("dyn", int(source), **DYN_KNOBS)


def dynamic_base(seed: int):
    """The ring of regular blocks (see the module docstring)."""
    import numpy as np

    from repro.graphs import random_regular
    from repro.graphs.base import Graph

    rng = np.random.default_rng(seed)
    k = DYN_BLOCK
    edges, cuts = [], []
    for b in range(DYN_BLOCKS):
        block = sorted(random_regular(k, DYN_D, seed=rng).edges())
        cut = block[int(rng.integers(len(block)))]
        edges += [(b * k + u, b * k + v) for u, v in block if (u, v) != cut]
        cuts.append((b * k + cut[0], b * k + cut[1]))
    for b in range(DYN_BLOCKS):
        edges.append((cuts[b][1], cuts[(b + 1) % DYN_BLOCKS][0]))
    return Graph(DYN_BLOCKS * k, edges, name="ring_of_blocks")


def _block_connected(adj, lo: int, hi: int) -> bool:
    seen, stack = {lo}, [lo]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if lo <= v < hi and v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == hi - lo


def edit_stream(base, seed: int):
    """Endless in-block swaps ``(a, b, c, d)``, to be applied in order to
    ``base``; each keeps every degree and its block connected."""
    rng = random.Random(seed)
    adj = [set(base.neighbors(u).tolist()) for u in range(base.n)]
    k = DYN_BLOCK
    while True:
        lo = rng.randrange(DYN_BLOCKS) * k
        hi = lo + k
        a, c = rng.sample(range(lo, hi), 2)
        inner_a = [v for v in adj[a] if lo <= v < hi]
        inner_c = [v for v in adj[c] if lo <= v < hi]
        b, d = rng.choice(inner_a), rng.choice(inner_c)
        if len({a, b, c, d}) < 4 or d in adj[a] or b in adj[c]:
            continue
        for u, v, w in ((a, b, d), (c, d, b)):
            adj[u].discard(v)
            adj[v].discard(u)
            adj[u].add(w)
            adj[w].add(u)
        if not _block_connected(adj, lo, hi):
            for u, v, w in ((c, d, b), (a, b, d)):
                adj[u].discard(w)
                adj[w].discard(u)
                adj[u].add(v)
                adj[v].add(u)
            continue
        yield a, b, c, d


def apply_edit(dg, edit) -> None:
    """Apply one swap to a ``DynamicGraph`` as two ``rewire`` calls
    (the snapshot between them is never taken)."""
    a, b, c, d = edit
    dg.rewire(a, b, d)
    dg.rewire(c, d, b)
