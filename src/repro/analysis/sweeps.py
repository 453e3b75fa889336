"""Sweep drivers shared by the benchmark harness.

A *measurement* is one graph instance boiled down to the quantities the
paper's §2.3 table compares: mixing time, local mixing time, their ratio,
and the structural parameters (n, m, diameter).  A *sweep* maps a family
over a size grid and returns rows ready for
:func:`repro.utils.tables.format_table` and for log–log slope fits.
"""

from __future__ import annotations

from typing import Sequence

from repro.constants import DEFAULT_EPS
from repro.engine import batched_local_mixing_times, batched_mixing_times
from repro.graphs.base import Graph
from repro.graphs.families import get_family
from repro.graphs.properties import estimate_diameter_two_sweep
from repro.utils.seeding import as_rng
from repro.walks.local_mixing import graph_local_mixing_time

__all__ = ["measure_graph", "family_sweep"]


def measure_graph(
    g: Graph,
    source: int,
    beta: float,
    eps: float = DEFAULT_EPS,
    *,
    lazy: bool = False,
    sizes: str = "all",
    t_max: int | None = None,
    all_sources: bool = False,
) -> dict:
    """Measure one instance: τ_mix, τ_local, ratio, and structure.

    Both quantities run on the batched engine — identical outputs to the
    per-source ``mixing_time`` / ``local_mixing_time`` calls.

    With ``all_sources=True`` the row also carries the paper's worst-case
    ``τ(β,ε) = max_v τ_v(β,ε)`` — affordable on the batched multi-source
    engine (one block trajectory for all ``n`` sources instead of ``n``
    per-source runs).
    """
    tau_mix = batched_mixing_times(
        g, eps, sources=[source], lazy=lazy, t_max=t_max
    )[0]
    tau_loc = batched_local_mixing_times(
        g, beta, eps, sources=[source], lazy=lazy, sizes=sizes, t_max=t_max
    )[0].time
    row = {
        "graph": g.name,
        "n": g.n,
        "m": g.m,
        "diameter_est": estimate_diameter_two_sweep(g),
        "source": source,
        "beta": beta,
        "eps": eps,
        "tau_mix": tau_mix,
        "tau_local": tau_loc,
        "ratio": tau_mix / max(tau_loc, 1),
    }
    if all_sources:
        row["tau_local_max"] = graph_local_mixing_time(
            g, beta, eps, lazy=lazy, sizes=sizes, t_max=t_max
        )
    return row


def _measure_item(item: tuple) -> dict:
    """Worker task for the parallel family sweep: one
    :func:`measure_graph` call, unpacked from a picklable tuple."""
    g, source, beta, eps, lazy, sizes, t_max, all_sources = item
    return measure_graph(
        g,
        source,
        beta,
        eps,
        lazy=lazy,
        sizes=sizes,
        t_max=t_max,
        all_sources=all_sources,
    )


def family_sweep(
    family_key: str,
    ns: Sequence[int],
    beta: int,
    eps: float = DEFAULT_EPS,
    *,
    seed=None,
    source: int = 0,
    sizes: str = "all",
    t_max: int | None = None,
    all_sources: bool = False,
    n_workers: int | None = None,
    executor=None,
) -> list[dict]:
    """Measure a :class:`~repro.graphs.families.GraphFamily` across sizes.

    With ``n_workers``/``executor`` the per-graph measurements fan out
    across a :class:`~repro.parallel.ShardExecutor` via
    :func:`~repro.parallel.shard_map` — instances are built up-front in the
    parent (so the RNG consumption, hence the graphs, match the serial
    sweep exactly) and each worker measures whole instances.  Every row
    equals the serial sweep's row: the measurements run on the batched
    engine, whose results are process-independent.  (Each task ships its
    own graph — the instances all differ, so there is no shared topology
    to publish.)"""
    fam = get_family(family_key)
    rng = as_rng(seed)
    graphs = [fam.build(n, beta, rng) for n in ns]
    items = [
        (g, source, beta, eps, fam.lazy, sizes, t_max, all_sources)
        for g in graphs
    ]
    if n_workers is None and executor is None:
        return [_measure_item(item) for item in items]
    from repro.parallel import shard_map

    return shard_map(
        _measure_item, items, n_workers=n_workers, executor=executor
    )
