"""T1 — §2.3 graph-class comparison (the paper's central "table").

One row per (class, n): measured τ_mix vs measured τ_local and their ratio,
against the paper's claims:

  (a) complete   — both 1;
  (b) expander   — both Θ(log n), no gap;
  (c) path       — Θ(n²) vs Θ(n²/β²)  (measured at ε = 0.4; at the paper's
                   default ε the sub-path leaks too fast to ε-mix — see
                   EXPERIMENTS.md deviation D2);
  (d) β-barbell  — Ω(β²)-ish vs O(1): the headline gap.
"""

import numpy as np

from repro.constants import DEFAULT_EPS
from repro.engine import batched_local_mixing_times, batched_mixing_times
from repro.graphs import generators as gen
from repro.utils import format_table


def measure(g, source, beta, eps, lazy=False):
    """One (τ_mix, τ_local) pair per instance — both on the batched engine
    (identical to the per-source ``mixing_time`` / ``local_mixing_time``
    calls)."""
    tm = batched_mixing_times(g, eps, sources=[source], lazy=lazy)[0]
    tl = batched_local_mixing_times(
        g, beta, eps, sources=[source], lazy=lazy
    )[0].time
    return tm, tl


def run_all():
    rows = []

    for n in (64, 128, 256):
        g = gen.complete_graph(n)
        tm, tl = measure(g, 0, 4, DEFAULT_EPS)
        rows.append(["complete(a)", n, 4, DEFAULT_EPS, tm, tl, tm / tl, "1 vs 1"])

    for n in (64, 128, 256):
        g = gen.random_regular(n, 8, seed=n)
        tm, tl = measure(g, 0, 4, DEFAULT_EPS)
        rows.append(
            ["expander(b)", n, 4, DEFAULT_EPS, tm, tl, tm / max(tl, 1),
             "log n vs log n"]
        )

    eps_path = 0.4
    for n in (64, 128, 256):
        g = gen.path_graph(n)
        tm, tl = measure(g, n // 2, 8, eps_path, lazy=True)
        rows.append(
            ["path(c)", n, 8, eps_path, tm, tl, tm / max(tl, 1),
             "n^2 vs n^2/b^2"]
        )

    for beta in (4, 8, 16):
        g = gen.beta_barbell(beta, 16)
        tm, tl = measure(g, 0, beta, DEFAULT_EPS)
        rows.append(
            ["barbell(d)", g.n, beta, DEFAULT_EPS, tm, tl, tm / max(tl, 1),
             "Omega(b^2) vs O(1)"]
        )
    return rows


def test_t1_graph_classes(benchmark, record_table):
    rows = benchmark.pedantic(run_all, iterations=1, rounds=1)
    by_class = {}
    for r in rows:
        by_class.setdefault(r[0], []).append(r)
    # (a) complete: both equal and tiny
    for r in by_class["complete(a)"]:
        assert r[4] == 1 and r[5] == 1
    # (b) expander: no substantial gap
    for r in by_class["expander(b)"]:
        assert r[6] <= 8
    # (c) path: ratio grows ~ b^2 (leaky-boundary constants allowed)
    for r in by_class["path(c)"]:
        assert r[6] >= 8
    # (d) barbell: gap explodes with beta
    gaps = [r[6] for r in by_class["barbell(d)"]]
    assert gaps[0] > 50 and gaps[-1] > gaps[0]
    table = format_table(
        ["class", "n", "beta", "eps", "tau_mix", "tau_local", "ratio",
         "paper claim"],
        rows,
        title="T1: Section 2.3 — local vs global mixing across graph classes",
    )
    record_table("t1_graph_classes", table)
