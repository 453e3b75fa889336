"""T2 — §2.3(c): log–log slope fits on the path family.

Claim: τ_mix = Θ(n²) and τ_local = Θ(n²/β²) (fixed β ⇒ both slope ≈ 2, with
the local curve shifted down by ≈ β²).  Measured with the lazy walk at
ε = 0.4 (deviation D2 in EXPERIMENTS.md explains the ε choice).
"""

from repro.engine import batched_local_mixing_times, batched_mixing_times
from repro.graphs import path_graph
from repro.utils import format_table, loglog_slope

EPS = 0.4
BETA = 8
SIZES = (48, 96, 192, 384)


def run_sweep():
    # Both measurements per size ride the batched engine (identical to the
    # per-source calls).
    rows = []
    for n in SIZES:
        g = path_graph(n)
        tm = batched_mixing_times(g, EPS, sources=[n // 2], lazy=True)[0]
        tl = batched_local_mixing_times(
            g, BETA, EPS, sources=[n // 2], lazy=True
        )[0].time
        rows.append([n, tm, tl, tm / max(tl, 1)])
    return rows


def test_t2_path_scaling(benchmark, record_table):
    rows = benchmark.pedantic(run_sweep, iterations=1, rounds=1)
    ns = [r[0] for r in rows]
    fit_mix = loglog_slope(ns, [r[1] for r in rows])
    fit_loc = loglog_slope(ns, [r[2] for r in rows])
    assert 1.6 <= fit_mix.exponent <= 2.4, "tau_mix should be ~ n^2"
    assert 1.5 <= fit_loc.exponent <= 2.5, "tau_local should be ~ n^2 (fixed beta)"
    table = format_table(
        ["n", "tau_mix", f"tau_local(b={BETA})", "ratio"],
        rows,
        title=(
            "T2: path scaling (lazy walk, eps=0.4) — fitted exponents: "
            f"mix {fit_mix.exponent:.2f} (claim 2), "
            f"local {fit_loc.exponent:.2f} (claim 2); "
            f"mean ratio {sum(r[3] for r in rows)/len(rows):.0f} "
            f"(claim ~b^2 = {BETA**2})"
        ),
    )
    record_table("t2_path_scaling", table)
