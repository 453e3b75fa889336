"""T3 — §2.3(d): barbell sweep over β with fixed clique size.

Claim: τ_mix = Ω(β²) while τ_local stays O(1); for β = √n the gap is Θ(n).
"""

from repro.constants import DEFAULT_EPS
from repro.engine import batched_local_mixing_times, batched_mixing_times
from repro.graphs import beta_barbell
from repro.utils import format_table, loglog_slope

CLIQUE = 16
BETAS = (2, 4, 8, 16)


def run_sweep():
    # Both measurements per β ride the batched engine (identical to the
    # per-source calls).
    rows = []
    for beta in BETAS:
        g = beta_barbell(beta, CLIQUE)
        tm = batched_mixing_times(g, DEFAULT_EPS, sources=[0])[0]
        tl = batched_local_mixing_times(g, beta, sources=[0])[0].time
        rows.append([beta, g.n, tm, tl, tm / max(tl, 1)])
    return rows


def test_t3_barbell_scaling(benchmark, record_table):
    rows = benchmark.pedantic(run_sweep, iterations=1, rounds=1)
    fit = loglog_slope([r[0] for r in rows], [r[2] for r in rows])
    assert fit.exponent >= 1.5, "tau_mix must grow at least ~ beta^1.5"
    assert all(r[3] <= 3 for r in rows), "tau_local must stay O(1)"
    table = format_table(
        ["beta", "n", "tau_mix", "tau_local", "gap"],
        rows,
        title=(
            "T3: barbell sweep (clique=16) — tau_mix exponent in beta: "
            f"{fit.exponent:.2f} (claim >= 2 up to log factors); "
            "tau_local constant (claim O(1))"
        ),
    )
    record_table("t3_barbell_scaling", table)
