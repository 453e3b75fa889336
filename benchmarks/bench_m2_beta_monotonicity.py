"""M2 — §2.3 first remark: τ_s(β,ε) is non-increasing in β (larger β allows
smaller sets, which can only mix sooner)."""

from repro.graphs import generators as gen
from repro.utils import format_table
from repro.walks import local_mixing_time


def run_all():
    rows = []
    cases = [
        ("barbell(8,16)", gen.beta_barbell(8, 16), (1, 2, 4, 8), 0.25, False),
        ("expander(128)", gen.random_regular(128, 8, seed=12), (1, 2, 4, 8),
         0.25, False),
        ("path(96)", gen.path_graph(96), (2, 4, 8), 0.4, True),
    ]
    for name, g, betas, eps, lazy in cases:
        times = [
            local_mixing_time(g, g.n // 2, beta=b, eps=eps, lazy=lazy).time
            for b in betas
        ]
        rows.append([name, eps] + times + [times == sorted(times, reverse=True)])
    return rows


def test_m2_beta_monotonicity(benchmark, record_table):
    rows = benchmark.pedantic(run_all, iterations=1, rounds=1)
    for r in rows:
        assert r[-1], f"beta-monotonicity violated on {r[0]}"
    # rows have different beta grids; render generically
    table = format_table(
        ["graph", "eps", "tau(b1)", "tau(b2)", "tau(b3)", "tau(b4)/ok",
         "monotone"],
        [r if len(r) == 7 else r[:5] + ["-"] + r[5:] for r in rows],
        title="M2: beta-monotonicity of the local mixing time",
    )
    record_table("m2_beta_monotonicity", table)
