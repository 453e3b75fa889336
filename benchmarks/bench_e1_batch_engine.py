"""E1 — the batched multi-source walk engine vs the seed per-source loop.

Claim (engine subsystem): computing ``τ(β,ε) = max_v τ_v(β,ε)`` over *all*
sources of a ~400-node regular graph is ≥ 5× faster on the batch engine
(one block trajectory, one fused search-free ``deviation_lower_bounds``
screen per step, exact verification of flagged pairs) than the seed
per-source loop, with **identical** per-source results — same times, set
sizes, bitwise-equal deviations and bookkeeping counters.

Quick mode (``REPRO_BENCH_QUICK=1``, the CI smoke) shrinks the instance and
only asserts exactness plus a nominal speedup, since shared runners time
unreliably.
"""

from repro.engine import batched_local_mixing_times
from repro.graphs import random_regular
from repro.obs import BenchReporter
from repro.utils import format_table
from repro.walks import local_mixing_time

BETA = 4


def run_compare(n: int, d: int, seed: int = 1, reporter=None):
    rep = reporter if reporter is not None else BenchReporter("e1")
    g = random_regular(n, d, seed=seed)
    with rep.section("batch"):
        batch = batched_local_mixing_times(g, BETA)
    with rep.section("loop"):
        loop = [local_mixing_time(g, s, BETA) for s in range(g.n)]
    return g, batch, loop, rep


def test_e1_batch_engine(record_table, quick_mode):
    n, d = (120, 6) if quick_mode else (400, 8)
    rep = BenchReporter("e1_batch_engine")
    g, batch, loop, _ = run_compare(n, d, reporter=rep)
    t_batch = rep.seconds("batch")
    t_loop = rep.seconds("loop")

    # Identical per-source outputs (LocalMixingResult equality covers time,
    # set_size, bitwise deviation, threshold and both counters).
    assert batch == loop

    speedup = t_loop / t_batch
    assert speedup >= (1.5 if quick_mode else 5.0), (
        f"batch engine speedup {speedup:.1f}x below target "
        f"(loop {t_loop:.2f}s, engine {t_batch:.2f}s)"
    )

    tau = max(r.time for r in batch)
    table = format_table(
        ["n", "d", "sources", "tau(beta=4)", "loop s", "engine s",
         "vs loop"],
        [[g.n, d, g.n, tau, f"{t_loop:.2f}", f"{t_batch:.2f}",
          f"{speedup:.1f}x"]],
        title=(
            "E1: batched multi-source engine vs the seed per-source loop "
            "(identical per-source results asserted)"
        ),
    )
    record_table("e1_batch_engine", table, metrics=rep.snapshot())
