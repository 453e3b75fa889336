"""D1 — incremental dynamic tracking vs per-snapshot recomputation.

Claim (dynamic subsystem): tracking ``τ(β,ε)`` over all sources across a
200-event churn trace on a 400-node β-barbell is ≥ 5× faster with the
incremental :class:`~repro.dynamic.tracker.MixingTracker` (structural memo +
locality pruning + fused bound prefilter) than recomputing every snapshot
from scratch with :func:`~repro.engine.batch.batched_local_mixing_times` —
with **identical** per-source results on every snapshot (same times, set
sizes, bitwise-equal deviations and counters).

The trace is the bridge-surgery schedule: shortcut bridges between cliques
appear, hold while cross-clique rewires churn, then vanish — the locality
pruning's worst-ish case (structures never repeat, so the memo never fires;
all the speedup is pruning + kernel).

Quick mode (``REPRO_BENCH_QUICK=1``, the CI smoke) shrinks the instance and
relaxes the timing assertion, since shared runners time unreliably.
"""

from repro.dynamic import DynamicGraph, barbell_bridge_schedule, track_local_mixing
from repro.engine import batched_local_mixing_times
from repro.obs import BenchReporter
from repro.utils import format_table

BETA = 4
T_MAX = 5000


def run_compare(
    clique_size: int, cycles: int, hold: int, seed: int = 1, reporter=None
):
    rep = reporter if reporter is not None else BenchReporter("d1")
    base, schedule = barbell_bridge_schedule(
        BETA, clique_size, cycles=cycles, hold=hold, seed=seed
    )
    with rep.section("tracker"):
        trace = track_local_mixing(base, schedule, beta=BETA, t_max=T_MAX)

    with rep.section("scratch"):
        dyn = DynamicGraph(base)
        scratch = [
            batched_local_mixing_times(dyn.snapshot(), BETA, t_max=T_MAX)
        ]
        for upd in schedule:
            dyn.apply(upd)
            scratch.append(
                batched_local_mixing_times(dyn.snapshot(), BETA, t_max=T_MAX)
            )
    return (
        base, schedule, trace, scratch,
        rep.seconds("tracker"), rep.seconds("scratch"),
    )


def test_d1_dynamic_tracking(record_table, quick_mode):
    # Quick mode flaps bridges without rewires: cross-clique rewires on a
    # small clique push τ toward the global scale (see
    # examples/dynamic_mixing.py) and the from-scratch baseline alone would
    # take minutes.
    clique, cycles, hold = (25, 8, 0) if quick_mode else (100, 25, 6)
    rep = BenchReporter("d1_dynamic_tracking")
    base, schedule, trace, scratch, t_track, t_scratch = run_compare(
        clique, cycles, hold, reporter=rep
    )

    # Identity on every snapshot of the trace (the acceptance criterion:
    # LocalMixingResult equality covers time, set_size, bitwise deviation,
    # threshold and both counters).
    assert len(trace.snapshots) == len(scratch) == len(schedule) + 1
    for snap, ref in zip(trace.snapshots, scratch):
        assert list(snap.results) == ref, f"mismatch at event {snap.index}"

    speedup = t_scratch / t_track
    assert speedup >= (1.5 if quick_mode else 5.0), (
        f"incremental tracking speedup {speedup:.1f}x below target "
        f"(from-scratch {t_scratch:.2f}s, tracker {t_track:.2f}s)"
    )

    stats = trace.stats
    total_queries = sum(s.graph.n for s in trace.snapshots)
    table = format_table(
        ["n", "events", "tau range", "solved", "reused", "memo",
         "scratch s", "tracker s", "speedup"],
        [[
            base.n,
            len(schedule),
            f"{min(trace.tau_trace)}..{max(trace.tau_trace)}",
            f"{stats['solved_sources']}/{total_queries}",
            stats["reused_sources"],
            stats["memo_hits"],
            f"{t_scratch:.2f}",
            f"{t_track:.2f}",
            f"{speedup:.1f}x",
        ]],
        title=(
            "D1: incremental MixingTracker vs per-snapshot recomputation "
            "(identical per-source results asserted on every snapshot)"
        ),
    )
    record_table("d1_dynamic_tracking", table, metrics=rep.snapshot())
