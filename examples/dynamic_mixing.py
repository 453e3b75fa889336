#!/usr/bin/env python
"""Local mixing on an evolving network, tracked incrementally.

The paper computes tau_s(beta, eps) on a static graph; the dynamic-network
line of work (Das Sarma-Molla-Pandurangan) asks what happens when the
topology changes round by round.  This demo runs the Figure-1 beta-barbell
through two kinds of churn and tracks the full tau-spectrum after every
event with the incremental MixingTracker (results are identical to a
from-scratch batched run on every snapshot; tests/test_dynamic_tracker.py
asserts it).

Two regimes, two lessons:

1. **Bridge oscillation** (shortcut edges between cliques flap on and off):
   tau(beta, eps) does not move at all.  Local mixing happens inside the
   home clique, so inter-clique surgery is invisible to it -- the dynamic
   version of the paper's Section 2.3(d) contrast, where global mixing
   would swing by orders of magnitude.  The tracker answers flapped-back
   snapshots straight from its structural memo and re-solves only a
   handful of sources otherwise.

2. **Cross-clique churn** (rewires that pull single edges across the
   bridge): tau inflates by two orders of magnitude for the rewired
   sources, whose neighborhood now straddles the cliques.  Watching tau
   drift per event is exactly the monitoring workload the tracker exists
   for.

Run:  python examples/dynamic_mixing.py
"""

from repro.analysis.temporal import summarize_trace, trace_rows
from repro.dynamic import barbell_bridge_schedule, track_local_mixing
from repro.utils import format_table

BETA, CLIQUE = 4, 25


def show_trace(trace, title: str) -> None:
    rows = [
        [
            r["event"],
            r["update"],
            r["m"],
            r["tau_max"],
            f"{r['tau_mean']:.2f}",
            r["solved"],
            r["reused"],
            "memo" if r["memo_hit"] else "",
        ]
        for r in trace_rows(trace)
    ]
    print(format_table(
        ["event", "update", "m", "tau_max", "tau_mean", "solved", "reused",
         ""],
        rows,
        title=title,
    ))
    s = summarize_trace(trace)
    print(
        f"tau in [{s['tau_min']}, {s['tau_max']}]; re-solved "
        f"{s['solved_sources']}/{s['solved_sources'] + s['reused_sources']} "
        f"source queries ({s['solved_fraction']:.1%}), "
        f"{s['memo_hits']} structural-memo snapshot hits\n"
    )


def main() -> None:
    base, flapping = barbell_bridge_schedule(
        BETA, CLIQUE, cycles=4, hold=0, seed=7
    )
    print(f"base graph: {base.name} (n={base.n}, m={base.m})\n")

    trace = track_local_mixing(base, flapping, beta=BETA, t_max=4000)
    show_trace(
        trace,
        f"regime 1 -- bridge flapping: tau(beta={BETA}) is clique-local "
        "and does not move",
    )

    _, churn = barbell_bridge_schedule(BETA, CLIQUE, cycles=3, hold=3, seed=7)
    trace2 = track_local_mixing(base, churn, beta=BETA, t_max=4000)
    show_trace(
        trace2,
        "regime 2 -- cross-clique churn: rewired sources leak across the "
        "bridge and tau inflates",
    )

    print(
        "reading: in regime 1 every snapshot keeps tau at its O(1) "
        "clique-mixing value, and\nthe tracker barely works (bridge "
        "endpoints aside, every source's old tau keeps the\nedit outside "
        "its walk horizon; flapped-back topologies come from the memo).\n"
        "In regime 2 a rewired source keeps one neighbor in the far "
        "clique: its walk mass\nsplits across the bridge and tau_max jumps\n"
        "by two orders of magnitude; every snapshot still equals a "
        "from-scratch batched run."
    )


if __name__ == "__main__":
    main()
