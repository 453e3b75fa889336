#!/usr/bin/env python
"""Sharded multi-core solves, same answers: the parallel subsystem demo.

The paper's headline is *distributed* computation of the local mixing
time; ``repro.parallel`` is that idea realized on one machine's cores.
This demo runs the same three workloads serial and sharded and checks —
in the script itself — that parallelism changed nothing but wall-clock:

1. **All-sources tau(beta, eps)** on a random regular graph: the serial
   batched engine (its 200 sources are one column tile, so the call runs
   inline on this thread, not on the engine's tile pool) vs
   ``parallel_local_mixing_times`` at several worker counts.  Results compare equal element-for-element (the
   loop-equivalence guarantee is worker-count independent), and each
   worker's dense block is ``n x ceil(k/W)`` instead of ``n x k``.

2. **A Monte-Carlo Algorithm-2 sweep** (`local_mixing_times_congest`):
   tie-breaking randomness is spawned per source *before* sharding, so
   the sweep with 1, 2 or 4 workers consumes identical random streams —
   reproducibility does not depend on the machine it ran on.

3. **A dynamic churn trace** with a sharded ``MixingTracker``: after each
   event the dirty-source set is re-solved in parallel shards; the tau
   trace equals from-scratch recomputation on every snapshot.

On a single-core container every speedup prints near (or below) 1x —
process scheduling cannot beat physics; the point of the demo is that the
*answers* are invariant, and that one persistent ``ShardExecutor`` (one
pool, one shared-memory publication of each topology) serves all three
workloads.

Run:  python examples/parallel_scaling.py
"""

import os
import time

from repro.algorithms import local_mixing_times_congest
from repro.dynamic import barbell_bridge_schedule, track_local_mixing
from repro.engine import batched_local_mixing_times
from repro.graphs import random_regular
from repro.parallel import ShardExecutor, parallel_local_mixing_times
from repro.utils import format_table

BETA = 4
N, D = 200, 8


def main() -> None:
    g = random_regular(N, D, seed=7)
    print(f"graph: {g.name}   host cores: {os.cpu_count()}")

    # ---- 1. all-sources tau: serial vs sharded ------------------------
    t0 = time.perf_counter()
    serial = batched_local_mixing_times(g, BETA)
    t_serial = time.perf_counter() - t0
    rows = [["serial batch", f"{t_serial:.3f}", "-", "yes (reference)"]]
    with ShardExecutor(4) as ex:
        for w in (1, 2, 4):
            t0 = time.perf_counter()
            par = parallel_local_mixing_times(
                g, BETA, executor=ex, n_workers=w
            )
            dt = time.perf_counter() - t0
            rows.append(
                [f"sharded W={w}", f"{dt:.3f}",
                 f"{t_serial / dt:.2f}x", str(par == serial)]
            )
            assert par == serial
        print(format_table(
            ["config", "wall s", "speedup", "identical results"],
            rows,
            title=f"all {g.n} sources, tau(beta={BETA})",
        ))

        # ---- 2. reproducible Monte-Carlo sweep ------------------------
        sources = list(range(0, g.n, 25))
        sweep_1 = local_mixing_times_congest(
            g, sources, BETA, seed=42, executor=ex, n_workers=1
        )
        sweep_4 = local_mixing_times_congest(
            g, sources, BETA, seed=42, executor=ex, n_workers=4
        )
        same = [r.time for r in sweep_1] == [r.time for r in sweep_4]
        print(f"\nAlgorithm-2 sweep over {len(sources)} sources, seed=42: "
              f"W=1 and W=4 identical -> {same}")
        assert same

    # ---- 3. sharded dynamic tracking ----------------------------------
    base, updates = barbell_bridge_schedule(4, 12, cycles=3, hold=1, seed=0)
    ref = track_local_mixing(
        base, updates, beta=float(BETA), eps=0.25, method="from_scratch"
    )
    par = track_local_mixing(
        base, updates, beta=float(BETA), eps=0.25, n_workers=2
    )
    same = par.tau_trace == ref.tau_trace and all(
        a.results == b.results
        for a, b in zip(par.snapshots, ref.snapshots)
    )
    print(f"\nsharded tracker over {len(updates)} churn events: "
          f"identical to from-scratch on every snapshot -> {same}")
    print(f"tracker work counters: {par.stats}")
    assert same


if __name__ == "__main__":
    main()
