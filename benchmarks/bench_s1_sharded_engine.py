"""S1 — the sharded parallel executor vs the serial batched engine.

Claims (parallel subsystem):

1. ``parallel_local_mixing_times(..., n_workers=W)`` returns results
   **identical** — same τ, set sizes, bitwise-equal deviations, same
   bookkeeping counters — to the serial ``batched_local_mixing_times`` on
   the all-sources workload, for every tested worker count;
2. both sides propagate column tiles of at most ``_TILE_BYTES`` of block:
   the serial call holds one tile per tile thread, each worker one tile
   of its own source shard at a time (reported in the table from
   ``_tile_plan`` — a structural property of the tiling, not a
   measurement);
3. on a machine with ≥ 4 usable cores, 4 workers give ≥ 2× wall-clock on
   the 1200-node all-sources workload.  The speedup assertion is gated on
   the *schedulable* core count (CPU affinity where the OS exposes it, so
   a cgroup-limited container doesn't assert speedups its quota forbids)
   and skipped in quick mode: a single-core CI runner cannot express
   parallelism, but the identity claims still run there.

Quick mode (``REPRO_BENCH_QUICK=1``, the CI smoke) shrinks the instance
and asserts exactness plus clean teardown only.
"""

import os

from repro.engine import batched_local_mixing_times
from repro.engine.batch import _tile_plan
from repro.graphs import random_regular
from repro.obs import BenchReporter
from repro.parallel import ShardExecutor, parallel_local_mixing_times
from repro.utils import format_table

BETA = 4
WORKER_COUNTS = (1, 2, 4)


def _block_mib(k: int, n: int, threads: int | None = None) -> float:
    """MiB of walk block one process holds at once while solving ``k``
    sources: its widest column tile on each of its tile threads (one in a
    shard worker)."""
    tiles, planned = _tile_plan(k, n, None)
    width = max(hi - lo for lo, hi in tiles)
    return n * width * (threads or planned) * 8 / 2**20


def run_compare(n: int, d: int, seed: int = 1, reporter=None):
    rep = reporter if reporter is not None else BenchReporter("s1")
    g = random_regular(n, d, seed=seed)
    with rep.section("serial"):
        serial = batched_local_mixing_times(g, BETA)
    rows = []
    results = {}
    for w in WORKER_COUNTS:
        with ShardExecutor(w) as ex:
            # Warm the pool (worker spawn is setup, not solve time), then
            # zero the utilization counters so stats() attributes the
            # timed call only.
            parallel_local_mixing_times(g, BETA, sources=[0], executor=ex)
            ex.reset()
            with rep.section(f"W={w}"):
                results[w] = parallel_local_mixing_times(
                    g, BETA, executor=ex
                )
            # Utilization counters (satellite of the serving subsystem):
            # shard partition + per-worker attribution of the timed call.
            st = ex.stats()
            split = "/".join(
                str(v)
                for v in sorted(
                    st["per_worker_solves"].values(), reverse=True
                )
                if v > 0
            )
            rows.append(
                (w, rep.seconds(f"W={w}"), st["last_shard_sizes"], split)
            )
    return g, serial, results, rep.seconds("serial"), rows


def test_s1_sharded_engine(record_table, quick_mode):
    n, d = (120, 6) if quick_mode else (1200, 8)
    rep = BenchReporter("s1_sharded_engine")
    g, serial, results, t_serial, rows = run_compare(n, d, reporter=rep)

    # Identity at every worker count (LocalMixingResult equality covers
    # time, set_size, bitwise deviation, threshold and both counters).
    for w, res in results.items():
        assert res == serial, f"W={w} diverged from the serial engine"

    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:  # pragma: no cover - macOS/Windows
        cores = os.cpu_count() or 1
    table_rows = [
        ["serial", f"{t_serial:.2f}", "1.00x",
         f"{_block_mib(g.n, g.n):.1f}", "-", "-"]
    ]
    for w, t_w, shard_sizes, split in rows:
        table_rows.append(
            [f"W={w}", f"{t_w:.2f}", f"{t_serial / t_w:.2f}x",
             f"{_block_mib(max(shard_sizes), g.n, threads=1):.1f}",
             "+".join(str(s) for s in shard_sizes), split]
        )
        if not quick_mode and w == 4 and cores >= 4:
            assert t_serial / t_w >= 2.0, (
                f"4-worker speedup {t_serial / t_w:.2f}x below the 2x "
                f"target on {cores} cores (serial {t_serial:.2f}s, "
                f"W=4 {t_w:.2f}s)"
            )

    table = format_table(
        ["config", "wall s", "speedup", "peak block MiB/proc",
         "shard sizes", "solves/worker"],
        table_rows,
        title=(
            f"S1: sharded parallel engine vs serial batch — all {g.n} "
            f"sources of a {n}-node {d}-regular graph, tau(beta={BETA}) "
            f"(identical per-source results asserted at every W; "
            f"host cores: {cores})"
        ),
    )
    record_table("s1_sharded_engine", table, metrics=rep.snapshot())
