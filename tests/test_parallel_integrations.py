"""Call sites riding on the parallel subsystem: the sharded dynamic
tracker, the estimator sweeps, the family sweep fan-out and the graph-wide
maximum — each pinned against its serial reference.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import (
    estimate_rw_probabilities,
    estimate_rw_probability,
    local_mixing_time_congest,
    local_mixing_times_congest,
)
from repro.analysis.sweeps import family_sweep
from repro.congest.network import CongestNetwork
from repro.dynamic import barbell_bridge_schedule, track_local_mixing
from repro.graphs import generators as gen
from repro.parallel import ShardExecutor, parallel_local_mixing_times
from repro.walks.local_mixing import (
    graph_local_mixing_time,
    local_mixing_time,
)

BETA = 4.0


@pytest.fixture(scope="module")
def reg():
    return gen.random_regular(30, 4, seed=9)


@pytest.fixture(scope="module")
def pool():
    with ShardExecutor(2) as ex:
        yield ex


# --------------------------------------------------------------------- #
# Sharded dynamic tracking
# --------------------------------------------------------------------- #


def _trace_key(trace):
    return [snap.results for snap in trace.snapshots]


def test_sharded_tracker_identical_to_from_scratch(pool):
    """The incremental tracker with a shard executor must produce, on every
    snapshot of a real churn trace, exactly the from-scratch spectrum —
    times, set sizes, bitwise deviations and counters."""
    base, updates = barbell_bridge_schedule(3, 8, cycles=2, hold=1, seed=2)
    ref = track_local_mixing(
        base, updates, beta=BETA, eps=0.25, method="from_scratch"
    )
    par = track_local_mixing(
        base, updates, beta=BETA, eps=0.25, executor=pool
    )
    assert _trace_key(par) == _trace_key(ref)
    # The sharded run still did incremental work (pruning/memoization), it
    # did not silently fall back to full solves.
    assert par.stats["reused_sources"] > 0 or par.stats["memo_hits"] > 0


def test_tracker_owned_executor_lifecycle():
    base, updates = barbell_bridge_schedule(3, 8, cycles=1, hold=1, seed=4)
    ref = track_local_mixing(
        base, updates, beta=BETA, eps=0.25, method="from_scratch"
    )
    par = track_local_mixing(
        base, updates, beta=BETA, eps=0.25, n_workers=2
    )
    assert _trace_key(par) == _trace_key(ref)
    # track_local_mixing closed the pool it owned.
    assert par.tracker._executor is None

def test_tracker_rejects_bad_worker_count():
    from repro.dynamic import MixingTracker

    with pytest.raises(ValueError, match="n_workers must be >= 1"):
        MixingTracker(BETA, n_workers=0)


def test_tracker_rejects_executor_plus_n_workers(pool):
    from repro.dynamic import MixingTracker

    with pytest.raises(ValueError, match="not both"):
        MixingTracker(BETA, executor=pool, n_workers=2)


# --------------------------------------------------------------------- #
# Estimator sweeps (Algorithm 1 / Algorithm 2 through shard_map)
# --------------------------------------------------------------------- #


def test_estimate_rw_probabilities_serial_equals_reference(reg):
    blk = estimate_rw_probabilities(reg, [0, 5, 9], 6)
    ref = np.vstack(
        [
            estimate_rw_probability(CongestNetwork(reg), s, 6)
            for s in (0, 5, 9)
        ]
    )
    assert np.array_equal(blk, ref)


def test_estimate_rw_probabilities_parallel_identical(reg, pool):
    serial = estimate_rw_probabilities(reg, list(range(8)), 5)
    par = estimate_rw_probabilities(reg, list(range(8)), 5, executor=pool)
    assert np.array_equal(par, serial)


def test_estimate_rw_probabilities_validation(reg):
    with pytest.raises(ValueError, match="source out of range"):
        estimate_rw_probabilities(reg, [reg.n], 3)
    with pytest.raises(ValueError, match="at least one source"):
        estimate_rw_probabilities(reg, [], 3)
    with pytest.raises(ValueError, match="length must be non-negative"):
        estimate_rw_probabilities(reg, [0], -1)


def _congest_key(results):
    return [(r.time, r.set_size, r.deviation, r.rounds) for r in results]


def test_congest_sweep_reproducible_at_any_worker_count(reg, pool):
    """The Monte-Carlo tie-breaking streams are spawned per source before
    sharding, so the sweep is invariant to the worker count — the satellite
    contract."""
    sources = [0, 3, 11, 20]
    serial = local_mixing_times_congest(reg, sources, BETA, seed=7)
    one = local_mixing_times_congest(
        reg, sources, BETA, seed=7, executor=pool, n_workers=1
    )
    two = local_mixing_times_congest(
        reg, sources, BETA, seed=7, executor=pool, n_workers=2
    )
    four = local_mixing_times_congest(
        reg, sources, BETA, seed=7, executor=pool, n_workers=4
    )
    assert (
        _congest_key(serial)
        == _congest_key(one)
        == _congest_key(two)
        == _congest_key(four)
    )


def test_congest_sweep_matches_single_source_runs(reg):
    """Each sweep entry is a faithful Algorithm-2 run: same output as a
    direct per-source call fed the same spawned child stream."""
    sources = [2, 14]
    seq = np.random.SeedSequence(21)
    sweep = local_mixing_times_congest(reg, sources, BETA, seed=seq)
    children = np.random.SeedSequence(21).spawn(len(sources))
    direct = [
        local_mixing_time_congest(
            CongestNetwork(reg), s, BETA, seed=np.random.default_rng(child)
        )
        for s, child in zip(sources, children)
    ]
    assert _congest_key(sweep) == _congest_key(direct)


# --------------------------------------------------------------------- #
# Family sweep fan-out and the graph-wide maximum
# --------------------------------------------------------------------- #


def test_family_sweep_parallel_rows_identical(pool):
    serial = family_sweep("expander", [16, 24], 4, seed=11)
    par = family_sweep("expander", [16, 24], 4, seed=11, executor=pool)
    assert par == serial


def test_graph_local_mixing_time_parallel_engine(reg, pool):
    t_batch = graph_local_mixing_time(reg, BETA)
    t_par = max(
        r.time for r in parallel_local_mixing_times(reg, BETA, executor=pool)
    )
    t_loop = max(local_mixing_time(reg, s, BETA).time for s in range(reg.n))
    assert t_par == t_batch == t_loop
