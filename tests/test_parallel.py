"""The sharded parallel subsystem: parallel ↔ serial equivalence, shard
mathematics, shared-memory lifecycle, and the fail-fast knob validation the
parallel front doors share with the batched drivers.

The headline contract under test: the parallel τ front door returns results
**identical** — same τ, set sizes, bitwise-equal deviations, same
bookkeeping counters — to the serial batched engine (and therefore to the
per-source reference loop) for every knob combination, every worker count
and every shard boundary.
"""

from __future__ import annotations

import errno
import multiprocessing as mp
import os
import subprocess
import sys
import threading
import time
from multiprocessing import shared_memory

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import (
    batched_local_mixing_profiles,
    batched_local_mixing_spectra,
    batched_local_mixing_times,
    canonical_times_key,
)
from repro.graphs import generators as gen
from repro.parallel import (
    ShardExecutor,
    SharedCSR,
    parallel_local_mixing_times,
    shard_bounds,
    shard_map,
)
from repro.service import MixingQuery

BETA = 4.0


@pytest.fixture(scope="module")
def reg():
    """Small connected non-bipartite regular graph."""
    return gen.random_regular(30, 4, seed=5)


@pytest.fixture(scope="module")
def lolli():
    """Irregular graph (clique + path); bipartite pieces force lazy
    walks."""
    return gen.lollipop(6, 9)


@pytest.fixture(scope="module")
def pool():
    """One persistent 2-worker pool for the whole module (pool spawn is the
    expensive part; the subsystem is designed around reuse)."""
    with ShardExecutor(2) as ex:
        yield ex


# --------------------------------------------------------------------- #
# Shard arithmetic
# --------------------------------------------------------------------- #


def test_shard_bounds_contiguous_and_even():
    assert shard_bounds(10, 3) == [(0, 4), (4, 7), (7, 10)]
    assert shard_bounds(4, 4) == [(0, 1), (1, 2), (2, 3), (3, 4)]
    # More shards than items: degrade to one shard per item, none empty.
    assert shard_bounds(2, 5) == [(0, 1), (1, 2)]
    assert shard_bounds(0, 3) == []
    with pytest.raises(ValueError):
        shard_bounds(5, 0)
    with pytest.raises(ValueError):
        shard_bounds(-1, 2)


@given(
    n_items=st.integers(min_value=1, max_value=200),
    n_shards=st.integers(min_value=1, max_value=32),
)
@settings(max_examples=50, deadline=None)
def test_shard_bounds_partition_property(n_items, n_shards):
    bounds = shard_bounds(n_items, n_shards)
    # Exact contiguous partition, no empty shard, near-even sizes.
    assert bounds[0][0] == 0 and bounds[-1][1] == n_items
    for (lo, hi), (lo2, _) in zip(bounds, bounds[1:]):
        assert hi == lo2
    lens = [hi - lo for lo, hi in bounds]
    assert min(lens) >= 1 and max(lens) - min(lens) <= 1
    assert len(bounds) == min(n_shards, n_items)


# --------------------------------------------------------------------- #
# Parallel ↔ serial equivalence: knob matrix and worker counts
# --------------------------------------------------------------------- #


KNOBS = [
    dict(),
    dict(require_source=True),
    dict(sizes="grid", threshold_factor=4.0, t_schedule="doubling"),
    dict(t_schedule="doubling"),
    dict(lazy=True),
    dict(sizes="grid"),
    dict(batch_size=3),
    dict(sizes=[8, 12, 20, 30], eps=0.3),
]


@pytest.mark.parametrize("knobs", KNOBS)
def test_times_knob_matrix_matches_serial(reg, pool, knobs):
    serial = batched_local_mixing_times(reg, BETA, **knobs)
    par = parallel_local_mixing_times(reg, BETA, executor=pool, **knobs)
    assert par == serial


@pytest.mark.parametrize("knobs", [dict(), dict(require_source=True)])
def test_times_irregular_graph_matches_serial(lolli, pool, knobs):
    # β = 2, ε = 0.4: at the module's β and default ε the uniform target
    # never mixes on this lollipop.
    kw = dict(eps=0.4, lazy=True, **knobs)
    serial = batched_local_mixing_times(lolli, 2.0, **kw)
    par = parallel_local_mixing_times(lolli, 2.0, executor=pool, **kw)
    assert par == serial


@pytest.mark.parametrize("n_workers", [1, 2, 4])
def test_times_worker_counts(reg, pool, n_workers):
    """Worker counts {1, 2, 4} (4 shards > pool size exercises queueing)
    all reproduce the serial result exactly."""
    serial = batched_local_mixing_times(reg, BETA)
    par = parallel_local_mixing_times(
        reg, BETA, executor=pool, n_workers=n_workers
    )
    assert par == serial


def test_more_workers_than_sources(reg, pool):
    serial = batched_local_mixing_times(reg, BETA, sources=[3, 17])
    par = parallel_local_mixing_times(
        reg, BETA, sources=[3, 17], executor=pool, n_workers=4
    )
    assert par == serial


def test_sources_order_preserved(reg, pool):
    srcs = [9, 0, 22, 4, 13]
    serial = batched_local_mixing_times(reg, BETA, sources=srcs)
    par = parallel_local_mixing_times(reg, BETA, sources=srcs, executor=pool)
    assert par == serial


def test_one_shot_pool_without_executor(reg):
    """The front door spins up and tears down its own pool when no executor
    is passed."""
    serial = batched_local_mixing_times(reg, BETA, sources=[0, 1, 2, 3])
    par = parallel_local_mixing_times(
        reg, BETA, sources=[0, 1, 2, 3], n_workers=2
    )
    assert par == serial


# --------------------------------------------------------------------- #
# Arbitrary shard partitions (the mathematical core of the merge contract)
# --------------------------------------------------------------------- #


@given(cuts=st.sets(st.integers(min_value=1, max_value=29), max_size=6))
@settings(max_examples=12, deadline=None)
def test_arbitrary_shard_partitions_merge_exactly(cuts):
    """For ANY contiguous partition of the source list, solving the shards
    independently and concatenating equals the one-block solve — this is
    the property that makes the executor's merge independent of worker
    count and shard boundaries.  (Runs the engine in-process: the property
    is about shard boundaries, not about processes.)"""
    g = gen.random_regular(30, 4, seed=5)
    full = batched_local_mixing_times(g, BETA)
    edges = [0, *sorted(cuts), g.n]
    merged = []
    for lo, hi in zip(edges, edges[1:]):
        if lo < hi:
            merged.extend(
                batched_local_mixing_times(g, BETA, sources=range(lo, hi))
            )
    assert merged == full


# --------------------------------------------------------------------- #
# shard_map
# --------------------------------------------------------------------- #


def test_shard_map_plain(pool):
    assert shard_map(_square, list(range(11)), executor=pool) == [
        i * i for i in range(11)
    ]
    assert shard_map(_square, [], executor=pool) == []


def test_shard_map_with_graph(reg, pool):
    degs = shard_map(_degree_of, [0, 7, 29], graph=reg, executor=pool)
    assert degs == [reg.degree(0), reg.degree(7), reg.degree(29)]


def _square(x):
    return x * x


def _degree_of(g, u):
    return g.degree(u)


# --------------------------------------------------------------------- #
# SharedCSR and lifecycle / teardown
# --------------------------------------------------------------------- #


def test_shared_csr_roundtrip(reg):
    with SharedCSR.publish(reg) as pub:
        att = SharedCSR.attach(pub.handle)
        h = att.graph
        assert h == reg and hash(h) == hash(reg)
        assert np.array_equal(h.indptr, reg.indptr)
        assert np.array_equal(h.indices, reg.indices)
        att.close()


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="needs /dev/shm")
def test_shared_csr_refuses_a_full_tmpfs(reg, monkeypatch):
    # Copying into a segment past a full tmpfs dies with SIGBUS, so a
    # segment with no room is refused before it is made.
    before = set(os.listdir("/dev/shm"))
    room = os.statvfs_result((4096, 4096, 1 << 20, 0, 0, 0, 0, 0, 0, 255))
    monkeypatch.setattr(os, "statvfs", lambda path: room)
    with pytest.raises(OSError) as exc:
        SharedCSR.publish(reg)
    assert exc.value.errno == errno.ENOSPC
    assert set(os.listdir("/dev/shm")) - before == set()


def test_executor_close_unlinks_segments(reg):
    ex = ShardExecutor(1)
    res = parallel_local_mixing_times(reg, BETA, sources=[0, 1], executor=ex)
    assert len(res) == 2
    name = ex.publish(reg).shm_name
    ex.close()
    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=name)
    # close is idempotent; new submissions are refused.
    ex.close()
    with pytest.raises(RuntimeError):
        ex.publish(reg)


def test_executor_release_single_graph(reg):
    with ShardExecutor(1) as ex:
        name = ex.publish(reg).shm_name
        ex.release(reg)
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


_LATE_SEGMENT_SCRIPT = """
from repro.graphs import generators as gen
from repro.parallel import ShardExecutor

def square(x):
    return x * x

def degree_of(g, u):
    return g.degree(u)

ex = ShardExecutor(2, start_method="fork")
ex.map_items(square, [1, 2, 3, 4])  # forks the pool before any segment
assert ex.map_items(degree_of, [0, 1], graph=gen.cycle_graph(5)) == [2, 2]
ex.close()
"""


@pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(), reason="needs fork"
)
def test_pool_forked_before_first_segment_reports_no_leak():
    # A fresh interpreter, so no earlier test has started the resource
    # tracker: workers forked without one would each start a private
    # tracker that warns at exit about the already-unlinked segment.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, sys.path)))
    proc = subprocess.run(
        [sys.executable, "-c", _LATE_SEGMENT_SCRIPT],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "leaked shared_memory" not in proc.stderr


_TRACKER_LOCK_SCRIPT = """
import threading
from multiprocessing import resource_tracker
from repro.graphs import generators as gen
from repro.parallel import ShardExecutor

def degree_of(g, u):
    return g.degree(u)

g = gen.cycle_graph(5)
ex = ShardExecutor(1, start_method="fork")
ex.publish(g)
held, release = threading.Event(), threading.Event()

def hold_tracker_lock():
    # What another thread creating or unlinking a segment does, held open.
    with resource_tracker._resource_tracker._lock:
        held.set()
        release.wait()

threading.Thread(target=hold_tracker_lock).start()
held.wait()
try:
    assert ex.map_items(degree_of, [0, 1], graph=g) == [2, 2]
finally:
    release.set()
ex.close()
"""


@pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(), reason="needs fork"
)
def test_fork_pool_never_forks_under_a_held_tracker_lock():
    # Regression: the fork pool used to fork its workers on the first
    # submit, possibly while another thread held the resource tracker's
    # lock; each worker inherited it held and hung on its first segment
    # attach.  A fresh interpreter, so a hang can only time out.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, sys.path)))
    proc = subprocess.run(
        [sys.executable, "-c", _TRACKER_LOCK_SCRIPT],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr


_FORK_AFTER_POOLED_SCRIPT = """
import os, struct, sys
from multiprocessing import shared_memory
from repro.engine import batch, batched_local_mixing_times
from repro.graphs import generators as gen
from repro.parallel import ShardExecutor, executor, parallel_local_mixing_times

def bits(results):
    return [(r.time, r.set_size, struct.pack("<d", r.deviation),
             r.steps_checked, r.sizes_checked) for r in results]

g = gen.random_regular(60, 4, seed=3)
serial = bits(batched_local_mixing_times(g, 3.0))
# 6-column tiles on two processes: the parent runs a pooled solve, and
# each 30-source shard below is 5 tiles.
batch._usable_cpus = lambda: 2
batch._TILE_BYTES = 8 * g.n * 6
assert batch._tile_plan(g.n, g.n, None)[1] == 2
assert bits(batched_local_mixing_times(g, 3.0)) == serial
assert executor._tile_pool.stats()["calls"] == 1
pid = os.fork()
if pid == 0:
    # The fork inherits the pool object but none of its workers; its
    # normal exit must not close the pool or unlink its segment.
    try:
        with executor.leased_tile_pool() as pool:
            assert pool is None
        ok = bits(batched_local_mixing_times(g, 3.0)) == serial
    except BaseException:
        ok = False
    sys.exit(0 if ok else 1)
assert os.waitpid(pid, 0)[1] == 0
name = executor._tile_pool._published[g].handle.shm_name
shared_memory.SharedMemory(name=name).close()  # still published
h = gen.random_regular(60, 4, seed=4)
assert bits(batched_local_mixing_times(h, 3.0)) == bits(
    batched_local_mixing_times(h, 3.0, batch_size=6))
with ShardExecutor(2, start_method="fork") as ex:
    sharded = parallel_local_mixing_times(g, 3.0, executor=ex)
assert bits(sharded) == serial
assert executor._tile_pool.stats()["calls"] == 2
"""


@pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(), reason="needs fork"
)
def test_fork_after_pooled_tiles_solves_inline():
    # A fork of a process whose tiles ran on the process-wide pool must
    # not queue tiles on that pool: its workers are the parent's children
    # and never answer the fork.  Neither an os.fork child nor a fork
    # pool's workers may hang, and the child's exit leaves the parent's
    # pool and segments alone.  A fresh interpreter in its own session,
    # so a hang times out and the forked processes die with it.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, sys.path)))
    proc = subprocess.Popen(
        [sys.executable, "-c", _FORK_AFTER_POOLED_SCRIPT],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        start_new_session=True,
    )
    try:
        _, stderr = proc.communicate(timeout=90)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, 9)
        proc.communicate()
        pytest.fail("a fork after a pooled solve hung")
    assert proc.returncode == 0, stderr


_FORK_MAKES_OWN_POOL_SCRIPT = """
import os, struct, sys
from multiprocessing import resource_tracker
from repro.engine import batch, batched_local_mixing_times
from repro.graphs import generators as gen
from repro.parallel import executor

def bits(results):
    return [(r.time, r.set_size, struct.pack("<d", r.deviation),
             r.steps_checked, r.sizes_checked) for r in results]

g = gen.random_regular(60, 4, seed=3)
serial = bits(batched_local_mixing_times(g, 3.0))
batch._usable_cpus = lambda: 2
batch._TILE_BYTES = 8 * g.n * 6
resource_tracker.ensure_running()
tracker = resource_tracker._resource_tracker._pid
pid = os.fork()
if pid == 0:
    # No pool to inherit: the fork makes its own on the parent's tracker,
    # and its exit must leave that tracker to the parent.
    ok = bits(batched_local_mixing_times(g, 3.0)) == serial
    sys.exit(0 if ok and executor._tile_pool._pid == os.getpid() else 1)
assert os.waitpid(pid, 0)[1] == 0
os.kill(tracker, 0)  # still running
assert resource_tracker._resource_tracker._check_alive()
assert bits(batched_local_mixing_times(g, 3.0)) == serial
assert executor._tile_pool._pid == os.getpid()
"""


@pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(), reason="needs fork"
)
def test_fork_that_makes_its_own_pool_leaves_the_tracker():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, sys.path)),
               REPRO_PARALLEL_START_METHOD="fork")
    proc = subprocess.run(
        [sys.executable, "-c", _FORK_MAKES_OWN_POOL_SCRIPT],
        capture_output=True,
        text=True,
        timeout=90,
        env=env,
        start_new_session=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Error" not in proc.stderr, proc.stderr


_POOLED_EXIT_SCRIPT = """
# No main guard around the solve: a spawned worker re-imports this file
# and must solve inline while it does.
import atexit, multiprocessing, os, sys
from multiprocessing import resource_tracker

@atexit.register  # before repro's own exit hook, so it runs after it
def probe():
    left = multiprocessing.active_children()
    if resource_tracker._resource_tracker._pid is not None or left:
        sys.stderr.write(f"left running: tracker and {left}\\n")
        sys.stderr.flush()
        os._exit(3)

from repro.engine import batch, batched_local_mixing_times
from repro.graphs import generators as gen
from repro.parallel import executor

g = gen.random_regular(60, 4, seed=3)
batch._usable_cpus = lambda: 2
batch._TILE_BYTES = 8 * g.n * 6
batched_local_mixing_times(g, 3.0)
if __name__ == "__main__":
    assert executor._tile_pool.stats()["calls"] == 1
"""


def _session_processes(sid):
    """Pids of every process, zombies included, in session ``sid``."""
    out = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                if os.getsid(int(entry)) == sid:
                    out.append(int(entry))
            except OSError:  # exited meanwhile
                pass
    return out


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
@pytest.mark.parametrize(
    "method", [m for m in ("fork", "spawn") if m in mp.get_all_start_methods()]
)
def test_pooled_solve_leaves_nothing_behind_at_exit(method, tmp_path):
    # The pool's workers, its segments and the resource tracker it
    # started all end with the interpreter: nothing of its session
    # outlives it, not even a zombie, and the tracker has no leak to warn
    # about.
    shm = "/dev/shm"
    segments = (lambda: {f for f in os.listdir(shm) if f.startswith("psm_")}
                if os.path.isdir(shm) else set)
    before = segments()
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, sys.path)),
        REPRO_PARALLEL_START_METHOD=method,
    )
    script = tmp_path / "pooled_exit.py"
    script.write_text(_POOLED_EXIT_SCRIPT)
    proc = subprocess.Popen(
        [sys.executable, str(script)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        start_new_session=True,
    )
    try:
        _, stderr = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, 9)
        proc.communicate()
        pytest.fail("a pooled solve's interpreter did not exit")
    assert proc.returncode == 0, stderr
    assert "resource_tracker" not in stderr, stderr
    deadline = time.monotonic() + 10
    while _session_processes(proc.pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert _session_processes(proc.pid) == []
    assert segments() - before == set()


def _wait_for_file(path):
    """Block a worker until ``path`` exists (bounded, so a broken test
    cannot hang the pool forever)."""
    deadline = time.monotonic() + 60
    while not os.path.exists(path) and time.monotonic() < deadline:
        time.sleep(0.01)
    return path


@pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(), reason="needs fork"
)
def test_eviction_spares_segment_of_queued_call(reg, tmp_path):
    """Regression: publishing more graphs than the LRU bound while another
    thread's call is still queued must not unlink that call's segment —
    in-flight keys are pinned until their futures resolve."""
    release = tmp_path / "release"
    out: dict = {}
    with ShardExecutor(1, start_method="fork") as ex:
        # Fork the worker before any thread starts (forking a threaded
        # process is unsafe), with a graph B does not use so the worker
        # has not attached B's segment yet.
        ex.map_items(_degree_of, [0], graph=gen.cycle_graph(4))
        # A holds the only worker; B's task queues behind it.
        a = threading.Thread(
            target=lambda: ex.map_items(_wait_for_file, [str(release)])
        )
        a.start()

        def run_b():
            try:
                out["b"] = ex.map_items(_degree_of, [0, 1], graph=reg)
            except Exception as exc:  # surfaced in the main thread
                out["b"] = exc

        b = threading.Thread(target=run_b)
        b.start()
        deadline = time.monotonic() + 30
        while ex.stats()["published_graphs"] < 2:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        for n in range(5, 21):
            ex.publish(gen.cycle_graph(n))
        release.touch()
        a.join(60)
        b.join(60)
        assert not a.is_alive() and not b.is_alive()
        assert out["b"] == [reg.degree(0), reg.degree(1)]
        # Once B's futures resolved, the pin is dropped and the LRU bound
        # holds again.
        assert ex.stats()["published_graphs"] == 16


def test_concurrent_calls_past_lru_bound_all_succeed(reg):
    """Stress: more threads than cores push more distinct graphs than the
    LRU bound through one executor.  Every call's segment must survive
    until its tasks finish, and once all calls are done every pin is
    released and the bound holds again."""
    graphs = [gen.cycle_graph(n) for n in range(5, 41)]
    errors: list = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ShardExecutor(2) as ex:
            # Start the pool before the threads (forking a threaded
            # process is unsafe).
            ex.map_items(_degree_of, [0], graph=reg)

            def run(chunk):
                try:
                    for g in chunk:
                        got = ex.map_items(_degree_of, [0, 1, 2], graph=g)
                        assert got == [2, 2, 2]
                except Exception as exc:
                    errors.append(exc)

            threads = [
                threading.Thread(target=run, args=(graphs[i::6],))
                for i in range(6)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(120)
            assert not any(t.is_alive() for t in threads)
            assert errors == []
            assert ex.stats()["published_graphs"] == 16
            assert not ex._pins
    finally:
        sys.setswitchinterval(interval)


def test_spawn_start_method_portability(reg):
    """The OS-portability guard: the whole pipeline must work under the
    ``spawn`` start method (macOS/Windows default) — every task and handle
    crosses the process boundary by pickling there."""
    serial = batched_local_mixing_times(reg, BETA, sources=[0, 1, 2, 3])
    with ShardExecutor(2, start_method="spawn") as ex:
        par = parallel_local_mixing_times(
            reg, BETA, sources=[0, 1, 2, 3], executor=ex
        )
        name = ex.publish(reg).shm_name
    assert par == serial
    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=name)


def test_executor_rejects_bad_worker_count():
    with pytest.raises(ValueError):
        ShardExecutor(0)


def test_executor_stats_track_utilization(reg):
    """stats() reports dispatched tasks, shard partitions and per-worker
    solve attribution — and never perturbs results."""
    with ShardExecutor(2) as ex:
        assert ex.stats()["calls"] == 0
        serial = batched_local_mixing_times(reg, BETA, sources=range(10))
        par = parallel_local_mixing_times(
            reg, BETA, sources=range(10), executor=ex
        )
        assert par == serial
        st1 = ex.stats()
        assert st1["calls"] == 1
        assert st1["tasks_dispatched"] == 2  # one task per shard
        assert st1["items_processed"] == 10
        assert st1["last_shard_sizes"] == [5, 5]
        assert sum(st1["per_worker_solves"].values()) == 2
        assert st1["n_workers"] == 2 and st1["published_graphs"] == 1
        # map_items counts too, and the counters accumulate.
        shard_map(_stats_probe, list(range(7)), executor=ex)
        st2 = ex.stats()
        assert st2["calls"] == 2
        assert st2["tasks_dispatched"] == 4
        assert st2["items_processed"] == 17
        assert st2["last_shard_sizes"] == [4, 3]
        # The snapshot is a copy — mutating it cannot corrupt the executor.
        st2["per_worker_solves"].clear()
        assert sum(ex.stats()["per_worker_solves"].values()) == 4


def test_executor_stats_cumulative_per_worker_and_reset(reg):
    """Regression: ``per_worker_solves`` attributes *every* call since
    construction (it once looked last-call-only when read naively), and
    the documented ``reset()`` re-zeroes the utilization counters without
    touching configuration — so benchmarks attribute a timed run with
    ``reset()`` instead of warm-up diff arithmetic."""
    with ShardExecutor(2) as ex:
        serial = batched_local_mixing_times(reg, BETA, sources=range(8))
        for call in (1, 2, 3):
            par = parallel_local_mixing_times(
                reg, BETA, sources=range(8), executor=ex
            )
            assert par == serial
            st = ex.stats()
            assert st["calls"] == call
            assert st["tasks_dispatched"] == 2 * call
            assert st["items_processed"] == 8 * call
            # Cumulative across calls, not just the last partition.
            assert sum(st["per_worker_solves"].values()) == 2 * call
        ex.reset()
        st = ex.stats()
        assert st["calls"] == 0
        assert st["tasks_dispatched"] == 0
        assert st["items_processed"] == 0
        assert st["per_worker_solves"] == {}
        assert st["last_shard_sizes"] == []
        # Configuration survives a counter reset.
        assert st["n_workers"] == 2
        assert st["published_graphs"] == 1
        # Counting resumes from zero on the same warm pool.
        par = parallel_local_mixing_times(
            reg, BETA, sources=range(8), executor=ex
        )
        assert par == serial
        st = ex.stats()
        assert st["calls"] == 1
        assert sum(st["per_worker_solves"].values()) == 2


def _stats_probe(x):
    return x * x


# --------------------------------------------------------------------- #
# Fail-fast knob validation (shared head of batched + parallel drivers)
# --------------------------------------------------------------------- #


class TestKnobValidationOrdering:
    """Regression tests: ``batch_size``, ``sizes`` and ``t_schedule`` are
    validated before sources are normalized, so a call that is wrong in
    both ways reports the knob error — uniformly across drivers."""

    def test_batch_size_before_sources(self, reg):
        with pytest.raises(ValueError, match="batch_size must be >= 1"):
            batched_local_mixing_times(
                reg, BETA, sources=[reg.n + 5], batch_size=0
            )

    def test_t_schedule_before_sources(self, reg):
        with pytest.raises(ValueError, match="unknown t_schedule"):
            batched_local_mixing_times(
                reg, BETA, sources=[-1], t_schedule="bogus"
            )

    def test_sizes_mode_before_sources(self, reg):
        with pytest.raises(ValueError, match="unknown sizes mode"):
            batched_local_mixing_times(reg, BETA, sources=[-1], sizes="bogus")

    def test_explicit_sizes_before_sources(self, reg):
        with pytest.raises(ValueError, match="explicit sizes out of range"):
            batched_local_mixing_times(
                reg, BETA, sources=[-1], sizes=[0, 5]
            )

    def test_empty_sources_still_rejected(self, reg):
        with pytest.raises(ValueError, match="at least one source"):
            batched_local_mixing_times(reg, BETA, sources=[])

    def test_profiles_sizes_before_sources(self, reg):
        with pytest.raises(ValueError, match="unknown sizes mode"):
            batched_local_mixing_profiles(
                reg, BETA, sources=[-1], sizes="bogus"
            )

    def test_profiles_negative_t_max(self, reg):
        with pytest.raises(ValueError, match="t_max must be non-negative"):
            batched_local_mixing_profiles(reg, BETA, t_max=-1)

    def test_spectra_sizes_before_sources(self, reg):
        with pytest.raises(ValueError, match="sizes out of range"):
            batched_local_mixing_spectra(reg, sources=[-1], sizes=[0])

    @pytest.mark.parametrize(
        "bad_kwargs, match",
        [
            (dict(batch_size=0), "batch_size must be >= 1"),
            (dict(t_schedule="bogus"), "unknown t_schedule"),
            (dict(sizes="bogus"), "unknown sizes mode"),
            (dict(eps=1.5), "eps must be in"),
            (dict(threshold_factor=0.0), "threshold_factor must be positive"),
        ],
    )
    def test_parallel_front_door_same_messages(self, reg, bad_kwargs, match):
        """The parallel front door fails in the parent, before any worker
        or segment exists, with the serial driver's message."""
        with pytest.raises(ValueError, match=match):
            parallel_local_mixing_times(
                reg, BETA, n_workers=2, **bad_kwargs
            )
        # Drop-in contract: the serial driver rejects the same call with
        # the same message.
        with pytest.raises(ValueError, match=match):
            batched_local_mixing_times(reg, BETA, **bad_kwargs)

    #: Every τ / spectra front door, called with only a graph and knobs.
    METHODLESS = {
        "batched_times": lambda g, **kw: batched_local_mixing_times(
            g, BETA, **kw
        ),
        "batched_spectra": batched_local_mixing_spectra,
        "canonical_key": lambda g, **kw: canonical_times_key(g, BETA, **kw),
        "parallel_times": lambda g, **kw: parallel_local_mixing_times(
            g, BETA, n_workers=2, **kw
        ),
        "query": lambda g, **kw: MixingQuery(g, 0, BETA, **kw),
    }

    @pytest.mark.parametrize("door", sorted(METHODLESS))
    def test_no_method_knob(self, reg, door):
        """τ_s has one computation, so no front door takes ``method``."""
        with pytest.raises(TypeError, match="method"):
            self.METHODLESS[door](reg, method="iterative")

    def test_profiles_beta_rejected_uniformly(self, reg):
        with pytest.raises(ValueError, match="beta must be >= 1"):
            batched_local_mixing_profiles(reg, 0.5, t_max=3)

    def test_explicit_zero_shards_rejected(self, reg, pool):
        """n_workers=0 with a supplied executor is an error, not 'use the
        pool default' (falsy-zero guard)."""
        with pytest.raises(ValueError, match="n_shards must be >= 1"):
            parallel_local_mixing_times(
                reg, BETA, executor=pool, n_workers=0
            )
        with pytest.raises(ValueError, match="n_shards must be >= 1"):
            shard_map(_square, [1, 2], executor=pool, n_workers=-1)
