"""The two engine workloads: ``all_sources`` and ``long_tau``.

Both call :func:`repro.engine.batched_local_mixing_times` for every source
of their graphs, repeatedly, for the run's measuring time.  Every answer of
every call must equal the first call's answer bitwise, and a seeded sample
of sources is checked against the per-source ``local_mixing_time``
reference.  In these workloads a caller waits for the whole call before
any answer arrives: every answer of a call has the call's latency, so the
answers' p50 and p99 within a call are both the call's wall time, and the
run reports their median over calls (equal to ``solve_s``).
"""

from __future__ import annotations

import random
import time

from common import (
    answer_key,
    median,
    peak_rss_mib,
    reference_mismatches,
    time_call,
)

#: E1 from the ROADMAP: 1000-node random 8-regular graph, beta = 4.
E1_N, E1_D, E1_BETA = 1000, 8, 4.0
#: Long-tau graphs (lazy walks, every step scheduled): path P_40
#: (tau = 2066 at beta 4) and the 5-clique beta-barbell with 8-cliques
#: (tau up to 1482 at beta 5); together about two seconds per pass.
PATH_N, PATH_BETA = 40, 4.0
BARBELL_B, BARBELL_K = 5, 8
#: Sources per graph checked against the per-source reference.
E1_CHECKS, LONG_CHECKS = 3, 1
SETUPS = 5


class _Solver:
    """One workload's solve: a list of (graph, knobs) engine calls that
    together answer the workload's all-sources question."""

    def __init__(self, calls):
        self.calls = calls

    @property
    def sources(self) -> int:
        return sum(g.n for g, _ in self.calls)

    def solve(self):
        from repro.engine import batched_local_mixing_times

        return [batched_local_mixing_times(g, **kw) for g, kw in self.calls]


def _build_all_sources(seed: int) -> _Solver:
    from repro.engine import batched_local_mixing_times
    from repro.graphs import random_regular

    g = random_regular(E1_N, E1_D, seed=seed)
    # Warm-up on a few sources: imports, transition matrix, connectivity.
    batched_local_mixing_times(g, E1_BETA, sources=range(8))
    return _Solver([(g, {"beta": E1_BETA})])


def _build_long_tau(seed: int) -> _Solver:
    from repro.engine import batched_local_mixing_times
    from repro.graphs import beta_barbell, path_graph

    calls = [
        (path_graph(PATH_N), {"beta": PATH_BETA, "lazy": True}),
        (
            beta_barbell(BARBELL_B, BARBELL_K),
            {"beta": float(BARBELL_B), "lazy": True},
        ),
    ]
    # Warm-up on two sources per graph: the per-step path is what the
    # timed solves exercise.
    for g, kw in calls:
        batched_local_mixing_times(g, sources=[0, g.n - 1], **kw)
    return _Solver(calls)


BUILDERS = {"all_sources": _build_all_sources, "long_tau": _build_long_tau}


def _setup(name: str, seed: int):
    solver, seconds = None, []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        solver = BUILDERS[name](seed)
        seconds.append(time.perf_counter() - t0)
    return solver, seconds


def _timed_solves(solver: _Solver, seconds: float, min_solves: int = 2):
    """Solve repeatedly for ``seconds``; return (durations, answers of
    the first solve, number of solves whose answers differ from it)."""
    durations, first, drift = [], None, 0
    deadline = time.perf_counter() + seconds
    while len(durations) < min_solves or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        out = solver.solve()
        durations.append(time.perf_counter() - t0)
        keys = [[answer_key(r) for r in res] for res in out]
        if first is None:
            first, first_keys = out, keys
        elif keys != first_keys:
            drift += 1
    return durations, first, drift


def _check(solver: _Solver, answers, seed: int, per_graph: int) -> int:
    rng = random.Random(seed)
    bad = 0
    for (g, kw), res in zip(solver.calls, answers):
        sample = rng.sample(range(g.n), per_graph)
        bad += reference_mismatches(
            g, sample, [res[s] for s in sample], **kw
        )
    return bad


def _steps_per_solve(answers) -> int:
    """Walk steps one solve advances: each call runs until its slowest
    source resolves (``steps_checked`` of that source)."""
    return sum(max(r.steps_checked for r in res) for res in answers)


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    solver, setup_s = _setup(name, seed)
    checks = E1_CHECKS if name == "all_sources" else LONG_CHECKS
    if not trace:
        durations, answers, drift = _timed_solves(solver, seconds)
        solve_s = median(durations)
        failed = drift * solver.sources + _check(
            solver, answers, seed, checks
        )
        metrics = {
            "setup_s": median(setup_s),
            "solve_s": solve_s,
            "query_p50_us": solve_s * 1e6,
            "query_p99_us": solve_s * 1e6,
            "throughput_qps": solver.sources / solve_s,
            "peak_rss_mib": peak_rss_mib(),
        }
        attempted = solver.sources * len(durations)
        return {"attempted": attempted, "failed": failed, "metrics": metrics}
    outcome = _trace(solver, seed, seconds, checks)
    if name == "all_sources":
        # The serving workloads are not listed in BENCHMARK.json (their
        # figures do not repeat on a shared VM), so this traced run also
        # measures their layers: the service_hits traced phases, which
        # include the wire_ws ones.
        import service_workload

        serving = service_workload.run(seed, seconds, True)
        for key, value in serving["metrics"].items():
            if key.startswith(_SERVING_LAYERS):
                outcome["metrics"][key] = value
        outcome["attempted"] += serving["attempted"]
        outcome["failed"] += serving["failed"]
    return outcome


_SERVING_LAYERS = ("service.", "dynamic.", "wire.", "loadgen.",
                   "obs.telemetry_us")


def _trace(solver: _Solver, seed: int, seconds: float, checks: int) -> dict:
    from repro.engine import canonical_times_key
    from repro.obs import (
        diff_kernel_snapshots,
        kernel_profiler,
        set_observability,
    )

    plain, answers, drift = _timed_solves(solver, seconds / 2)
    before = kernel_profiler().snapshot()
    prev = set_observability(True)
    try:
        traced, _, traced_drift = _timed_solves(solver, seconds / 2)
    finally:
        set_observability(prev)
    delta = diff_kernel_snapshots(before, kernel_profiler().snapshot())
    solve_s = median(plain)
    layers = engine_layers(delta, len(traced), solve_s)
    sources = solver.sources
    flagged = layers["engine.screen.flagged"]
    steps = _steps_per_solve(answers)
    layers.update(
        {
            "engine.steps": steps,
            "engine.step_us": solve_s / steps * 1e6,
            "engine.verify_useful_ratio": sources / flagged if flagged else 0.0,
            "engine.canonical_key_us": time_call(
                lambda: [canonical_times_key(g, **kw) for g, kw in solver.calls]
            ),
            "obs.tracing_overhead_frac": median(traced) / solve_s - 1.0,
        }
    )
    failed = (drift + traced_drift) * sources + _check(
        solver, answers, seed, checks
    )
    attempted = sources * (len(plain) + len(traced))
    return {"attempted": attempted, "failed": failed, "metrics": layers}


#: Kernels on the engine's profiled seam, in the per-layer metric names.
KERNELS = (
    "step_block",
    "sorted_scan",
    "split_points",
    "deviation_lower_bounds",
    "best_sums",
    "best_sums_grid",
)


def engine_layers(delta: dict, solves: int, solve_s: float) -> dict:
    """Per-solve engine breakdown from a ``diff_kernel_snapshots`` delta
    covering ``solves`` traced solves, with the unattributed residual
    taken against the untraced ``solve_s``."""
    out = {}
    per = 1.0 / solves if solves else 0.0
    kernel_s = 0.0
    for kernel in KERNELS:
        calls = secs = 0.0
        for key, vals in delta.get("kernels", {}).items():
            if key.split("/", 1)[1] == kernel:
                calls += vals.get("calls", 0)
                secs += vals.get("seconds", 0.0)
        out[f"engine.kernel.{kernel}.s"] = secs * per
        out[f"engine.kernel.{kernel}.calls"] = calls * per
        kernel_s += secs * per
    screen = delta.get("screen", {}).values()
    out["engine.screen.pairs"] = sum(v.get("pairs", 0) for v in screen) * per
    out["engine.screen.flagged"] = (
        sum(v.get("flagged", 0) for v in screen) * per
    )
    out["engine.unattributed_s"] = solve_s - kernel_s
    return out
