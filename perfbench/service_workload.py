"""The ``service_hits`` workload: an in-process ``MixingService`` with its
default configuration (flight recorder and rolling window on, tracing off),
driven in a closed loop by two client coroutines.

Each client operation is a read with probability 0.985: a cache hit on
the prefilled hot set of the 2000-node graph.  Otherwise it is a write:
one seeded in-block swap on the registered dynamic graph, then one query
per block of it (a fixed probe set of 8 sources), submitted together, so
about 10% of queries follow an edit.  The dirty probes re-solve through
the coalescer in one batch; the clean ones hit the entries the service
carried forward across the edit.  Misses are then about 1.5% of queries,
so the p99 measures them, while the median stays on the hot-set hits.

Every answer is checked: hot-set answers bitwise against the prefill's
answers (themselves sampled against the per-source reference), and a
seeded sample of dynamic-graph answers against the reference on the exact
snapshot the query was admitted on.
"""

from __future__ import annotations

import asyncio
import random
import time
import tracemalloc

from common import (
    answer_key,
    median,
    peak_rss_mib,
    reference_mismatches,
    latency_stats,
    time_call,
)
from engine_workloads import engine_layers
from inputs import (
    DYN_BLOCK,
    DYN_KNOBS,
    HOT_BETA,
    apply_edit,
    dyn_query,
    dynamic_base,
    edit_stream,
    hot_graph,
    hot_query,
    hot_sources,
)

CLIENTS = 2
WRITE_SHARE = 0.015
#: Set-ups before the measured phase and after it; set-up and solve
#: figures are medians over all of them.
SETUPS, LATE_SETUPS = 5, 4
#: Unmeasured traffic before the measured phase (seconds).
WARMUP = 1.0
#: Seeded hot-set sources checked against the per-source reference, and
#: dynamic-graph answers checked against their admission snapshot.
HOT_CHECKS, DYN_CHECKS = 2, 12


class Stack:
    """One set-up: registry, service, prefilled hot set and dynamic graph."""

    def __init__(self, g, hot, base, seed: int = 0, **config):
        from repro.dynamic import DynamicGraph
        from repro.service import GraphRegistry, MixingService

        self.g, self.hot = g, hot
        self.dg = DynamicGraph(base)
        #: Every driver of this stack draws its edits from one stream, so
        #: they apply in the order they were generated.
        self.edits = edit_stream(base, seed)
        self.registry = GraphRegistry()
        self.registry.register("hot", g)
        self.registry.register("dyn", self.dg)
        self.svc = MixingService(registry=self.registry, **config)
        self.expected: dict[int, tuple] = {}
        self.prefill_s = 0.0

    async def prefill(self, with_dynamic: bool = True):
        t0 = time.perf_counter()
        answers = await self.svc.submit_many([hot_query(s) for s in self.hot])
        self.prefill_s = time.perf_counter() - t0
        self.answers = dict(zip(self.hot, answers))
        self.expected = {s: answer_key(r) for s, r in self.answers.items()}
        self.dyn_answers = []
        if with_dynamic:
            self.dyn_answers = await self.svc.submit_many(
                [dyn_query(s) for s in range(self.dg.n)]
            )
        return self


async def _setup(seed: int, count: int, keep_last: bool):
    """Set up ``count`` stacks one after another, closing each but (with
    ``keep_last``) the last; return it with each set-up's seconds and
    prefill seconds."""
    base = dynamic_base(seed)
    seconds, prefill_s, last = [], [], None
    for i in range(count):
        t0 = time.perf_counter()
        stack = await Stack(
            hot_graph(seed), hot_sources(seed), base, seed
        ).prefill()
        seconds.append(time.perf_counter() - t0)
        prefill_s.append(stack.prefill_s)
        if keep_last and i == count - 1:
            last = stack
        else:
            await stack.svc.aclose()
    return last, seconds, prefill_s


class Loop:
    """The closed-loop driver and what it observed."""

    def __init__(self, stack: Stack, seed: int):
        self.stack, self.seed = stack, seed
        self.latencies: list[float] = []
        self.failed = 0
        self.edit_s: list[float] = []
        self.dyn: list[tuple] = []  # (snapshot, source, answer, latency)
        self.seen_ids = {id(r): r for r in stack.dyn_answers}
        self.write_lock = asyncio.Lock()
        rng = random.Random(seed)
        self.probes = [
            b + rng.randrange(DYN_BLOCK)
            for b in range(0, stack.dg.n, DYN_BLOCK)
        ]

    async def run(self, seconds: float, write_share: float) -> float:
        t0 = time.perf_counter()
        deadline = t0 + seconds
        await asyncio.gather(
            *(
                self._client(random.Random(self.seed * 1009 + i), deadline,
                             write_share)
                for i in range(CLIENTS)
            )
        )
        return time.perf_counter() - t0

    async def _client(self, rng, deadline: float, write_share: float):
        stack, hot = self.stack, self.stack.hot
        submit = stack.svc.submit
        while time.perf_counter() < deadline:
            if rng.random() < write_share:
                async with self.write_lock:
                    edit = next(stack.edits)
                    t0 = time.perf_counter()
                    apply_edit(stack.dg, edit)
                    self.edit_s.append(time.perf_counter() - t0)
                    snap = stack.dg.snapshot()
                    probes = [
                        asyncio.ensure_future(self._dyn(submit, snap, s))
                        for s in self.probes
                    ]
                    # One loop turn runs each probe up to its first await,
                    # past the registry resolve: all are admitted on
                    # ``snap`` before the other client may edit again.
                    await asyncio.sleep(0)
                await asyncio.gather(*probes)
            else:
                source = hot[rng.randrange(len(hot))]
                t0 = time.perf_counter()
                try:
                    res = await submit(hot_query(source))
                except Exception:
                    self.failed += 1
                    continue
                self.latencies.append(time.perf_counter() - t0)
                if answer_key(res) != stack.expected[source]:
                    self.failed += 1

    async def _dyn(self, submit, snap, source: int) -> None:
        t0 = time.perf_counter()
        try:
            res = await submit(dyn_query(source))
        except Exception:
            self.failed += 1
            return
        dt = time.perf_counter() - t0
        self.latencies.append(dt)
        self.dyn.append((snap, source, res, dt))

    def fresh_solves(self) -> list[float]:
        """Latencies of dynamic-graph queries answered by a fresh solve:
        a cache hit (carried forward or not) returns an answer object the
        service handed out before, a solve returns a new one.  Each call
        returns only the solves not reported by an earlier call."""
        out = []
        for _, _, res, dt in self.dyn:
            if id(res) not in self.seen_ids:
                self.seen_ids[id(res)] = res
                out.append(dt)
        return out

    def check(self) -> int:
        """Reference mismatches in the seeded samples of answers."""
        stack = self.stack
        rng = random.Random(self.seed)
        sample = rng.sample(stack.hot, HOT_CHECKS)
        bad = reference_mismatches(
            stack.g, sample, [stack.answers[s] for s in sample], beta=HOT_BETA
        )
        for snap, source, res, _ in rng.sample(
            self.dyn, min(DYN_CHECKS, len(self.dyn))
        ):
            bad += reference_mismatches(snap, [source], [res], **DYN_KNOBS)
        return bad


def run(seed: int, seconds: float, trace: bool) -> dict:
    outcome = asyncio.run(_run(seed, seconds, trace))
    if trace:
        # The wire layers are measured on this workload's traced run too:
        # ``wire_ws`` end-to-end figures are too unsteady on a shared VM to
        # be a listed workload (see BENCHMARK.json), its breakdown is not.
        import wire_workload

        wire = wire_workload.run(seed, seconds, True)
        for key, value in wire["metrics"].items():
            if key.startswith(("wire.", "loadgen.")):
                outcome["metrics"][key] = value
        outcome["attempted"] += wire["attempted"]
        outcome["failed"] += wire["failed"]
    return outcome


async def _run(seed: int, seconds: float, trace: bool) -> dict:
    stack, setup_s, prefill_s = await _setup(seed, SETUPS, True)
    try:
        if trace:
            return await _trace(stack, Loop(stack, seed), seed, seconds,
                                median(prefill_s))
        warm = Loop(stack, seed + 1)
        await warm.run(WARMUP, WRITE_SHARE)
        loop = Loop(stack, seed)
        elapsed = await loop.run(seconds, WRITE_SHARE)
    finally:
        await stack.svc.aclose()
    _, late_setup, late_prefill = await _setup(seed, LATE_SETUPS, False)
    lat = loop.latencies
    metrics = {
        "setup_s": median(setup_s + late_setup),
        "solve_s": median(prefill_s + late_prefill),
        **latency_stats(lat, elapsed),
        "peak_rss_mib": peak_rss_mib(),
    }
    return {
        "attempted": len(warm.latencies) + len(lat) + warm.failed
        + loop.failed,
        "failed": warm.failed + loop.failed + loop.check(),
        "metrics": metrics,
    }


def hit_path_layers(g, source: int, answers: dict) -> dict:
    """Microbenchmarks of the hit path's public functions on the
    workload's own graph, query and cached answers."""
    from repro.engine import canonical_times_key
    from repro.service import GraphRegistry, ResultCache

    query = hot_query(source)
    key = query.semantic_key(g)
    cache = ResultCache()
    for s, r in answers.items():
        cache.put(g, s, key, r)
    registry = GraphRegistry()
    registry.register("hot", g)
    return {
        "engine.canonical_key_us": time_call(
            lambda: canonical_times_key(g, HOT_BETA)),
        "service.semantic_key_us": time_call(lambda: query.semantic_key(g)),
        "service.resolve_us": time_call(lambda: registry.resolve("hot")),
        "service.cache_get_us": time_call(
            lambda: cache.get(g, source, key)),
    }


async def _read_p50(stack: Stack, seconds: float, seed: int):
    """Hit-only closed loop on ``stack``: (median latency in seconds,
    failures)."""
    probe = Loop(stack, seed)
    await probe.run(seconds, 0.0)
    return median(probe.latencies), probe.failed


async def _trace(stack: Stack, loop: Loop, seed: int, seconds: float,
                 solve_s: float):
    from repro.obs import (
        diff_kernel_snapshots,
        kernel_profiler,
        set_observability,
    )

    half = seconds / 2
    await loop.run(half, WRITE_SHARE)
    plain_p50 = median(loop.latencies)
    loop.fresh_solves()
    stats0 = stack.svc.stats()
    n_plain, edits0 = len(loop.latencies), len(loop.edit_s)
    dyn0 = len(loop.dyn)
    prev = set_observability(True)
    try:
        await loop.run(half, WRITE_SHARE)
    finally:
        set_observability(prev)
    stats1 = stack.svc.stats()
    traced = loop.latencies[n_plain:]
    fresh = loop.fresh_solves()
    failed = loop.failed

    # Telemetry cost on the hit path: default service vs one with the
    # flight recorder and rolling window off, both untraced, hits only.
    default_p50, f1 = await _read_p50(stack, seconds / 8, seed)
    bare = await Stack(
        stack.g, stack.hot, dynamic_base(seed), flight_capacity=0,
        live_buckets=0,
    ).prefill(with_dynamic=False)
    try:
        bare_p50, f2 = await _read_p50(bare, seconds / 8, seed)
    finally:
        await bare.svc.aclose()
    failed += f1 + f2

    layers = hit_path_layers(stack.g, stack.hot[0], stack.answers)
    telemetry_us = (default_p50 - bare_p50) * 1e6

    # Engine breakdown of solve_s (the cold prefill), traced on a fresh
    # service; then retained memory per cached answer over a prefill.
    before = kernel_profiler().snapshot()
    prev = set_observability(True)
    try:
        cold = await Stack(
            stack.g, stack.hot, dynamic_base(seed)
        ).prefill(with_dynamic=False)
    finally:
        set_observability(prev)
    await cold.svc.aclose()
    delta = diff_kernel_snapshots(before, kernel_profiler().snapshot())
    layers.update(engine_layers(delta, 1, solve_s))
    mem = Stack(stack.g, stack.hot, dynamic_base(seed))
    tracemalloc.start()
    try:
        base_bytes = tracemalloc.get_traced_memory()[0]
        await mem.prefill(with_dynamic=False)
        kib = (tracemalloc.get_traced_memory()[0] - base_bytes) / 1024
    finally:
        tracemalloc.stop()
    await mem.svc.aclose()

    c0, c1 = stats0["cache"], stats1["cache"]
    b0, b1 = stats0["coalescer"], stats1["coalescer"]
    hits = c1["hits"] - c0["hits"]
    lookups = hits + c1["misses"] - c0["misses"]
    batches = b1["batches"] - b0["batches"]
    edits = len(loop.edit_s) - edits0
    layers.update(
        {
            "obs.telemetry_us": telemetry_us,
            "service.unattributed_us": default_p50 * 1e6 - telemetry_us
            - layers["service.semantic_key_us"]
            - layers["service.resolve_us"]
            - layers["service.cache_get_us"],
            "obs.tracing_overhead_frac": median(traced) / plain_p50 - 1.0,
            "service.hit_ratio": hits / lookups if lookups else 0.0,
            "service.lookups": lookups,
            "service.coalescer.batches": batches,
            "service.coalescer.mean_batch_sources": (
                (b1["queries"] - b0["queries"]) / batches if batches else 0.0
            ),
            "service.miss_p50_ms": (
                median(fresh) * 1e3 if fresh else 0.0
            ),
            "service.cache_kib_per_entry": kib / len(stack.hot),
            "dynamic.edits": edits,
            "dynamic.edit_us": median(loop.edit_s[edits0:]) * 1e6
            if edits else 0.0,
            "dynamic.carried_forward": c1["carried_forward"]
            - c0["carried_forward"],
            "dynamic.dirty": len(fresh),
            "dynamic.queries": len(loop.dyn) - dyn0,
        }
    )
    for trigger in ("window", "size", "drain", "deadline"):
        name = f"{trigger}_flushes"
        layers[f"service.coalescer.flushes.{trigger}"] = b1[name] - b0[name]
    return {
        "attempted": len(loop.latencies) + failed,
        "failed": failed + loop.check(),
        "metrics": layers,
    }
