"""Tests for the async serving subsystem (repro.service).

The load-bearing property is the serving-equivalence guarantee: every
answer the service produces — under any coalescing batch composition,
cache state, in-flight deduplication, executor configuration and client
concurrency — is **bitwise identical** (``LocalMixingResult`` equality:
time, set size, bitwise deviation, threshold, both counters) to the
direct :func:`batched_local_mixing_times` call for that
``(graph, source, knobs)`` triple.  On top sit the subsystem's own
contracts: canonical knob keys, cache/coalescer/dedup counters, dynamic
invalidation touching only dirty sources, and leak-free shutdown.

No pytest-asyncio in the image — each test drives its own event loop via
``asyncio.run``.
"""

import asyncio
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.dynamic import (
    DynamicGraph,
    barbell_bridge_schedule,
    edit_distance_bounds,
)
from repro.engine import (
    batched_local_mixing_times,
    canonical_times_key,
)
from repro.errors import ConvergenceError
from repro.graphs import generators as gen
from repro.service import (
    GraphRegistry,
    MixingQuery,
    MixingService,
    QueryCoalescer,
    ResultCache,
)

BETA = 4.0
EPS = 0.25
T_MAX = 3000


@pytest.fixture(scope="module")
def expander():
    return gen.random_regular(24, 4, seed=7)


@pytest.fixture(scope="module")
def expander_direct(expander):
    return batched_local_mixing_times(expander, BETA, EPS)


def queries(graph_ref, sources, **overrides):
    kw = dict(beta=BETA, eps=EPS)
    kw.update(overrides)
    return [MixingQuery(graph_ref, s, **kw) for s in sources]


# --------------------------------------------------------------------- #
# Canonical knob keys (the engine head)
# --------------------------------------------------------------------- #


class TestCanonicalKey:
    def test_equivalent_spellings_share_a_key(self, expander):
        n = expander.n
        base = canonical_times_key(expander, BETA, EPS)
        explicit_sizes = list(range(int(np.ceil(n / BETA)), n + 1))
        assert canonical_times_key(expander, BETA, EPS, sizes=explicit_sizes) == base
        assert canonical_times_key(expander, BETA, EPS, grid_factor=EPS) == base
        # Execution-only knobs never enter the key.
        assert canonical_times_key(expander, BETA, EPS, batch_size=3) == base
        # threshold_factor folds into the threshold exactly like a larger
        # eps with rescaled grid would.
        assert base.threshold == EPS

    def test_semantic_knobs_split_keys(self, expander):
        base = canonical_times_key(expander, BETA, EPS)
        assert canonical_times_key(expander, BETA, EPS, lazy=True) != base
        assert (
            canonical_times_key(expander, BETA, EPS, require_source=True)
            != base
        )
        assert canonical_times_key(expander, BETA, 0.3) != base
        assert (
            canonical_times_key(expander, BETA, EPS, t_schedule="doubling")
            != base
        )

    def test_validation_is_fail_fast(self, expander):
        with pytest.raises(ValueError):
            canonical_times_key(expander, BETA, 1.5)
        with pytest.raises(ValueError):
            canonical_times_key(expander, 0.5, EPS)
        with pytest.raises(TypeError, match="target"):
            canonical_times_key(expander, BETA, EPS, target="uniform")
        with pytest.raises(ValueError):
            canonical_times_key(expander, BETA, EPS, batch_size=0)


# --------------------------------------------------------------------- #
# Serving equivalence under concurrency
# --------------------------------------------------------------------- #


class TestServingEquivalence:
    @pytest.mark.parametrize("n_clients", [1, 8, 64])
    def test_concurrent_clients_bitwise_equal(
        self, expander, expander_direct, n_clients
    ):
        """N concurrent clients (wrapping around the sources) get exactly
        the per-source answers of the direct engine call."""
        srcs = [i % expander.n for i in range(n_clients)]

        async def main():
            async with MixingService(window=0.001, max_batch=16) as svc:
                return await svc.submit_many(queries(expander, srcs))

        res = asyncio.run(main())
        assert res == [expander_direct[s] for s in srcs]

    @pytest.mark.parametrize("max_batch", [1, 5, 64])
    def test_batch_composition_is_invisible(
        self, expander, expander_direct, max_batch
    ):
        """Any max_batch (1 = per-query dispatch) serves identical results."""

        async def main():
            async with MixingService(window=0.0, max_batch=max_batch) as svc:
                return await svc.submit_many(
                    queries(expander, range(expander.n))
                )

        assert asyncio.run(main()) == expander_direct

    def test_mixed_knob_spellings_coalesce_and_agree(self, expander):
        """Queries spelled differently but canonically equal are answered
        in one batch, each bitwise equal to its own direct call."""
        n = expander.n
        explicit = list(range(int(np.ceil(n / BETA)), n + 1))

        async def main():
            async with MixingService(window=0.001, max_batch=64) as svc:
                plain = svc.submit_many(queries(expander, range(0, n, 2)))
                spelled = svc.submit_many(
                    queries(
                        expander,
                        range(1, n, 2),
                        sizes=explicit,
                        grid_factor=EPS,
                        batch_size=7,
                    )
                )
                r_plain, r_spelled = await asyncio.gather(plain, spelled)
                return r_plain, r_spelled, svc.stats()

        r_plain, r_spelled, stats = asyncio.run(main())
        direct = batched_local_mixing_times(expander, BETA, EPS)
        assert r_plain == [direct[s] for s in range(0, n, 2)]
        assert r_spelled == [direct[s] for s in range(1, n, 2)]
        assert stats["coalescer"]["queries"] == n

    def test_full_knob_matrix_equivalence(self, expander):
        """Serving covers the engine's whole knob space untouched."""
        combos = [
            dict(require_source=True),
            dict(t_schedule="doubling", t_max=T_MAX),
            dict(lazy=True),
            dict(threshold_factor=1.5),
            dict(batch_size=5),
        ]
        for knobs in combos:
            direct = batched_local_mixing_times(expander, BETA, EPS, **{
                k: v for k, v in knobs.items()
            })

            async def main():
                async with MixingService(window=0.001) as svc:
                    return await svc.submit_many(
                        queries(expander, range(expander.n), **knobs)
                    )

            assert asyncio.run(main()) == direct, f"knobs {knobs} diverged"

    def test_engine_errors_propagate_to_every_waiter(self, expander):
        async def main():
            async with MixingService(window=0.001) as svc:
                results = await asyncio.gather(
                    *(
                        svc.submit(q)
                        for q in queries(
                            expander, range(6), eps=0.01, t_max=1
                        )
                    ),
                    return_exceptions=True,
                )
                return results

        results = asyncio.run(main())
        assert len(results) == 6
        assert all(isinstance(r, ConvergenceError) for r in results)

    def test_invalid_queries_fail_fast(self, expander):
        async def bad_source():
            async with MixingService() as svc:
                await svc.submit(MixingQuery(expander, expander.n, beta=BETA))

        async def bad_knob():
            async with MixingService() as svc:
                await svc.submit(
                    MixingQuery(
                        expander, 0, beta=BETA, eps=EPS, t_schedule="nope"
                    )
                )

        with pytest.raises(ValueError):
            asyncio.run(bad_source())
        with pytest.raises(ValueError):
            asyncio.run(bad_knob())


# --------------------------------------------------------------------- #
# Cache, in-flight dedup and coalescer counters
# --------------------------------------------------------------------- #


class TestCountersAndDedup:
    def test_cache_hit_miss_counters(self, expander, expander_direct):
        async def main():
            async with MixingService(window=0.0) as svc:
                first = await svc.submit_many(
                    queries(expander, range(expander.n))
                )
                mid = svc.stats()["cache"]
                second = await svc.submit_many(
                    queries(expander, range(expander.n))
                )
                return first, mid, second, svc.stats()

        first, mid, second, final = asyncio.run(main())
        assert first == expander_direct and second == expander_direct
        assert mid["misses"] == expander.n and mid["hits"] == 0
        assert final["cache"]["hits"] == expander.n
        assert final["cache"]["misses"] == expander.n  # none added in round 2
        # Round 2 never touched the engine.
        assert final["coalescer"]["queries"] == expander.n

    def test_inflight_dedup_single_solve(self, expander, expander_direct):
        """A thundering herd on one source is served by one computation."""

        async def main():
            async with MixingService(window=0.005, max_batch=64) as svc:
                herd = await asyncio.gather(
                    *(svc.submit(q) for q in queries(expander, [3] * 40))
                )
                return herd, svc.stats()

        herd, stats = asyncio.run(main())
        assert all(r == expander_direct[3] for r in herd)
        assert stats["cache"]["inflight_hits"] == 39
        assert stats["coalescer"]["queries"] == 1
        assert stats["coalescer"]["batches"] == 1

    def test_size_trigger_flushes_immediately(self, expander, expander_direct):
        async def main():
            # Window far too long to fire in-test: only the size trigger
            # (and the shutdown drain for the remainder) flushes.
            async with MixingService(window=30.0, max_batch=8) as svc:
                res = await svc.submit_many(
                    queries(expander, range(expander.n))
                )
                stats = svc.stats()
                return res, stats

        res, stats = asyncio.run(main())
        assert res == expander_direct
        assert stats["coalescer"]["size_flushes"] == expander.n // 8
        assert stats["coalescer"]["largest_batch"] == 8

    def test_drain_answers_pending_window(self, expander, expander_direct):
        """Shutdown must drain, not drop: queries still waiting in an
        unexpired window are solved during aclose()."""

        async def main():
            svc = MixingService(window=30.0, max_batch=64)
            pending = [
                asyncio.ensure_future(svc.submit(q))
                for q in queries(expander, range(6))
            ]
            await asyncio.sleep(0)  # let submits reach the coalescer
            await svc.aclose()
            res = await asyncio.gather(*pending)
            return res, svc.stats()

        res, stats = asyncio.run(main())
        assert res == [expander_direct[s] for s in range(6)]
        assert stats["coalescer"]["drain_flushes"] == 1

    def test_carry_forward_matches_structural_equals(self, expander):
        """Entries inserted under a distinct-but-equal Graph object carry
        forward too — the cache key contract is structural, not identity."""
        import numpy as np
        from repro.graphs.base import Graph

        twin = Graph.from_csr(expander.indptr, expander.indices)
        assert twin == expander and twin is not expander
        cache = ResultCache()
        key = canonical_times_key(expander, BETA, EPS)
        result = batched_local_mixing_times(
            expander, BETA, EPS, sources=[0]
        )[0]
        cache.put(twin, 0, key, result)  # stored under the twin object
        target = gen.random_regular(24, 4, seed=8)
        dmin = np.full(expander.n, result.time, dtype=np.int64)
        carried = cache.carry_forward(expander, target, dmin)
        assert carried == 1
        assert cache.get(target, 0, key) == result

    def test_registry_tracking_is_bounded(self):
        reg = GraphRegistry(max_tracked=2)
        dyns = [
            DynamicGraph(gen.random_regular(10, 4, seed=s)) for s in range(4)
        ]
        for d in dyns:
            reg.resolve(d)
        assert reg.stats()["tracked"] == 2
        with pytest.raises(ValueError):
            GraphRegistry(max_tracked=0)

    def test_result_cache_lru_eviction(self, expander):
        cache = ResultCache(maxsize=2)
        key = canonical_times_key(expander, BETA, EPS)
        cache.put(expander, 0, key, "r0")
        cache.put(expander, 1, key, "r1")
        assert cache.get(expander, 0, key) == "r0"  # refresh 0
        cache.put(expander, 2, key, "r2")  # evicts 1
        assert cache.get(expander, 1, key) is None
        assert cache.get(expander, 0, key) == "r0"
        st = cache.stats()
        assert st["evictions"] == 1 and st["size"] == 2
        assert ResultCache(0).stats()["maxsize"] == 0
        with pytest.raises(ValueError):
            ResultCache(-1)


# --------------------------------------------------------------------- #
# Dynamic graphs: registry, carry-forward, dirty sources only
# --------------------------------------------------------------------- #


class TestDynamicServing:
    def _bridge_setup(self):
        base, updates = barbell_bridge_schedule(4, 12, cycles=2, hold=0, seed=5)
        return DynamicGraph(base), updates

    def test_registry_resolves_and_guards(self, expander):
        reg = GraphRegistry()
        reg.register("x", expander)
        assert reg.resolve("x") is expander
        assert reg.resolve(expander) is expander
        with pytest.raises(KeyError):
            reg.resolve("missing")
        with pytest.raises(ValueError):
            reg.register("x", gen.cycle_graph(5))
        reg.register("x", expander)  # same object is fine
        with pytest.raises(TypeError):
            reg.resolve(42)
        reg.unregister("x")
        assert reg.names() == []

    def test_mutation_invalidates_only_dirty_sources(self):
        """After a bridge event, exactly the sources whose τ-radius the
        edit penetrates miss; every clean source is served from the
        carried-forward cache."""
        dyn, updates = self._bridge_setup()
        n = dyn.n
        kw = dict(beta=3.0, eps=0.4, t_max=T_MAX)

        async def main():
            async with MixingService(window=0.0) as svc:
                svc.registry.register("bb", dyn)
                r1 = await svc.submit_many(
                    [MixingQuery("bb", s, **kw) for s in range(n)]
                )
                pre = svc.stats()["cache"]
                prev_g = dyn.snapshot()
                dyn.apply(updates[0])
                new_g = dyn.snapshot()
                r2 = await svc.submit_many(
                    [MixingQuery("bb", s, **kw) for s in range(n)]
                )
                return r1, r2, pre, svc.stats(), prev_g, new_g

        r1, r2, pre, post, prev_g, new_g = asyncio.run(main())
        # Exactness after the event, with a warm (carried) cache.
        direct = batched_local_mixing_times(new_g, 3.0, 0.4, t_max=T_MAX)
        assert r2 == direct
        # The clean set is exactly the locality-pruning keep set.
        dmin = edit_distance_bounds(prev_g, new_g)
        clean = [s for s in range(n) if r1[s].time <= dmin[s]]
        assert clean, "bridge surgery should leave some clique sources clean"
        assert post["cache"]["carried_forward"] == len(clean)
        assert post["cache"]["hits"] - pre["hits"] == len(clean)
        assert post["cache"]["misses"] - pre["misses"] == n - len(clean)
        # Carried answers really are the exact new-snapshot answers.
        for s in clean:
            assert r2[s] == direct[s] == r1[s]

    def test_structural_round_trip_hits_without_carry(self):
        """remove+add round trip returns the same snapshot object, so the
        second query round is pure cache hits — no change event at all."""
        dyn, _ = self._bridge_setup()
        n = dyn.n
        kw = dict(beta=3.0, eps=0.4, t_max=T_MAX)
        e = next(iter(dyn.edges()))

        async def main():
            async with MixingService(window=0.0) as svc:
                svc.registry.register("bb", dyn)
                r1 = await svc.submit_many(
                    [MixingQuery("bb", s, **kw) for s in range(n)]
                )
                dyn.remove_edge(*e)
                dyn.add_edge(*e)
                r2 = await svc.submit_many(
                    [MixingQuery("bb", s, **kw) for s in range(n)]
                )
                return r1, r2, svc.stats()

        r1, r2, stats = asyncio.run(main())
        assert r1 == r2
        assert stats["cache"]["hits"] == len(r1)
        assert stats["registry"]["changes"] == 0
        assert stats["cache"]["carried_forward"] == 0

    def test_entries_carried_across_degree_change(self):
        """A degree-vector change does not stop carry-forward: the target
        ``1/R`` involves no degree, so entries ride locality pruning."""
        dyn, updates = self._bridge_setup()
        n = dyn.n
        kw = dict(beta=3.0, eps=0.4, t_max=T_MAX)

        async def main():
            async with MixingService(window=0.0) as svc:
                svc.registry.register("bb", dyn)
                await svc.submit_many(
                    [MixingQuery("bb", s, **kw) for s in range(n)]
                )
                prev_g = dyn.snapshot()
                dyn.apply(updates[0])  # bridge add/remove changes degrees
                new_g = dyn.snapshot()
                res = await svc.submit_many(
                    [MixingQuery("bb", s, **kw) for s in range(n)]
                )
                carried = svc.stats()["cache"]["carried_forward"]
                return prev_g, new_g, carried, res

        prev_g, new_g, carried, res = asyncio.run(main())
        assert not np.array_equal(prev_g.degrees, new_g.degrees)
        dmin = edit_distance_bounds(prev_g, new_g)
        direct_prev = batched_local_mixing_times(prev_g, 3.0, 0.4, t_max=T_MAX)
        assert carried == sum(direct_prev[s].time <= dmin[s] for s in range(n))
        assert carried > 0
        assert res == batched_local_mixing_times(new_g, 3.0, 0.4, t_max=T_MAX)

    def test_node_churn_is_served_exactly(self):
        """n-changing events (no carry-forward possible) still serve
        exact answers and are counted as n_changes."""
        dyn = DynamicGraph(gen.random_regular(16, 4, seed=3))
        kw = dict(beta=BETA, eps=0.4, t_max=T_MAX)

        async def main():
            async with MixingService(window=0.0) as svc:
                svc.registry.register("churn", dyn)
                await svc.submit_many(
                    [MixingQuery("churn", s, **kw) for s in range(dyn.n)]
                )
                dyn.add_node(neighbors=[0, 1, 2])
                res = await svc.submit_many(
                    [MixingQuery("churn", s, **kw) for s in range(dyn.n)]
                )
                return res, dyn.snapshot(), svc.stats()

        res, snap, stats = asyncio.run(main())
        assert res == batched_local_mixing_times(snap, BETA, 0.4, t_max=T_MAX)
        assert stats["registry"]["n_changes"] == 1
        assert stats["cache"]["carried_forward"] == 0

    def test_direct_dynamic_graph_is_tracked(self):
        """Passing the DynamicGraph object (no name) gets the same change
        tracking as a registered one."""
        dyn, updates = self._bridge_setup()
        kw = dict(beta=3.0, eps=0.4, t_max=T_MAX)
        n = dyn.n

        async def main():
            async with MixingService(window=0.0) as svc:
                await svc.submit_many(
                    [MixingQuery(dyn, s, **kw) for s in range(n)]
                )
                dyn.apply(updates[0])
                await svc.submit_many(
                    [MixingQuery(dyn, s, **kw) for s in range(n)]
                )
                return svc.stats()

        stats = asyncio.run(main())
        assert stats["registry"]["changes"] == 1
        assert stats["cache"]["carried_forward"] > 0


# --------------------------------------------------------------------- #
# Executor integration + clean shutdown
# --------------------------------------------------------------------- #


class TestExecutorAndShutdown:
    def test_sharded_serving_identical(self, expander, expander_direct):
        async def main():
            async with MixingService(window=0.001, n_workers=2) as svc:
                res = await svc.submit_many(
                    queries(expander, range(expander.n))
                )
                return res, svc.stats()

        res, stats = asyncio.run(main())
        assert res == expander_direct
        ex = stats["executor"]
        assert ex["calls"] >= 1 and ex["items_processed"] >= expander.n
        assert sum(ex["per_worker_solves"].values()) == ex["tasks_dispatched"]

    def test_concurrent_groups_share_one_executor(self, expander):
        """Two graphs' batches flushing concurrently drive the shared pool
        from two engine threads at once — publication and stats must stay
        consistent, and answers exact for both."""
        other = gen.random_regular(20, 4, seed=11)

        async def main():
            async with MixingService(window=0.001, n_workers=2) as svc:
                r_a, r_b = await asyncio.gather(
                    svc.submit_many(queries(expander, range(expander.n))),
                    svc.submit_many(queries(other, range(other.n))),
                )
                return r_a, r_b, svc.stats()["executor"]

        r_a, r_b, ex = asyncio.run(main())
        assert r_a == batched_local_mixing_times(expander, BETA, EPS)
        assert r_b == batched_local_mixing_times(other, BETA, EPS)
        assert ex["published_graphs"] == 2
        assert sum(ex["per_worker_solves"].values()) == ex["tasks_dispatched"]

    def test_owned_pool_closed_and_segments_unlinked(self, expander):
        """aclose() tears down the owned pool; its shared segments cannot
        be re-attached afterwards (no leaked shared memory)."""

        async def main():
            svc = MixingService(window=0.0, n_workers=1)
            await svc.submit_many(queries(expander, range(4)))
            ex = svc._executor
            name = ex.publish(expander).shm_name
            await svc.aclose()
            return ex, name

        ex, name = asyncio.run(main())
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)
        with pytest.raises(RuntimeError):
            ex.publish(expander)

    def test_caller_supplied_executor_stays_open(self, expander):
        from repro.parallel import ShardExecutor

        with ShardExecutor(1) as ex:

            async def main():
                async with MixingService(window=0.0, executor=ex) as svc:
                    return await svc.submit_many(queries(expander, range(4)))

            res = asyncio.run(main())
            # Still usable after the service closed.
            assert ex.stats()["calls"] >= 1
            ex.publish(expander)
        assert res == batched_local_mixing_times(
            expander, BETA, EPS, sources=range(4)
        )

    def test_closed_service_refuses_submits(self, expander):
        async def main():
            svc = MixingService()
            await svc.aclose()
            await svc.aclose()  # idempotent
            with pytest.raises(RuntimeError):
                await svc.submit(MixingQuery(expander, 0, beta=BETA, eps=EPS))

        asyncio.run(main())

    def test_executor_and_workers_are_exclusive(self):
        with pytest.raises(ValueError):
            MixingService(executor=object(), n_workers=2)
        with pytest.raises(ValueError):
            MixingService(n_workers=0)


class TestQueryCoalescerStandalone:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            QueryCoalescer(lambda *a: [], window=-1)
        with pytest.raises(ValueError):
            QueryCoalescer(lambda *a: [], max_batch=0)
