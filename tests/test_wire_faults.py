"""Fault injection for the wire serving stack (repro.service.wire).

Each test drives a real server over real sockets and breaks something on
purpose — a client vanishing mid-coalesced-batch, a drain racing
in-flight WebSocket streams, a deadline expiring while its flush is
running, the registry's graph mutating between admission and solve — and
then asserts the contract held anyway: every *surviving* waiter gets the
bitwise-exact answer, every admitted query lands in exactly one counter
bucket, and nothing leaks (no orphaned futures in the service or
coalescer, no shared-memory segments after close, no lingering
connection or query tasks in the server).

No pytest-asyncio in the image — each test drives its own event loop via
``asyncio.run``.
"""

import asyncio
from multiprocessing import shared_memory

import pytest

from repro.dynamic import DynamicGraph
from repro.engine import batched_local_mixing_times
from repro.graphs import generators as gen
from repro.service import (
    DeadlineExceededError,
    GraphRegistry,
    MixingQuery,
    MixingService,
    OverloadedError,
    ServiceClosedError,
)
from repro.service.wire import WireClient, WireServer, http_query

BETA = 4.0
EPS = 0.25


@pytest.fixture(scope="module")
def expander():
    return gen.random_regular(24, 4, seed=7)


@pytest.fixture(scope="module")
def expander_direct(expander):
    return batched_local_mixing_times(expander, BETA, EPS)


def wire_query(source, **overrides):
    kw = dict(beta=BETA, eps=EPS)
    kw.update(overrides)
    return MixingQuery("g", source, **kw)


def make_registry(graph):
    reg = GraphRegistry()
    reg.register("g", graph)
    return reg


def slow_solver(svc, delay):
    """Wrap the service's batch solver with a sleep — a deterministic
    'the engine is busy' fault (runs on the coalescer's worker thread,
    so the event loop keeps spinning underneath it)."""
    import time

    inner = svc._solve_batch

    def solve(g, sources, kwargs):
        time.sleep(delay)
        return inner(g, sources, kwargs)

    svc._coalescer._solve = solve
    return solve


def assert_no_leaks(svc, server):
    """The post-drain invariant: no orphaned futures or tasks anywhere."""
    assert svc._inflight == {}
    assert svc._coalescer._groups == {}
    assert svc._coalescer._tasks == set()
    assert server._query_tasks == set()
    assert server._conn_tasks == set()
    assert server._pending == 0


def check_accounting(stats):
    """Every query that arrived ended in exactly one bucket."""
    assert stats["requests"] == stats["admitted"] + stats["rejected"]
    assert stats["admitted"] == (
        stats["answered"] + stats["expired"] + stats["errored"]
    )


# --------------------------------------------------------------------- #
# Client disconnect mid-coalesced-batch
# --------------------------------------------------------------------- #


class TestClientDisconnect:
    def test_disconnect_mid_batch_leaves_cowaiters_exact(
        self, expander, expander_direct
    ):
        """Client A and client B coalesce into one batch; A's socket is
        aborted (no close frame) before the flush.  B's answer must still
        be bitwise exact, the batch still fills the cache, and nothing
        leaks."""

        async def main():
            reg = make_registry(expander)
            async with MixingService(registry=reg, window=0.15) as svc:
                async with WireServer(svc) as server:
                    a = await WireClient(server.host, server.port).connect()
                    b = await WireClient(server.host, server.port).connect()
                    try:
                        fut_a = asyncio.ensure_future(
                            a.submit(wire_query(0))
                        )
                        fut_b = asyncio.ensure_future(
                            b.submit(wire_query(1))
                        )
                        # Both sit in the same coalescing group now; rip
                        # A's transport out from under the batch.
                        await asyncio.sleep(0.03)
                        a._writer.transport.abort()
                        with pytest.raises(ConnectionResetError):
                            await fut_a
                        result_b = await fut_b
                        assert result_b == expander_direct[1]
                        # The dead client's solve completed anyway: both
                        # sources are cached for the next asker.
                        r0 = await b.submit(wire_query(0))
                        assert r0 == expander_direct[0]
                        assert svc.stats()["cache"]["hits"] >= 1
                    finally:
                        await a.aclose()
                        await b.aclose()
                    stats = server.stats()
                assert_no_leaks(svc, server)
            check_accounting(stats)
            # A's answer hit a dead socket: answered server-side, but the
            # failed delivery was observed.
            assert stats["answered"] == 3
            assert server._disconnects.value >= 1

        asyncio.run(main())

    def test_abort_with_many_inflight_frames(self, expander, expander_direct):
        """A client aborts with a whole spread of queries in flight; a
        second client's interleaved queries are unaffected and the server
        drains clean."""

        async def main():
            reg = make_registry(expander)
            async with MixingService(registry=reg, window=0.05) as svc:
                async with WireServer(svc) as server:
                    a = await WireClient(server.host, server.port).connect()
                    b = await WireClient(server.host, server.port).connect()
                    try:
                        futs_a = [
                            asyncio.ensure_future(a.submit(wire_query(s)))
                            for s in range(8)
                        ]
                        futs_b = [
                            asyncio.ensure_future(b.submit(wire_query(s)))
                            for s in range(8, 16)
                        ]
                        await asyncio.sleep(0.01)
                        a._writer.transport.abort()
                        for fut in futs_a:
                            with pytest.raises(ConnectionResetError):
                                await fut
                        results_b = await asyncio.gather(*futs_b)
                        assert results_b == expander_direct[8:16]
                    finally:
                        await a.aclose()
                        await b.aclose()
                    stats = server.stats()
                assert_no_leaks(svc, server)
            check_accounting(stats)

        asyncio.run(main())


# --------------------------------------------------------------------- #
# Drain with in-flight streams
# --------------------------------------------------------------------- #


class TestDrain:
    def test_drain_answers_inflight_ws_queries(
        self, expander, expander_direct
    ):
        """aclose() racing live WebSocket queries: every in-flight query
        is answered (bitwise), only post-drain arrivals are refused."""

        async def main():
            reg = make_registry(expander)
            async with MixingService(registry=reg, window=0.05) as svc:
                slow_solver(svc, 0.1)
                server = await WireServer(svc).start()
                client = await WireClient(server.host, server.port).connect()
                futs = [
                    asyncio.ensure_future(client.submit(wire_query(s)))
                    for s in range(6)
                ]
                await asyncio.sleep(0.02)  # admitted, solve in flight
                closer = asyncio.ensure_future(server.aclose())
                results = await asyncio.gather(*futs)
                assert results == expander_direct[:6]
                await closer
                stats = server.stats()
                check_accounting(stats)
                assert stats["answered"] == 6
                assert_no_leaks(svc, server)
                await client.aclose()

        asyncio.run(main())

    def test_queries_during_drain_get_shutting_down(
        self, expander, expander_direct
    ):
        """A query submitted on a live connection *while* the server
        drains is answered with the typed shutting_down error — cleanly
        errored, never dropped or left hanging."""

        async def main():
            reg = make_registry(expander)
            async with MixingService(registry=reg, window=0.05) as svc:
                slow_solver(svc, 0.15)
                server = await WireServer(svc).start()
                client = await WireClient(server.host, server.port).connect()
                fut = asyncio.ensure_future(client.submit(wire_query(0)))
                await asyncio.sleep(0.02)
                closer = asyncio.ensure_future(server.aclose())
                await asyncio.sleep(0.02)  # drain underway, socket alive
                late = asyncio.ensure_future(client.submit(wire_query(1)))
                assert await fut == expander_direct[0]
                with pytest.raises(
                    (ServiceClosedError, ConnectionResetError)
                ):
                    await late
                await closer
                stats = server.stats()
                check_accounting(stats)
                assert_no_leaks(svc, server)
                await client.aclose()

        asyncio.run(main())

    def test_new_connections_refused_after_close(self, expander):
        async def main():
            reg = make_registry(expander)
            async with MixingService(registry=reg) as svc:
                server = await WireServer(svc).start()
                host, port = server.host, server.port
                await server.aclose()
                with pytest.raises(ConnectionError):
                    await http_query(host, port, wire_query(0))

        asyncio.run(main())


# --------------------------------------------------------------------- #
# Deadline expiry racing the flush
# --------------------------------------------------------------------- #


class TestDeadlineRace:
    def test_expiry_races_flush_cowaiter_unharmed(
        self, expander, expander_direct
    ):
        """Two clients coalesce; one's deadline expires while the shared
        solve runs.  The expiring waiter gets the typed 504, the
        co-waiter gets the bitwise answer, and the solve still fills the
        cache."""

        async def main():
            reg = make_registry(expander)
            async with MixingService(registry=reg, window=0.02) as svc:
                slow_solver(svc, 0.2)
                async with WireServer(svc) as server:
                    async with WireClient(
                        server.host, server.port
                    ) as client:
                        hasty = asyncio.ensure_future(
                            client.submit(wire_query(2, deadline=0.05))
                        )
                        patient = asyncio.ensure_future(
                            client.submit(wire_query(2))
                        )
                        with pytest.raises(DeadlineExceededError):
                            await hasty
                        assert await patient == expander_direct[2]
                        # The abandoned solve fed the cache regardless.
                        again = await client.submit(
                            wire_query(2, deadline=0.001)
                        )
                        assert again == expander_direct[2]
                    stats = server.stats()
                assert_no_leaks(svc, server)
            check_accounting(stats)
            assert stats["expired"] == 1
            assert stats["answered"] == 2
            assert svc.stats()["service"]["deadline_expired"] == 1
            assert svc.stats()["cache"]["hits"] >= 1

        asyncio.run(main())

    def test_already_expired_deadline_is_immediate_504(self, expander):
        async def main():
            reg = make_registry(expander)
            async with MixingService(registry=reg, window=0.0) as svc:
                async with WireServer(svc) as server:
                    with pytest.raises(DeadlineExceededError):
                        await http_query(
                            server.host, server.port,
                            wire_query(0, deadline=-1.0),
                        )
                    stats = server.stats()
                assert_no_leaks(svc, server)
            check_accounting(stats)
            assert stats["expired"] == 1

        asyncio.run(main())

    def test_deadline_flush_beats_window(self, expander, expander_direct):
        """A tight deadline inside a long window must flush early enough
        to be answered in time (the deadline-aware re-arm), not wait out
        the window and expire."""

        async def main():
            reg = make_registry(expander)
            # Window far beyond the deadline: only a deadline-aware
            # flush can answer this query in time.
            async with MixingService(registry=reg, window=5.0) as svc:
                async with WireServer(svc) as server:
                    result = await http_query(
                        server.host, server.port,
                        wire_query(4, deadline=0.5),
                    )
                    assert result == expander_direct[4]
                    flushes = svc.stats()["coalescer"]
                    assert flushes["deadline_flushes"] == 1
                    assert flushes["window_flushes"] == 0

        asyncio.run(main())


# --------------------------------------------------------------------- #
# Registry mutation between admission and solve
# --------------------------------------------------------------------- #


class TestRegistryMutationRace:
    def test_mutation_mid_stream_answers_admission_snapshot(self):
        """A registered DynamicGraph mutates while queries sit in the
        coalescer: each answer must be exact for the snapshot current at
        its own admission, before/after mutations alike."""

        async def main():
            dg = DynamicGraph(gen.random_regular(20, 4, seed=3))
            reg = GraphRegistry()
            reg.register("g", dg)
            async with MixingService(registry=reg, window=0.08) as svc:
                async with WireServer(svc) as server:
                    async with WireClient(
                        server.host, server.port
                    ) as client:
                        g0 = dg.snapshot()
                        before = asyncio.ensure_future(
                            client.submit(wire_query(0))
                        )
                        await asyncio.sleep(0.02)  # admitted against g0
                        u, v = next(iter(dg.edges()))
                        w = next(
                            w for w in range(dg.n)
                            if w != u and not dg.has_edge(u, w)
                        )
                        dg.rewire(u, v, w)
                        g1 = dg.snapshot()
                        assert g1 is not g0
                        after = asyncio.ensure_future(
                            client.submit(wire_query(0))
                        )
                        r_before, r_after = await asyncio.gather(
                            before, after
                        )
                        assert r_before == batched_local_mixing_times(
                            g0, BETA, EPS, sources=[0]
                        )[0]
                        assert r_after == batched_local_mixing_times(
                            g1, BETA, EPS, sources=[0]
                        )[0]
                    stats = server.stats()
                assert_no_leaks(svc, server)
            check_accounting(stats)
            assert stats["answered"] == 2

        asyncio.run(main())


# --------------------------------------------------------------------- #
# Backpressure
# --------------------------------------------------------------------- #


class TestBackpressure:
    def test_admission_bound_rejects_with_429(
        self, expander, expander_direct
    ):
        """More concurrent queries than max_pending: the excess is
        rejected *immediately* with the typed overloaded error, the
        admitted ones are answered exactly, and the accounting closes."""

        async def main():
            reg = make_registry(expander)
            async with MixingService(registry=reg, window=0.05) as svc:
                slow_solver(svc, 0.15)
                async with WireServer(svc, max_pending=2) as server:
                    async with WireClient(
                        server.host, server.port
                    ) as client:
                        futs = [
                            asyncio.ensure_future(
                                client.submit(wire_query(s))
                            )
                            for s in range(6)
                        ]
                        outcomes = await asyncio.gather(
                            *futs, return_exceptions=True
                        )
                    stats = server.stats()
                assert_no_leaks(svc, server)
            check_accounting(stats)
            rejected = [
                o for o in outcomes if isinstance(o, OverloadedError)
            ]
            answered = [
                (s, o) for s, o in enumerate(outcomes)
                if not isinstance(o, BaseException)
            ]
            assert len(rejected) == stats["rejected"] >= 1
            assert len(answered) == stats["answered"] == stats["admitted"]
            for s, o in answered:
                assert o == expander_direct[s]

        asyncio.run(main())


# --------------------------------------------------------------------- #
# Priority preemption under admission pressure
# --------------------------------------------------------------------- #


class TestPriorityPreemption:
    def test_equal_priority_never_preempts(self, expander, expander_direct):
        """A full queue plus an equal-priority arrival is a plain 429:
        preemption needs *strictly* higher priority."""

        async def main():
            reg = make_registry(expander)
            async with MixingService(registry=reg, window=0.05) as svc:
                slow_solver(svc, 0.2)
                async with WireServer(svc, max_pending=1) as server:
                    async with WireClient(
                        server.host, server.port
                    ) as client:
                        parked = asyncio.ensure_future(
                            client.submit(wire_query(0))
                        )
                        await asyncio.sleep(0.02)  # parked is admitted
                        with pytest.raises(OverloadedError):
                            await client.submit(wire_query(1))
                        assert await parked == expander_direct[0]
                    stats = server.stats()
                assert_no_leaks(svc, server)
            check_accounting(stats)
            assert stats["preempted"] == 0
            assert stats["rejected"] == 1
            assert stats["answered"] == 1

        asyncio.run(main())

    def test_higher_priority_preempts_lowest_waiter(
        self, expander, expander_direct
    ):
        """Queue full of priority-0 work: a priority-5 arrival takes the
        slot — the victim gets the typed 429, the preemptor is answered
        bitwise, the counter moves, and the accounting still closes
        (the victim is admitted + errored, never un-counted)."""

        async def main():
            reg = make_registry(expander)
            async with MixingService(registry=reg, window=0.05) as svc:
                slow_solver(svc, 0.2)
                async with WireServer(svc, max_pending=1) as server:
                    async with WireClient(
                        server.host, server.port
                    ) as client:
                        victim = asyncio.ensure_future(
                            client.submit(wire_query(0))
                        )
                        await asyncio.sleep(0.02)  # victim is admitted
                        urgent = await client.submit(
                            wire_query(1, priority=5)
                        )
                        assert urgent == expander_direct[1]
                        with pytest.raises(OverloadedError):
                            await victim
                    stats = server.stats()
                    flight = svc.flight.records()
                assert_no_leaks(svc, server)
            check_accounting(stats)
            assert stats["preempted"] == 1
            assert stats["rejected"] == 0  # the victim *was* admitted
            assert stats["admitted"] == 2
            assert stats["answered"] == 1
            assert stats["errored"] == 1
            # The preempted query still left a flight record — its wire
            # waiter was cancelled, which the recorder keeps as a typed
            # error outcome next to the preemptor's ok.
            outcomes = sorted(r.outcome for r in flight)
            assert outcomes == ["error:CancelledError", "ok"]

        asyncio.run(main())

    def test_preemptor_cannot_be_preempted_by_lower(self, expander):
        """Priorities are compared against *waiting admitted* queries:
        after a priority-5 query takes the slot, a late priority-1
        arrival gets 429 instead of bouncing the higher one."""

        async def main():
            reg = make_registry(expander)
            async with MixingService(registry=reg, window=0.05) as svc:
                slow_solver(svc, 0.25)
                async with WireServer(svc, max_pending=1) as server:
                    async with WireClient(
                        server.host, server.port
                    ) as client:
                        high = asyncio.ensure_future(
                            client.submit(wire_query(0, priority=5))
                        )
                        await asyncio.sleep(0.02)
                        with pytest.raises(OverloadedError):
                            await client.submit(wire_query(1, priority=1))
                        assert await high is not None
                    stats = server.stats()
                assert_no_leaks(svc, server)
            check_accounting(stats)
            assert stats["preempted"] == 0
            assert stats["rejected"] == 1

        asyncio.run(main())


# --------------------------------------------------------------------- #
# No leaked shared memory
# --------------------------------------------------------------------- #


class TestNoLeakedSegments:
    def test_wire_served_pool_segments_unlinked_after_close(self, expander):
        """Wire queries solved on an owned shard pool: after the full
        stack closes, the pool's shared segments cannot be re-attached."""

        async def main():
            reg = make_registry(expander)
            async with MixingService(
                registry=reg, window=0.01, n_workers=1
            ) as svc:
                async with WireServer(svc) as server:
                    async with WireClient(
                        server.host, server.port
                    ) as client:
                        results = await asyncio.gather(
                            *(client.submit(wire_query(s))
                              for s in range(8))
                        )
                    assert results == batched_local_mixing_times(
                        expander, BETA, EPS, sources=range(8)
                    )
                    name = svc._executor.publish(expander).shm_name
                assert_no_leaks(svc, server)
            return name

        name = asyncio.run(main())
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


# --------------------------------------------------------------------- #
# Oversized WebSocket control frames
# --------------------------------------------------------------------- #


class TestControlFrameLimit:
    def test_oversized_ping_closes_without_pong(self, expander):
        """RFC 6455 §5.5 caps control frames at 125 bytes.  A 125-byte
        ping is answered with its pong; a 126-byte ping is refused before
        its payload is read: the connection closes, no pong is echoed,
        and the admission accounting stays closed."""
        import base64
        import os

        from repro.service.wire import http as wire_http

        async def open_ws(server):
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            key = base64.b64encode(os.urandom(16)).decode("latin-1")
            writer.write(
                wire_http.render_request(
                    "GET", "/v1/ws", host=f"{server.host}:{server.port}",
                    extra_headers=(
                        ("Connection", "Upgrade"),
                        ("Upgrade", "websocket"),
                        ("Sec-WebSocket-Key", key),
                        ("Sec-WebSocket-Version", "13"),
                    ),
                )
            )
            await writer.drain()
            response = await wire_http.read_response(reader)
            assert response.method == "101"
            return reader, writer

        async def read_frames(reader):
            """Every frame the server sends until it closes the socket."""
            frames = []
            while True:
                try:
                    head = await reader.readexactly(2)
                except asyncio.IncompleteReadError:
                    return frames
                n = head[1] & 0x7F
                if n == 126:
                    n = int.from_bytes(await reader.readexactly(2), "big")
                frames.append((head[0] & 0x0F, await reader.readexactly(n)))

        async def main():
            reg = make_registry(expander)
            async with MixingService(registry=reg, window=0.0) as svc:
                async with WireServer(svc) as server:
                    reader, writer = await open_ws(server)
                    small = b"p" * 125
                    writer.write(
                        wire_http.ws_encode_frame(
                            wire_http.OP_PING, small, mask=True
                        )
                    )
                    await writer.drain()
                    head = await reader.readexactly(2)
                    pong = await reader.readexactly(head[1] & 0x7F)
                    assert head[0] & 0x0F == wire_http.OP_PONG
                    assert pong == small
                    writer.write(
                        wire_http.ws_encode_frame(
                            wire_http.OP_PING, b"p" * 126, mask=True
                        )
                    )
                    await writer.drain()
                    frames = await asyncio.wait_for(read_frames(reader), 5)
                    writer.close()
                    for _ in range(100):
                        if not server._conn_tasks:
                            break
                        await asyncio.sleep(0.01)
                    stats = server.stats()
                    assert_no_leaks(svc, server)
            return frames, stats

        frames, stats = asyncio.run(main())
        assert wire_http.OP_PONG not in [op for op, _ in frames]
        assert all(op == wire_http.OP_CLOSE for op, _ in frames)
        check_accounting(stats)
        assert stats["requests"] == 0 and stats["connections"] == 0
