"""One knob table at every front door (repro.walks.local_mixing._KNOB_RULES).

The per-source loop, the batched and sharded engines, the canonical key,
the dynamic tracker and the serving layer's query model all check the τ
knobs against the same rules, so a hostile value fails the same way at
every door: the same exception type and the same message.  Definition 1's
doors (the global and the set mixing time) share the table too.  A wrong type
is a ``TypeError``; a non-finite real or an out-of-range value is a
``ValueError``.  numpy scalar spellings of valid knobs answer bitwise
equal to the plain ``int``/``float`` spellings.
"""

import asyncio
import json
import math
import threading
import urllib.request

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dynamic import MixingTracker
from repro.engine import (
    batched_local_mixing_times,
    batched_mixing_times,
    canonical_times_key,
)
from repro.graphs import generators as gen
from repro.parallel import api as parallel_api
from repro.parallel import parallel_local_mixing_times
from repro.service import GraphRegistry, MixingQuery, MixingService
from repro.service.wire import WireServer
from repro.service.wire import protocol
from repro.walks import graph_mixing_time, mixing_time, set_mixing_time
from repro.walks.local_mixing import local_mixing_time, size_grid

BETA = 4.0
EPS = 0.25


@pytest.fixture(scope="module")
def g():
    return gen.random_regular(40, 4, seed=1)


def _within(seconds, fn):
    """``fn()``'s value (or exception), failing if it has not returned
    after ``seconds`` — a hang fails the test instead of stalling it."""
    box = {}

    def run():
        try:
            box["value"] = fn()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            box["error"] = exc

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(seconds)
    assert not worker.is_alive(), f"no answer within {seconds} s"
    if "error" in box:
        raise box["error"]
    return box["value"]


# --------------------------------------------------------------------- #
# The hostile-value table, at every front door
# --------------------------------------------------------------------- #

#: (field, value, exception type) — each value Python would otherwise
#: coerce into a different query, answer wrongly, or run forever on.
HOSTILE = [
    ("source", 1.9, TypeError),
    ("source", True, TypeError),
    ("beta", math.inf, ValueError),
    ("beta", math.nan, ValueError),
    ("beta", True, TypeError),
    ("eps", math.nan, ValueError),
    ("threshold_factor", math.nan, ValueError),
    ("threshold_factor", math.inf, ValueError),
    ("grid_factor", math.nan, ValueError),
    ("grid_factor", math.inf, ValueError),
    ("lazy", "false", TypeError),
    ("sizes", [20.7], TypeError),
    ("sizes", [True], TypeError),
    ("t_max", 20.5, TypeError),
    ("batch_size", True, TypeError),
    ("target", None, TypeError),
]


def _loop(g, k):
    k.pop("batch_size")
    return local_mixing_time(g, k.pop("source"), k.pop("beta"), **k)


def _batched(g, k):
    return batched_local_mixing_times(g, sources=[k.pop("source")], **k)


def _parallel(g, k):
    return parallel_local_mixing_times(
        g, sources=[k.pop("source")], n_workers=2, **k
    )


def _canonical(g, k):
    del k["source"]
    return canonical_times_key(g, **k)


def _tracker(g, k):
    del k["source"], k["batch_size"]
    return MixingTracker(**k)


def _service(g, k):
    async def main():
        async with MixingService(window=0.0) as svc:
            return await svc.submit(MixingQuery(g, **k))

    return asyncio.run(main())


#: door → the knobs it takes (the key and the tracker take no source;
#: the loop and the tracker take no batch_size).
DOORS = {
    "local_mixing_time": (_loop, {"source"}),
    "batched": (_batched, {"source", "batch_size"}),
    "parallel": (_parallel, {"source", "batch_size"}),
    "canonical_times_key": (_canonical, {"batch_size"}),
    "tracker": (_tracker, set()),
    "service": (_service, {"source", "batch_size"}),
}

_OPTIONAL_DOOR_KNOBS = {"source", "batch_size"}


def _outcome(door, g, field, value):
    call, _ = DOORS[door]
    knobs = dict(source=1, beta=BETA, eps=EPS, batch_size=None)
    knobs[field] = value
    try:
        _within(30, lambda: call(g, knobs))
    except Exception as exc:  # noqa: BLE001 - the type is the point
        return type(exc), str(exc)
    return None


class TestHostileValues:
    @pytest.mark.parametrize(
        "field,value,exc_type", HOSTILE,
        ids=[f"{f}={v!r}" for f, v, _ in HOSTILE],
    )
    def test_every_door_raises_the_same_error(
        self, g, field, value, exc_type, monkeypatch
    ):
        def no_pool(*_a, **_k):
            raise AssertionError("a pool started before validation")

        monkeypatch.setattr(parallel_api, "_resolve_executor", no_pool)
        got = {
            door: _outcome(door, g, field, value)
            for door, (_, takes) in DOORS.items()
            if field not in _OPTIONAL_DOOR_KNOBS or field in takes
        }
        expected = got["batched"]
        assert expected is not None and expected[0] is exc_type, got
        assert field in expected[1], got
        for door, outcome in got.items():
            assert outcome == expected, door

    def test_wire_gives_the_same_message(self, g):
        """The decoder delegates to the query model: a mistyped field is
        ``bad_request`` with the in-process message."""
        req = protocol.encode_request(MixingQuery("g", 1, beta=BETA), id=1)
        req["query"]["source"] = 1.9
        with pytest.raises(protocol.WireError) as e:
            protocol.decode_request(req)
        assert e.value.code == "bad_request"
        assert str(e.value) == _outcome("batched", g, "source", 1.9)[1]

    def test_ranges_wait_for_submission(self):
        """A query object checks types only: a well-typed value out of
        range is refused at submission, where it is recorded."""
        MixingQuery("g", -1, beta=0.5, eps=2.0, t_max=-1, batch_size=0)
        with pytest.raises(TypeError, match="priority"):
            MixingQuery("g", 0, beta=BETA, priority=math.inf)
        with pytest.raises(ValueError, match="deadline"):
            MixingQuery("g", 0, beta=BETA, deadline=math.nan)


# --------------------------------------------------------------------- #
# Definition 1: the global and set mixing times share the table
# --------------------------------------------------------------------- #

#: (field, value, exception type) for τ_s^mix(ε) and τ_s^S(ε).
HOSTILE_MIX = [
    ("source", 1.9, TypeError),
    ("source", True, TypeError),
    ("source", -1, ValueError),
    ("source", 99, ValueError),
    ("eps", math.nan, ValueError),
    ("lazy", "no", TypeError),
    ("t_max", 2.5, TypeError),
    ("t_max", -1, ValueError),
    ("method", "quantum", ValueError),
]


def _mix_loop(g, k):
    return mixing_time(g, k.pop("source"), k.pop("eps"), **k)


def _mix_batched(g, k):
    return batched_mixing_times(g, k.pop("eps"), sources=[k.pop("source")], **k)


def _mix_graph(g, k):
    return graph_mixing_time(g, k.pop("eps"), sources=[k.pop("source")], **k)


def _mix_set(g, k):
    return set_mixing_time(g, k.pop("source"), range(g.n), k.pop("eps"), **k)


#: door → (call, the method it runs; ``None``: it takes no method).
MIX_DOORS = {
    "mixing_time[iterative]": (_mix_loop, "iterative"),
    "mixing_time[spectral]": (_mix_loop, "spectral"),
    "batched_mixing_times[iterative]": (_mix_batched, "iterative"),
    "batched_mixing_times[spectral]": (_mix_batched, "spectral"),
    "graph_mixing_time": (_mix_graph, "auto"),
    "set_mixing_time": (_mix_set, None),
}


def _mix_outcome(door, g, field, value):
    call, method = MIX_DOORS[door]
    knobs = dict(source=1, eps=EPS)
    if method is not None:
        knobs["method"] = method
    knobs[field] = value
    try:
        _within(30, lambda: call(g, knobs))
    except Exception as exc:  # noqa: BLE001 - the type is the point
        return type(exc), str(exc)
    return None


class TestDefinitionOneDoors:
    @pytest.mark.parametrize(
        "field,value,exc_type", HOSTILE_MIX,
        ids=[f"{f}={v!r}" for f, v, _ in HOSTILE_MIX],
    )
    def test_every_door_raises_the_same_error(self, g, field, value, exc_type):
        got = {
            door: _mix_outcome(door, g, field, value)
            for door, (_, method) in MIX_DOORS.items()
            if field != "method" or method is not None
        }
        expected = got["mixing_time[iterative]"]
        assert expected is not None and expected[0] is exc_type, got
        assert field in expected[1], got
        for door, outcome in got.items():
            assert outcome == expected, door

    def test_numpy_spellings_answer_equal(self, g):
        spelled = dict(eps=np.float64(EPS), t_max=np.int64(10_000))
        for method in ("iterative", "spectral"):
            want = mixing_time(g, 1, EPS, method=method, t_max=10_000)
            assert mixing_time(g, np.int64(1), method=method, **spelled) == want
            assert batched_mixing_times(
                g, sources=np.asarray([1]), method=method, **spelled
            ) == [want]

    def test_set_mixing_time_takes_one_side_of_a_bipartite_graph(self):
        # Non-lazy walks from 0 on a path sit on the even side at even t
        # and there approach π restricted to it.
        t = set_mixing_time(gen.path_graph(8), 0, [0, 2, 4, 6], EPS)
        assert t != math.inf and t % 2 == 0


# --------------------------------------------------------------------- #
# numpy spellings answer bitwise like plain Python numbers
# --------------------------------------------------------------------- #


class TestNumpySpellings:
    PLAIN = dict(
        beta=BETA, eps=EPS, sizes=[10, 20, 40], threshold_factor=1.5,
        grid_factor=0.1, t_max=10_000, batch_size=4,
    )

    @staticmethod
    def _numpy(knobs):
        return {
            k: (
                [np.int64(s) for s in v] if isinstance(v, list)
                else np.int64(v) if isinstance(v, int)
                else np.float64(v)
            )
            for k, v in knobs.items()
        }

    def test_every_door_answers_bitwise_equal(self, g):
        plain, spelled = self.PLAIN, self._numpy(self.PLAIN)
        sources = [0, 3, 17]
        want = batched_local_mixing_times(g, sources=sources, **plain)
        assert batched_local_mixing_times(
            g, sources=np.asarray(sources, dtype=np.int64), **spelled
        ) == want
        loop_kw = {k: v for k, v in spelled.items() if k != "batch_size"}
        assert [
            local_mixing_time(g, np.int64(s), **loop_kw) for s in sources
        ] == want
        assert canonical_times_key(g, **spelled) == canonical_times_key(
            g, **plain
        )

        async def served():
            async with MixingService(window=0.0) as svc:
                return [
                    await svc.submit(MixingQuery(g, np.int64(s), **spelled))
                    for s in sources
                ]

        assert asyncio.run(served()) == want


# --------------------------------------------------------------------- #
# Arbitrary values: a typed refusal or an answer, never a hang
# --------------------------------------------------------------------- #

_anything = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(max_size=6),
    st.sampled_from(["all", "grid", "doubling", "uniform", "degree"]),
    st.lists(st.one_of(st.integers(), st.floats(), st.booleans()),
             max_size=4),
    st.dictionaries(st.integers(), st.integers(), max_size=2),
    st.builds(np.int64, st.integers(-(2**63), 2**63 - 1)),
    st.builds(np.float64, st.floats()),
)


def _field(valid):
    return st.one_of(valid, _anything)


_query_fields = st.fixed_dictionaries(
    {
        "source": _field(st.integers(0, 39)),
        "beta": _field(st.floats(1.0, 1e300)),
        "eps": _field(st.floats(1e-6, 0.999)),
        "sizes": _field(
            st.one_of(
                st.sampled_from(["all", "grid"]),
                st.lists(st.integers(1, 40), min_size=1, max_size=6),
            )
        ),
        "threshold_factor": _field(st.floats(1e-3, 1e3)),
        "grid_factor": _field(
            st.one_of(st.none(), st.floats(1e-300, 10.0))
        ),
        "t_schedule": _field(st.sampled_from(["all", "doubling"])),
        "t_max": _field(st.one_of(st.none(), st.integers(0, 10**6))),
        "lazy": _field(st.booleans()),
        "require_source": _field(st.booleans()),
        "target": _field(st.sampled_from(["uniform", "degree"])),
        "batch_size": _field(st.one_of(st.none(), st.integers(1, 64))),
        "deadline": _field(st.one_of(st.none(), st.floats(0.1, 10.0))),
        "priority": _field(st.integers(-5, 5)),
    }
)


_VALID = dict(
    source=1, beta=BETA, eps=EPS, sizes="all", threshold_factor=1.0,
    grid_factor=None, t_schedule="all", t_max=None, lazy=False,
    require_source=False, target="uniform", batch_size=None, deadline=None,
    priority=0,
)


@given(fields=_query_fields)
@example(fields={**_VALID, "sizes": "grid", "grid_factor": 1e-300})
@example(fields={**_VALID, "sizes": "grid", "beta": math.inf})
@settings(max_examples=200, deadline=None)
def test_query_then_key_answers_or_refuses(g, fields):
    """``MixingQuery(...)`` followed by ``canonical_times_key`` returns or
    raises ``TypeError``/``ValueError`` — within seconds, for any value
    in any field (the key runs on the serving event loop)."""

    def key():
        return MixingQuery(g, **fields).semantic_key(g)

    try:
        _within(10, key)
    except (TypeError, ValueError):
        pass


# --------------------------------------------------------------------- #
# size_grid terminates
# --------------------------------------------------------------------- #


def _reference_grid(n, beta, grid_factor):
    """The geometric loop exactly as written before the short cut (only
    called where it terminates quickly)."""
    sizes = []
    r = n / beta
    while r < n:
        sizes.append(int(math.ceil(r)))
        r *= 1.0 + grid_factor
    sizes.append(n)
    return sorted(set(min(max(s, 1), n) for s in sizes))


class TestSizeGrid:
    @pytest.mark.parametrize("n", [1, 2, 7, 40, 1000])
    @pytest.mark.parametrize("beta", [1, 1.5, 4, 39.9, 1e3])
    @pytest.mark.parametrize(
        "gamma", [1e-4, 3e-4, 5e-4, 1e-3, 0.0125, 0.02, 0.1, 1.0]
    )
    def test_equals_the_loop(self, n, beta, gamma):
        assert size_grid(n, beta, gamma) == _reference_grid(n, beta, gamma)

    def test_boundary_step_equals_the_loop(self):
        # n·(fl(1+γ) − 1) just at and just past 1/2.
        for n in (40, 1000):
            gamma = 0.5 / n
            for g_ in (gamma, np.nextafter(gamma, 1.0), 1.0001 * gamma):
                assert size_grid(n, 4, g_) == _reference_grid(n, 4, g_)

    @pytest.mark.parametrize("gamma", [1e-300, 1e-7, 2.0**-60])
    def test_tiny_grid_factor_is_every_size(self, g, gamma):
        got = _within(
            10,
            lambda: canonical_times_key(
                g, BETA, sizes="grid", grid_factor=gamma
            ),
        )
        assert got == canonical_times_key(g, BETA, sizes="all")

    def test_live_server_keeps_serving(self, g):
        """A tiny ``grid_factor`` once froze the server's event loop in
        ``semantic_key``: the query must be answered and ``/healthz``
        must still answer afterwards."""
        box, ready = {}, threading.Event()

        def serve():
            async def main():
                reg = GraphRegistry()
                reg.register("g", g)
                async with MixingService(registry=reg, window=0.0) as svc:
                    async with WireServer(svc) as server:
                        box["loop"] = asyncio.get_running_loop()
                        box["stop"] = asyncio.Event()
                        box["url"] = server.url
                        ready.set()
                        await box["stop"].wait()

            asyncio.run(main())

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        assert ready.wait(30)
        try:
            query = MixingQuery(
                "g", 1, beta=BETA, sizes="grid", grid_factor=1e-300
            )
            body = protocol.dumps(protocol.encode_request(query, id=1))
            req = urllib.request.Request(
                box["url"] + "/v1/query", data=body, method="POST",
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(req, timeout=10) as resp:
                assert resp.status == 200
                answer = json.loads(resp.read())
            want = batched_local_mixing_times(g, BETA, sources=[1])[0]
            assert protocol.decode_result(answer["result"]) == want
            with urllib.request.urlopen(
                box["url"] + "/healthz?live=1", timeout=3
            ) as resp:
                assert resp.status == 200
        finally:
            box["loop"].call_soon_threadsafe(box["stop"].set)
            thread.join(10)
