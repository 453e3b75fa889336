"""Helpers shared by every workload: locating the library, statistics,
answer identity, reference checks and memory figures.

Nothing here imports ``repro`` at module level: :func:`ensure_repro` has
to put the checkout's ``src/`` on ``sys.path`` first (and fail cleanly
when it is absent), so it runs before any workload module is imported.
"""

from __future__ import annotations

import os
import resource
import statistics
import struct
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing library, child failure)."""


def ensure_repro() -> None:
    """Import the library from this checkout's ``src/``; raise
    :class:`BenchError` when the checkout does not hold it."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError(f"no repro package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import repro  # noqa: F401  (fails loudly on a broken checkout)


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (numpy's default rule)."""
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def latency_stats(latencies, seconds: float) -> dict:
    """The serving workloads' latency and rate over a measured phase."""
    return {
        "query_p50_us": percentile(latencies, 50) * 1e6,
        "query_p99_us": percentile(latencies, 99) * 1e6,
        "throughput_qps": len(latencies) / seconds,
    }


def peak_rss_mib() -> float:
    """Peak resident set size of this process in MiB (Linux reports
    ``ru_maxrss`` in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def answer_key(result) -> tuple:
    """A bitwise identity for one ``LocalMixingResult``: integers as-is,
    floats by their IEEE-754 bytes (so ``-0.0`` and ``0.0`` differ)."""
    return (
        int(result.time),
        int(result.set_size),
        struct.pack("<d", result.deviation),
        struct.pack("<d", result.threshold),
        int(result.steps_checked),
        int(result.sizes_checked),
    )


def reference_mismatches(g, sources, answers, **knobs) -> int:
    """How many of ``answers`` (one per source) differ bitwise from the
    per-source ``local_mixing_time`` reference on graph ``g``."""
    from repro.walks.local_mixing import local_mixing_time

    bad = 0
    for s, got in zip(sources, answers):
        want = local_mixing_time(g, int(s), **knobs)
        if answer_key(want) != answer_key(got):
            bad += 1
    return bad


def time_call(fn, *, min_seconds: float = 0.2, min_calls: int = 20) -> float:
    """Median wall microseconds of ``fn()`` over at least ``min_calls``
    calls and ``min_seconds`` seconds (a microbenchmark of one public
    function on the workload's own inputs)."""
    samples = []
    deadline = time.perf_counter() + min_seconds
    while len(samples) < min_calls or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return median(samples) * 1e6
