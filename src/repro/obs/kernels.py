"""Kernel-level profiling of the engine's hot loops.

While observability is enabled, every batched engine driver call binds
its kernels once with :meth:`KernelProfiler.timed` (``step_block`` — the
direct CSR step :func:`~repro.engine.propagator.csr_step_block`, the same
function an untraced solve calls — ``sorted_scan``, ``split_points``,
``deviation_lower_bounds`` and ``best_sums`` — the exact verifier),
recording per-kernel call counts
and seconds into the process-global
:func:`~repro.obs.metrics.default_registry`:

* ``repro_kernel_calls_total{kernel}``
* ``repro_kernel_seconds_total{kernel}`` — summed over the pool
  processes that run a pooled call's column tiles concurrently, so
  process-seconds, not wall.
* ``repro_screen_pairs_total`` / ``repro_screen_flagged_total`` — how
  many (R, column) candidate pairs got a per-size screening bound vs were
  flagged for exact re-verification.
* ``repro_screen_certified_total`` — (R, column) pairs proved non-hits
  without a per-size bound: by drift credit, or by a size anchor's bound
  covering the whole interval of sizes it owns.

A timing closure is pure delegation plus two ``perf_counter`` reads per
call — it never touches kernel inputs or outputs, so results stay
bitwise identical (pinned by ``tests/test_obs.py``).  While
observability is disabled the drivers call the plain kernels: the cost
is one boolean check per *driver call*, not per kernel call.

:func:`kernel_profiler` exposes snapshot/merge/reset over the same
counters so shard workers can ship their per-solve kernel deltas back to
the parent (see
:meth:`~repro.parallel.executor.ShardExecutor.run_sharded`) and
benchmarks can diff before/after a timed region.  Snapshot keys carry the
constant :data:`KERNEL_LABEL` (``"float64/<kernel>"``), the one kernel
path the engine has.
"""

from __future__ import annotations

import time

from .metrics import default_registry

__all__ = [
    "KERNEL_LABEL",
    "KernelProfiler",
    "diff_kernel_snapshots",
    "kernel_profiler",
]

#: The label every snapshot key carries: ``{"kernels":
#: {"float64/<kernel>": …}, "screen": {"float64": …}}``.
KERNEL_LABEL = "float64"

#: The screening-volume counters, keyed as in
#: ``snapshot()["screen"][KERNEL_LABEL]`` and in
#: :meth:`KernelProfiler.record_screen` argument order.
_SCREEN_COUNTERS = {
    "pairs": (
        "repro_screen_pairs_total",
        "Candidate (R, column) pairs given a per-size screening bound.",
    ),
    "flagged": (
        "repro_screen_flagged_total",
        "Screened pairs flagged for exact re-verification.",
    ),
    "certified": (
        "repro_screen_certified_total",
        "Candidate pairs proven non-hits by drift credit or a size anchor.",
    ),
}


class KernelProfiler:
    """Registry-backed accounting of kernel calls, kernel seconds, and
    screening volumes, keyed by kernel name.

    One process-wide instance (:func:`kernel_profiler`) backs every
    driver's timing closures; its :meth:`snapshot`/:meth:`merge`/
    :meth:`reset` views are how per-solve deltas cross process
    boundaries (shard workers snapshot around one solve and ship the
    diff) and how benchmarks attribute a timed region to kernels."""

    def __init__(self, registry=None):
        registry = registry if registry is not None else default_registry()
        self.registry = registry
        self._calls = registry.counter(
            "repro_kernel_calls_total",
            "Engine kernel invocations.",
            labels=("kernel",),
        )
        self._seconds = registry.counter(
            "repro_kernel_seconds_total",
            "Seconds spent inside engine kernels (summed over the "
            "pool processes of a pooled solve).",
            labels=("kernel",),
        )
        self._screen = {
            key: registry.counter(name, help_text)
            for key, (name, help_text) in _SCREEN_COUNTERS.items()
        }

    def timed(self, kernel: str, fn):
        """``fn`` wrapped to account each call's wall time to ``kernel``
        (the per-kernel counter children are bound here, once, so each
        call pays two increments, not two label lookups)."""
        calls_c = self._calls.labels(kernel=kernel)
        seconds_c = self._seconds.labels(kernel=kernel)

        def _timed(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            dt = time.perf_counter() - t0
            calls_c.inc()
            seconds_c.inc(dt)
            return out

        return _timed

    def record_screen(
        self, pairs: int, flagged: int, certified: int = 0
    ) -> None:
        """Account one screening pass: ``pairs`` candidates considered,
        ``flagged`` of them sent to exact re-verification, and
        ``certified`` more skipped as proven non-hits."""
        for counter, count in zip(
            self._screen.values(), (pairs, flagged, certified)
        ):
            counter.inc(int(count))

    def snapshot(self) -> dict:
        """The current kernel totals as a plain nested dict:
        ``{"kernels": {"float64/<kernel>": {"calls", "seconds"}},
        "screen": {"float64": {"pairs", "flagged", "certified"}}}`` —
        subtractable with
        :func:`diff_kernel_snapshots` to attribute a timed region."""
        kernels: dict = {}
        for (kernel,), leaf in self._calls.series():
            kernels[f"{KERNEL_LABEL}/{kernel}"] = {"calls": leaf.value}
        for (kernel,), leaf in self._seconds.series():
            kernels.setdefault(f"{KERNEL_LABEL}/{kernel}", {"calls": 0})[
                "seconds"
            ] = leaf.value
        screen: dict = {}
        counts = {key: counter.value for key, counter in self._screen.items()}
        if any(counts.values()):
            screen[KERNEL_LABEL] = counts
        return {"kernels": kernels, "screen": screen}

    def merge(self, delta: dict) -> None:
        """Fold a :func:`diff_kernel_snapshots` delta (typically shipped
        from a shard worker) into this process's kernel counters."""
        for key, vals in delta.get("kernels", {}).items():
            kernel = key.split("/", 1)[1]
            calls = vals.get("calls", 0)
            seconds = vals.get("seconds", 0.0)
            if calls:
                self._calls.labels(kernel=kernel).inc(calls)
            if seconds:
                self._seconds.labels(kernel=kernel).inc(seconds)
        for vals in delta.get("screen", {}).values():
            self.record_screen(*(vals.get(key, 0) for key in self._screen))

    def reset(self) -> None:
        """Zero every kernel counter — a windowing convenience for
        benchmarks and tests."""
        self._calls.reset()
        self._seconds.reset()
        for counter in self._screen.values():
            counter.reset()


def diff_kernel_snapshots(before: dict, after: dict) -> dict:
    """The elementwise difference ``after - before`` of two
    :meth:`KernelProfiler.snapshot` dicts, dropping all-zero entries —
    the per-solve delta a shard worker ships to the parent."""
    kernels: dict = {}
    for key, vals in after.get("kernels", {}).items():
        prev = before.get("kernels", {}).get(key, {})
        calls = vals.get("calls", 0) - prev.get("calls", 0)
        seconds = vals.get("seconds", 0.0) - prev.get("seconds", 0.0)
        if calls or seconds:
            kernels[key] = {"calls": calls, "seconds": seconds}
    screen: dict = {}
    for label, vals in after.get("screen", {}).items():
        prev = before.get("screen", {}).get(label, {})
        counts = {
            key: vals.get(key, 0) - prev.get(key, 0)
            for key in _SCREEN_COUNTERS
        }
        if any(counts.values()):
            screen[label] = counts
    return {"kernels": kernels, "screen": screen}


_profiler: KernelProfiler | None = None


def kernel_profiler() -> KernelProfiler:
    """The process-global :class:`KernelProfiler` (lazily created on the
    :func:`~repro.obs.metrics.default_registry`)."""
    global _profiler
    if _profiler is None:
        _profiler = KernelProfiler()
    return _profiler
