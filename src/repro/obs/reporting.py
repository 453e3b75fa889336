"""Shared benchmark reporting on top of the metrics registry.

Every ``benchmarks/bench_*`` module used to hand-roll its own
``time.perf_counter()`` pairs and f-string progress lines.
:class:`BenchReporter` replaces that: named, nestable
:meth:`~BenchReporter.section` timers whose wall seconds land both in a
plain ``timings`` dict (the numbers the benchmark asserts its speedup
gates on) and in a ``repro_bench_section_seconds{bench,section}``
histogram, plus a :meth:`~BenchReporter.snapshot` JSON view that the
benchmark harness dumps next to each ``benchmarks/results`` artifact —
so a results table always ships with the metrics (kernel profile,
cache/coalescer counters, section latencies) that produced it and the
:func:`machine_fingerprint` of the machine that measured them.

Section timing always records: a benchmark constructing a reporter *is*
the explicit request to measure, so it does not ride the global
observability switch (which exists to keep instrumentation out of
production hot paths, not out of benchmarks)."""

from __future__ import annotations

import os
import platform
import time
from contextlib import contextmanager

import numpy

from .metrics import MetricsRegistry, default_registry

__all__ = ["BenchReporter", "machine_fingerprint"]


def machine_fingerprint() -> dict:
    """The measuring machine's identity: platform string, Python
    version, CPU count and NumPy version — a laptop's numbers say
    nothing about CI's."""
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "numpy": numpy.__version__,
    }


class BenchReporter:
    """Per-benchmark timing sections + a metrics snapshot for artifacts.

    ``timings`` maps section label → wall seconds of the *last* run of
    that section (benchmarks time each configuration once); repeated
    sections also accumulate in the histogram.  :meth:`snapshot` returns
    a JSON-ready dict combining the section timings with every metric
    visible through the reporter's registry — which includes the
    process-global :func:`~repro.obs.metrics.default_registry`, so
    kernel profiles and engine latencies recorded during the benchmark
    appear in the artifact."""

    def __init__(self, name: str, registry: MetricsRegistry | None = None):
        self.name = name
        self.registry = registry if registry is not None else MetricsRegistry()
        self.registry.include(default_registry())
        self.timings: dict[str, float] = {}
        self._hist = self.registry.histogram(
            "repro_bench_section_seconds",
            "Wall seconds of benchmark timing sections.",
            labels=("bench", "section"),
        )

    @contextmanager
    def section(self, label: str):
        """Time the ``with`` block as section ``label``: wall seconds go
        to ``self.timings[label]`` and the section histogram.  Yields the
        reporter so nested helpers can open sub-sections."""
        t0 = time.perf_counter()
        try:
            yield self
        finally:
            dt = time.perf_counter() - t0
            self.timings[label] = dt
            self._hist.labels(bench=self.name, section=label).observe(dt)

    def seconds(self, label: str) -> float:
        """Wall seconds of the last run of section ``label``
        (``KeyError`` if the section never ran)."""
        return self.timings[label]

    def snapshot(self) -> dict:
        """JSON-ready artifact payload: the benchmark name, the
        measuring ``machine`` (:func:`machine_fingerprint`), the section
        timings, and the full metrics snapshot visible through this
        reporter's registry (sections, kernel profile, engine/component
        counters)."""
        return {
            "bench": self.name,
            "machine": machine_fingerprint(),
            "sections": dict(self.timings),
            "metrics": self.registry.snapshot(),
        }

    def __repr__(self) -> str:
        return (
            f"BenchReporter({self.name!r}, sections={len(self.timings)})"
        )
