"""Benchmark-harness plumbing.

Every benchmark measures one experiment from DESIGN.md §3 and *prints the
same rows EXPERIMENTS.md records*.  Because pytest captures stdout, tables
are registered through the ``record_table`` fixture and echoed in the
terminal summary (so they appear in ``bench_output.txt``); they are also
written to ``benchmarks/results/<name>.txt`` for later inspection.

A benchmark that measures through a :class:`repro.obs.BenchReporter`
passes ``record_table(name, text, metrics=reporter.snapshot())`` and the
harness dumps the snapshot as ``benchmarks/results/<name>.metrics.json``
next to the table — so every artifact ships with the section timings and
metric counters (kernel profile, cache/coalescer/executor state) that
produced it, and the fingerprint of the machine that measured them.
"""

from __future__ import annotations

import json
import os
import pathlib

import pytest

_TABLES: list[tuple[str, str]] = []
_RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture
def quick_mode() -> bool:
    """True when ``REPRO_BENCH_QUICK`` is set (CI smoke settings): benchmarks
    that consume it shrink their instances and relax timing assertions so
    the experiment still runs end-to-end on a shared runner."""
    return os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")


@pytest.fixture
def record_table():
    """Call ``record_table(name, text)`` to register an experiment table;
    pass ``metrics=<JSON-ready dict>`` (typically a
    ``BenchReporter.snapshot()``) to also write
    ``results/<name>.metrics.json`` beside the table."""

    def _record(name: str, text: str, metrics: dict | None = None) -> None:
        _TABLES.append((name, text))
        _RESULTS_DIR.mkdir(exist_ok=True)
        (_RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        if metrics is not None:
            (_RESULTS_DIR / f"{name}.metrics.json").write_text(
                json.dumps(metrics, indent=2, sort_keys=True) + "\n"
            )

    return _record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _TABLES:
        return
    terminalreporter.section("experiment tables (EXPERIMENTS.md)")
    for name, text in _TABLES:
        terminalreporter.write_line("")
        terminalreporter.write_line(f"=== {name} ===")
        for line in text.splitlines():
            terminalreporter.write_line(line)
    _TABLES.clear()
