"""The observability on/off switch.

Observability instrumentation splits into two cost classes with two
different policies:

* **Plain counters** (cache hits, coalescer flushes, executor dispatches,
  tracker work counters) always record.  They are part of the components'
  documented ``stats()`` contracts, they cost one lock-protected integer
  add on paths that already take a lock, and tests pin their exact values.
* **Timing instrumentation** (spans, kernel profiling, latency
  histograms) records only while observability is *enabled*.  Disabled —
  the default — every instrumentation site collapses to one boolean check,
  so the engine hot loops pay effectively nothing
  (``benchmarks/bench_o1_observability.py`` gates the *enabled* overhead
  at < 3% on the E1 workload; disabled overhead is below measurement
  noise).

Enable per process with :func:`set_observability`, per scope with the
:func:`observability` context manager, or per environment with
``REPRO_OBS=1`` (read once at import).  The switch only ever changes
*what is recorded*: every result-producing path is bitwise identical with
observability enabled, disabled, or never imported (pinned by
``tests/test_obs.py``).
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager

__all__ = [
    "OBS_ENV",
    "observability",
    "observability_enabled",
    "set_observability",
]

#: Environment variable enabling timing instrumentation at import
#: (``REPRO_OBS=1``); the programmatic switch overrides it.
OBS_ENV = "REPRO_OBS"

_lock = threading.Lock()
_enabled: bool = os.environ.get(OBS_ENV, "") not in ("", "0")


def observability_enabled() -> bool:
    """True while timing instrumentation (spans, kernel profiling,
    latency histograms) records; plain counters record regardless.  This
    is the one check every instrumentation site makes — reading a module
    global, cheap enough for per-call hot paths."""
    return _enabled


def set_observability(on: bool) -> bool:
    """Switch timing instrumentation on or off process-wide and return
    the *previous* state (so callers can restore it).  Thread-safe; the
    flag is a plain boolean read on the hot path, so a flip lands on
    other threads at their next instrumentation site."""
    global _enabled
    with _lock:
        prev = _enabled
        _enabled = bool(on)
    return prev


@contextmanager
def observability(on: bool = True):
    """Scope the observability switch: enable (or disable) inside the
    ``with`` block and restore the previous state on exit — the shard
    workers use this to collect kernel timings for exactly one solve when
    the parent's trace asked for them."""
    prev = set_observability(on)
    try:
        yield
    finally:
        set_observability(prev)
