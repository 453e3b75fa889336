"""Old import path of :func:`~repro.obs.reporting.machine_fingerprint`,
which ``perfbench/run.py`` still imports from here."""

from .reporting import machine_fingerprint

__all__ = ["machine_fingerprint"]
