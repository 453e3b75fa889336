"""Declarative SLOs evaluated against the live rolling window.

An operator states the service-level objective once —

>>> from repro.obs import SLO
>>> slo = SLO(target_latency=0.5, availability=0.99, window=60.0)

— and the :class:`SLOEngine` turns every evaluation of the
:class:`~repro.obs.live.RollingWindow` into a typed
:class:`SLOVerdict`:

* ``ok`` — availability and the latency quantile are both inside the
  objective, and the error budget is burning slower than
  ``SLO.warn_burn``;
* ``warn`` — still inside the objective, but the *burn rate* (observed
  error rate over allowed error rate; burn 1.0 exhausts the budget
  exactly at the window's end) or the latency quantile
  (above ``warn_latency_ratio × target_latency``) says a breach is
  coming;
* ``breach`` — availability below target or the latency quantile above
  ``target_latency`` over the evaluation window.

Verdict *transitions* (ok→warn, warn→breach, breach→ok …) are recorded
as alert events in a bounded ring with monotonically increasing
sequence numbers, so the ``/v1/debug/stream`` telemetry push can send
each subscriber only the alerts it has not seen (cursor = last
sequence received) and ``/healthz`` can say *degraded* without saying
*dead*.  The engine also publishes ``repro_slo_status`` /
``repro_slo_burn_rate`` gauges and a ``repro_slo_alerts_total``
counter on its registry so SLO state rides ``/metrics`` too.

Evaluation is pull-based and cheap: one window snapshot, a handful of
divisions, and the latency quantile interpolated inside the snapshot's
buckets by the helper that computes the window's own p50/p95/p99.  The
wire tier evaluates on each stream tick and on ``/healthz``; nothing
here runs in the background or touches the query path.  Clocks are injectable for deterministic transition tests
(``tests/test_wire_stream.py`` drives ok→breach→ok through the wire
fault harness).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field

from .live import RollingWindow, _interpolate
from .metrics import MetricsRegistry

__all__ = [
    "SLO",
    "SLOEngine",
    "SLOVerdict",
    "STATUS_ORDER",
]

#: Verdict severity order; the numeric rank is what the
#: ``repro_slo_status`` gauge publishes (0 ok / 1 warn / 2 breach).
STATUS_ORDER = ("ok", "warn", "breach")


@dataclass(frozen=True)
class SLO:
    """One declarative service-level objective.

    Parameters
    ----------
    target_latency:
        The latency objective in seconds: the ``quantile`` of windowed
        latency must stay at or below this.
    availability:
        The success-rate objective in ``(0, 1)``; e.g. ``0.99`` allows
        one error per hundred requests.
    window:
        Evaluation span in seconds — how far back into the rolling
        window a verdict looks (clamped to the window's extent).
    quantile:
        Which latency quantile the latency objective binds (default
        p95).
    warn_burn:
        Burn-rate threshold for the ``warn`` verdict: observed error
        rate over the budget (``1 - availability``); 1.0 means the
        budget exhausts exactly at the window's end.
    warn_latency_ratio:
        Fraction of ``target_latency`` at which latency alone warrants
        ``warn`` (default 0.8 — warn at 80 % of the objective).
    name:
        Identifier used in alert events and gauges when several SLOs
        coexist.
    """

    target_latency: float
    availability: float
    window: float = 60.0
    quantile: float = 0.95
    warn_burn: float = 0.5
    warn_latency_ratio: float = 0.8
    name: str = "default"

    def __post_init__(self):
        """Validate the objective's numeric ranges."""
        if self.target_latency <= 0:
            raise ValueError("target_latency must be > 0")
        if not 0.0 < self.availability < 1.0:
            raise ValueError("availability must be in (0, 1)")
        if self.window <= 0:
            raise ValueError("window must be > 0")
        if not 0.0 < self.quantile < 1.0:
            raise ValueError("quantile must be in (0, 1)")
        if self.warn_burn <= 0:
            raise ValueError("warn_burn must be > 0")
        if not 0.0 < self.warn_latency_ratio <= 1.0:
            raise ValueError("warn_latency_ratio must be in (0, 1]")

    def to_dict(self) -> dict:
        """The objective as a JSON-ready dict (telemetry payloads)."""
        return {
            "name": self.name,
            "target_latency": self.target_latency,
            "availability": self.availability,
            "window": self.window,
            "quantile": self.quantile,
            "warn_burn": self.warn_burn,
            "warn_latency_ratio": self.warn_latency_ratio,
        }


@dataclass(frozen=True)
class SLOVerdict:
    """One evaluation of an :class:`SLO` against the rolling window.

    ``status`` is ``"ok"`` / ``"warn"`` / ``"breach"``;
    ``error_budget`` is the fraction of the window's error allowance
    still unspent (1.0 = untouched, 0.0 = exhausted, clamped at 0);
    ``burn_rate`` is observed error rate over allowed error rate;
    ``latency`` is the bound quantile's observed value (``None`` while
    the window is empty — an empty window is vacuously ``ok``);
    ``reasons`` lists which objectives drove a non-ok status.
    """

    status: str
    availability: float
    burn_rate: float
    error_budget: float
    latency: float | None
    latency_target: float
    count: int
    slo: str = "default"
    reasons: tuple = field(default_factory=tuple)

    @property
    def rank(self) -> int:
        """Numeric severity (0 ok / 1 warn / 2 breach) — the
        ``repro_slo_status`` gauge value."""
        return STATUS_ORDER.index(self.status)

    def to_dict(self) -> dict:
        """The verdict as a JSON-ready dict for health and telemetry
        payloads."""
        return {
            "slo": self.slo,
            "status": self.status,
            "availability": self.availability,
            "burn_rate": self.burn_rate,
            "error_budget": self.error_budget,
            "latency": self.latency,
            "latency_target": self.latency_target,
            "count": self.count,
            "reasons": list(self.reasons),
        }


class SLOEngine:
    """Evaluates one :class:`SLO` against a
    :class:`~repro.obs.live.RollingWindow` and keeps the alert ring.

    Parameters
    ----------
    slo:
        The objective to evaluate.
    window:
        The rolling window fed by the service completion path.
    registry:
        Registry for the SLO gauges/counter (private when omitted).
    alert_capacity:
        Bound on the alert ring (oldest transitions evicted first).
    clock:
        Wall-clock source for alert timestamps (injectable; default
        ``time.time`` — alerts are for correlation with external logs,
        so wall clock, not monotonic).

    :meth:`evaluate` computes the verdict, updates the gauges, and —
    only when the status *changed* — appends an alert event
    ``{"seq", "unix_ts", "slo", "from", "to", "verdict"}`` to the
    ring.  :meth:`alerts` reads the ring from a sequence cursor so
    every stream subscriber sees each transition exactly once.
    """

    def __init__(
        self,
        slo: SLO,
        window: RollingWindow,
        *,
        registry: MetricsRegistry | None = None,
        alert_capacity: int = 256,
        clock=time.time,
    ):
        if alert_capacity < 1:
            raise ValueError("alert_capacity must be >= 1")
        self.slo = slo
        self.window = window
        self.metrics = registry if registry is not None else MetricsRegistry()
        self._clock = clock
        self._lock = threading.Lock()
        self._alerts: deque = deque(maxlen=alert_capacity)
        self._seq = 0
        self._last_status = "ok"
        self._status_gauge = self.metrics.gauge(
            "repro_slo_status",
            "Current SLO verdict rank (0 ok / 1 warn / 2 breach).",
            labels=("slo",),
        )
        self._burn_gauge = self.metrics.gauge(
            "repro_slo_burn_rate",
            "Error-budget burn rate (observed error rate / allowed).",
            labels=("slo",),
        )
        self._alerts_total = self.metrics.counter(
            "repro_slo_alerts_total",
            "SLO verdict transitions recorded as alerts.",
            labels=("slo",),
        )

    @property
    def last_status(self) -> str:
        """The status of the most recent :meth:`evaluate` (``"ok"``
        before the first evaluation)."""
        with self._lock:
            return self._last_status

    def _judge(self, snap: dict) -> SLOVerdict:
        """Turn one window snapshot into a verdict (pure: no gauge or
        alert side effects — :meth:`evaluate` adds those)."""
        slo = self.slo
        count = snap["count"]
        if count == 0:
            return SLOVerdict(
                status="ok",
                availability=1.0,
                burn_rate=0.0,
                error_budget=1.0,
                latency=None,
                latency_target=slo.target_latency,
                count=0,
                slo=slo.name,
            )
        availability = 1.0 - snap["error_rate"]
        budget = 1.0 - slo.availability
        burn = snap["error_rate"] / budget
        error_budget = max(0.0, 1.0 - burn)
        latency = _interpolate(
            snap["latency"], snap["bounds"], slo.quantile, count
        )
        reasons = []
        if availability < slo.availability:
            reasons.append("availability")
        if latency > slo.target_latency:
            reasons.append("latency")
        if reasons:
            status = "breach"
        else:
            if burn >= slo.warn_burn:
                reasons.append("burn_rate")
            if latency > slo.warn_latency_ratio * slo.target_latency:
                reasons.append("latency_warn")
            status = "warn" if reasons else "ok"
        return SLOVerdict(
            status=status,
            availability=availability,
            burn_rate=burn,
            error_budget=error_budget,
            latency=latency,
            latency_target=slo.target_latency,
            count=count,
            slo=slo.name,
            reasons=tuple(reasons),
        )

    def evaluate(self) -> SLOVerdict:
        """Snapshot the rolling window over the SLO's evaluation span,
        judge it, publish the gauges, and append a transition alert if
        the status changed since the last evaluation."""
        snap = self.window.snapshot(span=self.slo.window)
        verdict = self._judge(snap)
        self._status_gauge.labels(slo=self.slo.name).set(verdict.rank)
        self._burn_gauge.labels(slo=self.slo.name).set(verdict.burn_rate)
        with self._lock:
            if verdict.status != self._last_status:
                self._seq += 1
                self._alerts.append(
                    {
                        "seq": self._seq,
                        "unix_ts": self._clock(),
                        "slo": self.slo.name,
                        "from": self._last_status,
                        "to": verdict.status,
                        "verdict": verdict.to_dict(),
                    }
                )
                self._last_status = verdict.status
                self._alerts_total.labels(slo=self.slo.name).inc()
        return verdict

    def alerts(self, since: int = 0) -> tuple[list, int]:
        """The alert events with ``seq > since`` (oldest first) plus the
        cursor to pass next time — the stream's exactly-once delta
        mechanism.  Alerts evicted from the bounded ring before being
        read are gone (the cursor still advances past them)."""
        with self._lock:
            events = [a for a in self._alerts if a["seq"] > since]
            return events, self._seq

    def stats(self) -> dict:
        """Current status, alert-ring occupancy, and the objective —
        one plain dict (for ``MixingService.stats``)."""
        with self._lock:
            return {
                "status": self._last_status,
                "alerts": len(self._alerts),
                "seq": self._seq,
                "slo": self.slo.to_dict(),
            }

    def __repr__(self) -> str:
        return (
            f"SLOEngine({self.slo.name!r}, status={self.last_status!r}, "
            f"window={self.slo.window:g}s)"
        )
