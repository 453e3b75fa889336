#!/usr/bin/env python
"""obs_top: a live terminal dashboard over ``GET /v1/debug/stream``.

Subscribes to a running :class:`~repro.service.wire.WireServer`'s
telemetry push (``repro.service.wire.client.stream_telemetry``) and
renders each delta frame — rolling-window rates and latency quantiles,
per-(graph, outcome) traffic rows, the SLO verdict with its
error-budget burn rate, new SLO transition alerts, wire queue/connection
gauges and the runtime resource-sampler values — as a full-screen
curses view, or as plain text blocks with ``--plain`` (also the
automatic fallback when stdout is not a terminal).

Usage::

    PYTHONPATH=src python tools/obs_top.py HOST PORT \
        [--interval 1.0] [--frames N] [--plain]

``--frames N`` exits after N frames (useful for scripted smoke tests:
``--plain --frames 1`` prints one snapshot and returns).  Interrupt
with Ctrl-C any time; the client sends a proper WebSocket close frame
on the way out.
"""

from __future__ import annotations

import argparse
import asyncio
import sys


def _fmt_seconds(value) -> str:
    if value is None:
        return "-"
    if value < 0.001:
        return f"{value * 1e6:.0f}us"
    if value < 1.0:
        return f"{value * 1e3:.1f}ms"
    return f"{value:.2f}s"


def _fmt_bytes(value: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return f"{value:.0f}{unit}" if unit == "B" else f"{value:.1f}{unit}"
        value /= 1024
    return f"{value:.1f}GiB"  # pragma: no cover - unreachable


def render_frame(frame: dict) -> str:
    """One telemetry delta frame as a multi-line text block — the pure
    rendering core both the curses view and ``--plain`` mode print
    (and what the stream smoke test asserts against)."""
    lines = []
    drain = "  [DRAINING]" if frame.get("draining") else ""
    lines.append(
        f"obs_top  seq={frame.get('seq')}  v={frame.get('v')}{drain}"
    )
    window = frame.get("window")
    if window:
        q = window.get("quantiles") or {}
        lines.append(
            f"window   {window['count']} req / {window['covered']:.0f}s"
            f"  rate={window['rate']:.1f}/s"
            f"  errors={window['errors']}"
            f" ({100.0 * window['error_rate']:.1f}%)"
        )
        lines.append(
            "latency  p50=" + _fmt_seconds(q.get("p50"))
            + "  p95=" + _fmt_seconds(q.get("p95"))
            + "  p99=" + _fmt_seconds(q.get("p99"))
        )
        for row in (window.get("keys") or [])[:8]:
            lines.append(
                f"  {row['count']:>6}  {row['outcome']:<18}"
                f" {row['graph'] or '-'}"
            )
    else:
        lines.append("window   (live telemetry disabled on the server)")
    slo = frame.get("slo")
    if slo:
        lines.append(
            f"slo      [{slo['status'].upper()}] {slo['slo']}"
            f"  avail={100.0 * slo['availability']:.2f}%"
            f"  burn={slo['burn_rate']:.2f}"
            f"  budget={100.0 * slo['error_budget']:.0f}%"
            f"  {_fmt_seconds(slo['latency'])}"
            f" vs {_fmt_seconds(slo['latency_target'])}"
        )
    for alert in frame.get("alerts") or ():
        lines.append(
            f"ALERT    #{alert['seq']} {alert['slo']}:"
            f" {alert['from']} -> {alert['to']}"
        )
    gauges = frame.get("gauges") or {}
    if gauges:
        lines.append(
            f"wire     queue={gauges.get('queue_depth')}"
            f"/{gauges.get('max_pending')}"
            f"  conns={gauges.get('connections')}"
            f"  streams={gauges.get('stream_subscribers')}"
        )
    sampler = frame.get("sampler")
    if sampler:
        lines.append(
            "runtime  lag="
            + _fmt_seconds(sampler.get("loop_lag_seconds"))
            + f"  rss={_fmt_bytes(sampler.get('rss_bytes', 0.0))}"
            + f"  gc0={sampler.get('gc_collections_gen0', 0):.0f}"
            + f"  depth={sampler.get('repro_runtime_coalescer_depth', 0):.0f}"
            + f"  batches={sampler.get('repro_runtime_inflight_batches', 0):.0f}"
        )
    return "\n".join(lines)


async def _consume(args, on_frame) -> int:
    """Drive the stream subscription, calling ``on_frame(frame)`` per
    delta frame; returns the number of frames consumed."""
    sys.path.insert(0, "src")
    from repro.service.wire.client import stream_telemetry

    count = 0
    async for frame in stream_telemetry(
        args.host, args.port,
        interval=args.interval, max_frames=args.frames,
    ):
        on_frame(frame)
        count += 1
    return count


def run_plain(args) -> int:
    """Plain-text mode: print each frame as a separated text block
    (scripted/smoke usage, or stdout is not a terminal)."""
    def show(frame):
        print(render_frame(frame))
        print("-" * 60)
        sys.stdout.flush()

    asyncio.run(_consume(args, show))
    return 0


def run_curses(args) -> int:
    """Full-screen curses mode: repaint the pad on every frame, exit on
    ``q`` or Ctrl-C."""
    import curses

    def driver(screen):
        curses.curs_set(0)
        screen.nodelay(True)

        def show(frame):
            if screen.getch() in (ord("q"), ord("Q")):
                raise KeyboardInterrupt
            screen.erase()
            max_y, max_x = screen.getmaxyx()
            for y, line in enumerate(render_frame(frame).splitlines()):
                if y >= max_y - 1:
                    break
                screen.addnstr(y, 0, line, max_x - 1)
            screen.refresh()

        asyncio.run(_consume(args, show))

    curses.wrapper(driver)
    return 0


def main(argv=None) -> int:
    """CLI entry point: parse arguments, pick curses vs plain mode, and
    stream until ``--frames`` is exhausted or the user interrupts."""
    parser = argparse.ArgumentParser(
        description="Live telemetry dashboard over /v1/debug/stream."
    )
    parser.add_argument("host", help="wire server host")
    parser.add_argument("port", type=int, help="wire server port")
    parser.add_argument(
        "--interval", type=float, default=1.0,
        help="push interval requested from the server (seconds)",
    )
    parser.add_argument(
        "--frames", type=int, default=None,
        help="exit after this many frames (default: run until Ctrl-C)",
    )
    parser.add_argument(
        "--plain", action="store_true",
        help="print text blocks instead of the curses view",
    )
    args = parser.parse_args(argv)
    try:
        if args.plain or not sys.stdout.isatty():
            return run_plain(args)
        return run_curses(args)
    except KeyboardInterrupt:
        return 0
    except (ConnectionError, OSError) as exc:
        print(f"obs_top: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
