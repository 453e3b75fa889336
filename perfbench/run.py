"""The repository benchmark: four workloads, end-to-end and per-layer.

Run one workload::

    python3 perfbench/run.py --workload all_sources --seed 1 --seconds 20 --trace 0

or every workload in turn (each in its own process) with
``--workload all``.  The command builds its inputs from ``--seed``,
measures for ``--seconds``, checks the answers, prints each metric by
name with its unit, and prints one JSON object as its last line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end metrics, measured with tracing off; with
``--trace 1`` they are the per-layer metrics of a separate traced run,
where each breakdown carries an unattributed residual against the same
run's untraced figure.  A layer a workload does not exercise reads 0.

Workloads (``BENCHMARK.json`` lists the first two and says why each
exists; the serving two are not listed because their figures do not
repeat on a shared 2-vCPU VM, so the traced ``all_sources`` run also
runs their traced phases and reports their layers):

* ``all_sources`` -- ``batched_local_mixing_times(random_regular(1000, 8),
  beta=4)`` for every source (engine: propagate, screen, verify);
* ``long_tau`` -- lazy ``path_graph(40)`` and ``beta_barbell(5, 8)``,
  every source, every step (engine: fixed per-step overhead);
* ``service_hits`` -- in-process ``MixingService``, closed loop, two
  clients, cache hits on a 2000-node graph plus edits of a dynamic graph
  (service, cache, coalescer, registry, telemetry);
* ``wire_ws`` -- ``WireServer`` in a child process, an open-loop
  Poisson generator over two WebSocket connections at a fixed rate, hits
  only (protocol, framing, socket, admission).

End-to-end metrics, every workload:

* ``setup_s`` -- median over repeated set-ups (graph build, warm-up,
  cache prefill, server start): five for the engine workloads, nine for
  the serving ones (five before the measured phase, four after it);
* ``solve_s`` -- median wall seconds of one full solve: the all-sources
  call(s) for the engine workloads, the cold prefill of the hot set
  through the service (one coalesced engine call) for the serving ones;
* ``query_p50_us`` / ``query_p99_us`` -- latency per answer.  An engine
  caller waits for the whole call, so there it is the call's time; in
  ``wire_ws`` it runs from each query's scheduled send time, over the
  windows in which the generator kept its schedule;
* ``throughput_qps`` -- answers completed per second;
* ``peak_rss_mib`` -- peak RSS of the process doing the work (the server
  for ``wire_ws``).

The share of failed, refused (429), expired or wrong answers is printed
as ``failed_frac`` and carried by the ``attempted``/``failed`` fields; it
is not a bounded metric because a correct run reads exactly 0.  Any
failure makes the run print ``"correct": false`` and exit with code 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import traceback

from common import BenchError, ensure_repro
from engine_workloads import KERNELS

WORKLOADS = ("all_sources", "long_tau", "service_hits", "wire_ws")

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "query_p50_us": "us",
    "query_p99_us": "us",
    "throughput_qps": "1/s",
    "peak_rss_mib": "MiB",
}

PER_LAYER = {
    **{
        f"engine.kernel.{k}.{field}": unit
        for k in KERNELS
        for field, unit in (("s", "s"), ("calls", "count"))
    },
    "engine.unattributed_s": "s",
    "engine.screen.pairs": "count",
    "engine.screen.flagged": "count",
    "engine.verify_useful_ratio": "ratio",
    "engine.steps": "count",
    "engine.step_us": "us",
    "engine.canonical_key_us": "us",
    "service.semantic_key_us": "us",
    "service.resolve_us": "us",
    "service.cache_get_us": "us",
    "service.unattributed_us": "us",
    "obs.telemetry_us": "us",
    "obs.tracing_overhead_frac": "ratio",
    "service.hit_ratio": "ratio",
    "service.lookups": "count",
    "service.coalescer.batches": "count",
    "service.coalescer.mean_batch_sources": "count",
    "service.coalescer.flushes.window": "count",
    "service.coalescer.flushes.size": "count",
    "service.coalescer.flushes.drain": "count",
    "service.coalescer.flushes.deadline": "count",
    "service.miss_p50_ms": "ms",
    "service.cache_kib_per_entry": "KiB",
    "dynamic.edits": "count",
    "dynamic.edit_us": "us",
    "dynamic.carried_forward": "count",
    "dynamic.dirty": "count",
    "dynamic.queries": "count",
    "wire.encode_request_us": "us",
    "wire.decode_request_us": "us",
    "wire.encode_response_us": "us",
    "wire.decode_response_us": "us",
    "wire.frame_us": "us",
    "wire.server_mean_us": "us",
    "wire.client_residual_us": "us",
    "wire.requests": "count",
    "wire.admitted": "count",
    "wire.rejected": "count",
    "wire.answered": "count",
    "wire.queue_depth_max": "count",
    "loadgen.lag_p99_us": "us",
    "loadgen.offered_qps": "1/s",
    "loadgen.kept_share": "ratio",
}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    if name in ("all_sources", "long_tau"):
        import engine_workloads

        return engine_workloads.run(name, seed, seconds, trace)
    if name == "service_hits":
        import service_workload

        return service_workload.run(seed, seconds, trace)
    import wire_workload

    return wire_workload.run(seed, seconds, trace)


def report(name: str, seed: int, outcome: dict, trace: bool) -> dict:
    """Print the human-readable metric lines; return the result object."""
    from repro.obs.history import machine_fingerprint

    units = PER_LAYER if trace else END_TO_END
    raw = outcome["metrics"]
    unknown = set(raw) - set(units)
    missing = set(units) - set(raw)
    if unknown or (missing and not trace):
        raise BenchError(
            f"metric names out of contract: unknown {sorted(unknown)}, "
            f"missing {sorted(missing)}"
        )
    metrics = {}
    for key, unit in units.items():
        value = float(raw.get(key, 0.0))
        if not math.isfinite(value) or (not trace and value <= 0):
            if not trace:
                raise BenchError(f"end-to-end metric {key} reads {value}")
            value = 0.0  # a layer the traced run could not observe
        metrics[key] = {"value": value, "unit": unit}
    attempted, failed = int(outcome["attempted"]), int(outcome["failed"])
    print(f"fingerprint: {json.dumps(machine_fingerprint(), sort_keys=True)}")
    print(f"workload {name}, seed {seed}, {'traced' if trace else 'untraced'}")
    for key, m in metrics.items():
        print(f"  {key:<44} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'failed_frac':<44} {failed / max(attempted, 1):>16.6g} ratio"
          f"  ({failed} of {attempted})")
    return {
        "correct": failed == 0 and not outcome.get("invalid", False),
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }


def run_all(args) -> int:
    """Run every workload in its own process; print a combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [
            sys.executable, os.path.abspath(__file__),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"{name}: no result (exit {proc.returncode})",
                  file=sys.stderr)
            return 1
        combined["correct"] &= result["correct"] and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = m
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        ensure_repro()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    except ImportError:
        traceback.print_exc()
        return 2
    if args.workload == "all":
        return run_all(args)
    try:
        from repro.obs import set_observability

        # Untraced unless a traced run turns it on, whatever REPRO_OBS says.
        set_observability(False)
        outcome = run_workload(args.workload, args.seed, args.seconds,
                               bool(args.trace))
        result = report(args.workload, args.seed, outcome, bool(args.trace))
    except Exception:
        traceback.print_exc()
        return 1
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
