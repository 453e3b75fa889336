"""Server process of the ``wire_ws`` workload.

Builds the hot graph from ``--seed``, starts a default ``MixingService``,
prefills the hot set in-process, starts a ``WireServer`` on an ephemeral
loopback port and prints one JSON line ``{"port", "prefill_s"}``.  It then
reads commands from stdin, one per line:

* ``trace`` -- turn observability on and start sampling the admission
  queue depth (answers ``{"ok": true}``);
* ``stop`` (or end of input) -- drain, then print
  ``{"stats", "queue_depth_max", "peak_rss_mib"}`` and exit.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time

from common import ensure_repro, peak_rss_mib

#: Queue-depth sampling period while tracing (seconds).
DEPTH_PERIOD = 0.001


def emit(obj: dict) -> None:
    print(json.dumps(obj), flush=True)


async def sample_depth(server, box: list) -> None:
    while True:
        box[0] = max(box[0], server.stats()["queue_depth"])
        await asyncio.sleep(DEPTH_PERIOD)


async def serve(seed: int) -> None:
    from inputs import hot_graph, hot_query, hot_sources
    from repro.obs import set_observability
    from repro.service import GraphRegistry, MixingService
    from repro.service.wire import WireServer

    set_observability(False)  # untraced unless told, whatever REPRO_OBS says
    registry = GraphRegistry()
    registry.register("hot", hot_graph(seed))
    loop = asyncio.get_running_loop()
    depth, sampler = [0], None
    async with MixingService(registry=registry) as svc:
        t0 = time.perf_counter()
        await svc.submit_many([hot_query(s) for s in hot_sources(seed)])
        prefill_s = time.perf_counter() - t0
        async with WireServer(svc) as server:
            emit({"port": server.port, "prefill_s": prefill_s})
            while True:
                command = await loop.run_in_executor(None, sys.stdin.readline)
                if command.strip() != "trace":
                    break
                set_observability(True)
                sampler = asyncio.ensure_future(sample_depth(server, depth))
                emit({"ok": True})
            if sampler is not None:
                sampler.cancel()
                await asyncio.gather(sampler, return_exceptions=True)
            stats = server.stats()
    emit({"stats": stats, "queue_depth_max": depth[0],
          "peak_rss_mib": peak_rss_mib()})


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    ensure_repro()
    asyncio.run(serve(args.seed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
