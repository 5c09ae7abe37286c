#!/usr/bin/env python
"""Profile (or just time) the serving engine's event loop.

Runs a synthetic constant-work scenario — a pool of replicas fed a seeded
uniform workload (an array-backed trace) on a Poisson arrival process,
served by a near-free backend — through ``ServingEngine.run``, so the
measured time is the event loop itself rather than any model backend.

Usage::

    PYTHONPATH=src python tools/profile_engine.py --num-queries 1000000
    PYTHONPATH=src python tools/profile_engine.py --hotspots 15
    PYTHONPATH=src python tools/profile_engine.py --stats engine.pstats

Without ``--hotspots``/``--stats`` the run is timed only (no profiler
overhead) and prints queries/sec; with either, the run happens under
cProfile.  GC is disabled around the timed region (matching the benchmark
suite) so allocator pauses do not drown the loop's constant factor.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import pstats
import sys
import time

import numpy as np

from repro.serving.engine import AcceleratorReplica, ServingEngine
from repro.serving.engine.core import poisson_arrivals
from repro.serving.workload import WorkloadGenerator, WorkloadSpec


class ConstantWorkServer:
    """Near-free backend: constant service time, one shared served tuple.

    ``serve_query`` is an attribute read — the profile then shows the event
    loop, not the backend.
    """

    __slots__ = ("served",)

    def __init__(self, service_ms: float) -> None:
        self.served = ("profile-stub", 0.9, service_ms, 0.0, 0.0, 0.0)

    def serve_query(self, query, budget_ms, accuracy_floor):
        return self.served


def build_workload(num_queries: int, seed: int):
    gen = WorkloadGenerator(
        WorkloadSpec(num_queries=num_queries, pattern="uniform"), seed=seed
    )
    return gen


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--num-queries", type=int, default=1_000_000)
    parser.add_argument("--replicas", type=int, default=4)
    parser.add_argument(
        "--rate", type=float, default=0.8, help="Poisson arrival rate (queries/ms)"
    )
    parser.add_argument(
        "--service-ms", type=float, default=1.2, help="constant service time"
    )
    parser.add_argument(
        "--admission", default="drop_expired", help="admission policy name"
    )
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument(
        "--hotspots",
        type=int,
        metavar="N",
        help="profile the run and print the top N functions by cumulative time",
    )
    parser.add_argument(
        "--stats",
        metavar="FILE",
        help="profile the run and dump pstats data to FILE",
    )
    args = parser.parse_args(argv)

    trace = build_workload(args.num_queries, args.seed).generate()
    arrivals = poisson_arrivals(
        args.num_queries, args.rate, rng=np.random.default_rng(args.seed + 1)
    )
    engine = ServingEngine(
        [
            AcceleratorReplica(ConstantWorkServer(args.service_ms))
            for _ in range(args.replicas)
        ],
        admission=args.admission,
    )

    profiler = cProfile.Profile() if (args.hotspots or args.stats) else None
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        if profiler is not None:
            profiler.enable()
        start = time.perf_counter()
        result = engine.run(trace, arrivals)
        elapsed = time.perf_counter() - start
        if profiler is not None:
            profiler.disable()
    finally:
        if gc_was_enabled:
            gc.enable()

    qps = args.num_queries / elapsed if elapsed > 0 else float("inf")
    print(
        f"engine: {args.num_queries:,} queries, {args.replicas} replicas, "
        f"rate {args.rate}/ms -> {elapsed:.2f}s  ({qps:,.0f} queries/sec; "
        f"served {result.num_served:,}, dropped {result.num_dropped:,})"
    )
    if profiler is not None:
        if args.stats:
            profiler.dump_stats(args.stats)
            print(f"pstats data written to {args.stats}")
        if args.hotspots:
            pstats.Stats(profiler, stream=sys.stdout).sort_stats(
                "cumulative"
            ).print_stats(args.hotspots)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
