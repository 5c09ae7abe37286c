"""Table 6 (Appendix A.3) — Latency-table lookup time vs table size.

The lookup must stay far below the inference time (the paper reports 2-17 us
for 100-2000 columns on ResNet50, i.e. < 1/1000 of a query).  We measure the
wall-clock time of the policy-driven lookups on tables of increasing width.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.accelerator.analytic_model import SushiAccelModel
from repro.accelerator.platforms import ANALYTIC_DEFAULT, PlatformConfig
from repro.analysis.reporting import format_table
from repro.core.candidates import build_candidate_set
from repro.core.latency_table import LatencyTable
from repro.supernet.accuracy import AccuracyModel
from repro.supernet.zoo import load_supernet, paper_pareto_subnets

DEFAULT_COLUMN_COUNTS: tuple[int, ...] = (100, 200, 500, 1000, 2000)


@dataclass(frozen=True)
class Tab06Result:
    supernet_name: str
    lookup_microseconds: dict[int, float]
    reference_inference_ms: float

    def max_lookup_fraction_of_inference(self) -> float:
        """Largest lookup time as a fraction of one inference."""
        worst_us = max(self.lookup_microseconds.values())
        return (worst_us * 1e-3) / self.reference_inference_ms


def run(
    supernet_name: str = "ofa_resnet50",
    *,
    platform: PlatformConfig = ANALYTIC_DEFAULT,
    column_counts: Sequence[int] = DEFAULT_COLUMN_COUNTS,
    lookups_per_size: int = 200,
    seed: int = 0,
) -> Tab06Result:
    supernet = load_supernet(supernet_name)
    subnets = paper_pareto_subnets(supernet)
    accel = SushiAccelModel(platform)
    accuracy = AccuracyModel(supernet)
    rng = np.random.default_rng(seed)
    reference_ms = accel.subnet_latency_ms(subnets[0])

    lookup_us: dict[int, float] = {}
    for cols in column_counts:
        candidates = build_candidate_set(
            subnets, capacity_bytes=max(accel.pb_capacity_bytes, 1), max_size=cols, seed=seed
        )
        # Latencies need not be physically meaningful for a timing study, and
        # evaluating the analytic model on thousands of columns would dominate
        # the measurement setup; synthesize a positive matrix instead.
        matrix = rng.uniform(1.0, 10.0, size=(len(subnets), len(candidates)))
        table = LatencyTable(subnets, candidates, matrix, [accuracy.accuracy(s) for s in subnets])
        acc_bounds = rng.uniform(0.75, 0.80, size=lookups_per_size)
        cache_idxs = rng.integers(0, len(candidates), size=lookups_per_size)
        start = time.perf_counter()
        for bound, cache_idx in zip(acc_bounds, cache_idxs):
            table.best_under_accuracy(float(bound), int(cache_idx))
        elapsed = time.perf_counter() - start
        lookup_us[cols] = elapsed / lookups_per_size * 1e6
    return Tab06Result(
        supernet_name=supernet_name,
        lookup_microseconds=lookup_us,
        reference_inference_ms=reference_ms,
    )


def report(result: Tab06Result) -> str:
    rows = {
        f"{cols}-cols": {"lookup time (us)": value}
        for cols, value in sorted(result.lookup_microseconds.items())
    }
    frac = result.max_lookup_fraction_of_inference()
    return format_table(
        rows,
        title=(
            f"Table 6 — lookup time, {result.supernet_name} "
            f"(worst case {100 * frac:.3f}% of one inference)"
        ),
        precision=2,
    )
