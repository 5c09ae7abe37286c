"""Fig. 16 / Section 5.7 — End-to-end SUSHI vs baselines on random queries.

Serves the same random query stream through No-SUSHI (no PB, no scheduler),
SUSHI w/o scheduler (state-unaware caching) and full SUSHI, and reports the
served latency/accuracy points plus the headline improvements (the paper:
up to 25 % latency reduction and up to 0.98 % served-accuracy increase).

All three systems serve per-query through the discrete-event engine's closed
loop (the rho → 0 configuration), so these records are directly comparable
with the open-loop load sweeps that share the same dispatch path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.accelerator.platforms import ANALYTIC_DEFAULT, PlatformConfig
from repro.analysis.reporting import format_table
from repro.core.policies import Policy
from repro.experiments.serving_pool import (
    ComparisonSummary,
    StreamResult,
    closed_loop_grid,
    compare_systems,
    measure_streams,
)
from repro.serving.stack import SushiStackConfig
from repro.sweep import Grid


@dataclass(frozen=True)
class Fig16Result:
    supernet_name: str
    policy: Policy
    results: dict[str, StreamResult]
    summary: ComparisonSummary


def grid(
    supernet_name: str = "ofa_resnet50",
    *,
    platform: PlatformConfig = ANALYTIC_DEFAULT,
    policy: Policy = Policy.STRICT_ACCURACY,
    num_queries: int = 200,
    cache_update_period: int = 4,
    seed: int = 0,
) -> Grid:
    """One stack configuration served by each of the three systems."""
    config = SushiStackConfig(supernet_name, platform, policy, cache_update_period, seed=seed)
    return closed_loop_grid("fig16", [config], num_queries)


def run(supernet_name: str = "ofa_resnet50", **params: Any) -> Fig16Result:
    """The streams of :func:`grid` (same parameters), compared."""
    cells = grid(supernet_name, **params)
    [(results, hit_ratio)] = measure_streams(cells)
    return Fig16Result(
        supernet_name=supernet_name,
        policy=cells.base.policy,
        results=results,
        summary=compare_systems(results, sushi_hit_ratio=hit_ratio),
    )


def report(result: Fig16Result) -> str:
    rows = {}
    for name, stream in result.results.items():
        m = stream.metrics
        rows[name] = {
            "mean latency (ms)": m.mean_latency_ms,
            "p99 latency (ms)": m.p99_latency_ms,
            "mean accuracy (%)": 100.0 * m.mean_accuracy,
            "latency SLO attainment": m.latency_slo_attainment,
            "off-chip energy (mJ)": m.total_offchip_energy_mj,
            "cache hit ratio": m.mean_cache_hit_ratio,
        }
    s = result.summary
    title = (
        f"Fig. 16 — end-to-end, {result.supernet_name} ({result.policy.value}): "
        f"latency -{s.latency_improvement_vs_no_sushi_percent:.1f}% vs No-SUSHI, "
        f"accuracy +{s.accuracy_improvement_points:.2f} pts, "
        f"off-chip energy -{s.energy_saving_vs_no_sushi_percent:.1f}%"
    )
    return format_table(rows, title=title, precision=3)


def main() -> None:  # pragma: no cover
    for name in ("ofa_resnet50", "ofa_mobilenetv3"):
        for policy in (Policy.STRICT_ACCURACY, Policy.STRICT_LATENCY):
            print(report(run(name, policy=policy)))
            print()


if __name__ == "__main__":  # pragma: no cover
    main()
