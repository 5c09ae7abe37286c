"""Headline numbers of the paper (abstract / Section 5.7 / Appendix A.4).

* up to 25 % serving-latency improvement for a stream of queries,
* up to 0.98 % (percentage points) served-accuracy increase,
* up to 78.7 % off-chip energy saving,
* cache hit ratio of 66 % (ResNet50) / 78 % (MobileNetV3).

This driver runs both SuperNet families under both policies and reports the
reproduction's corresponding numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.accelerator.platforms import ANALYTIC_DEFAULT, PlatformConfig
from repro.analysis.reporting import format_table
from repro.core.policies import Policy
from repro.experiments.serving_pool import closed_loop_grid, compare_systems, measure_streams
from repro.serving.stack import SushiStackConfig
from repro.sweep import Grid


@dataclass(frozen=True)
class HeadlineRow:
    supernet_name: str
    policy: Policy
    latency_improvement_percent: float
    accuracy_improvement_points: float
    energy_saving_percent: float
    cache_hit_ratio: float
    vector_hit_ratio: float


@dataclass(frozen=True)
class HeadlineResult:
    rows: tuple[HeadlineRow, ...]

    def best_latency_improvement(self) -> float:
        return max(r.latency_improvement_percent for r in self.rows)

    def best_accuracy_improvement(self) -> float:
        return max(r.accuracy_improvement_points for r in self.rows)

    def best_energy_saving(self) -> float:
        return max(r.energy_saving_percent for r in self.rows)


def grid(
    *,
    platform: PlatformConfig = ANALYTIC_DEFAULT,
    num_queries: int = 200,
    cache_update_period: int = 4,
    seed: int = 0,
) -> Grid:
    """Both SuperNet families under both policies, each served by the three
    systems."""
    configs = [
        SushiStackConfig(name, platform, policy, cache_update_period, seed=seed)
        for name in ("ofa_resnet50", "ofa_mobilenetv3")
        for policy in (Policy.STRICT_ACCURACY, Policy.STRICT_LATENCY)
    ]
    return closed_loop_grid("headline", configs, num_queries)


def run(**params: Any) -> HeadlineResult:
    """The configurations of :func:`grid` (same parameters), compared."""
    cells = grid(**params)
    rows = []
    for sweep, (results, hit_ratio) in zip(cells.sweeps, measure_streams(cells)):
        summary = compare_systems(results, sushi_hit_ratio=hit_ratio)
        rows.append(
            HeadlineRow(
                supernet_name=sweep.base.supernet_name,
                policy=sweep.base.policy,
                latency_improvement_percent=summary.latency_improvement_vs_no_sushi_percent,
                accuracy_improvement_points=summary.accuracy_improvement_points,
                energy_saving_percent=summary.energy_saving_vs_no_sushi_percent,
                cache_hit_ratio=summary.sushi_cache_hit_ratio,
                vector_hit_ratio=results["sushi"].metrics.mean_cache_hit_ratio,
            )
        )
    return HeadlineResult(rows=tuple(rows))


def report(result: HeadlineResult) -> str:
    rows = {
        f"{r.supernet_name} / {r.policy.value}": {
            "latency improvement %": r.latency_improvement_percent,
            "accuracy improvement (pts)": r.accuracy_improvement_points,
            "off-chip energy saving %": r.energy_saving_percent,
            "byte hit ratio": r.cache_hit_ratio,
            "vector hit ratio (A.4)": r.vector_hit_ratio,
        }
        for r in result.rows
    }
    title = (
        "Headline — SUSHI vs No-SUSHI "
        f"(best: latency -{result.best_latency_improvement():.1f}%, "
        f"accuracy +{result.best_accuracy_improvement():.2f} pts, "
        f"energy -{result.best_energy_saving():.1f}%)"
    )
    return format_table(rows, title=title, precision=3)
