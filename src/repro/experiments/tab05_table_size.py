"""Table 5 (Appendix A.2) — Latency improvement vs Latency-Table size.

Sweeps the number of candidate SubGraph columns ``|S|`` in the SushiAbs
latency table and reports the mean serving-latency improvement of SUSHI over
SUSHI w/o scheduler.  The paper finds the improvement grows with table size
for ResNet50 but saturates quickly, and is flat (~1 %) for MobileNetV3 whose
SubNets mostly fit the PB anyway.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.accelerator.platforms import ANALYTIC_DEFAULT, PlatformConfig
from repro.analysis.reporting import format_table
from repro.core.metrics import latency_improvement_percent
from repro.core.policies import Policy
from repro.experiments.serving_pool import closed_loop_grid, measure_streams
from repro.serving.stack import SushiStackConfig
from repro.sweep import Grid

DEFAULT_COLUMN_COUNTS: tuple[int, ...] = (10, 40, 80, 100)


@dataclass(frozen=True)
class Tab05Result:
    supernet_name: str
    improvements_percent: dict[int, float]


def grid(
    supernet_name: str = "ofa_resnet50",
    *,
    platform: PlatformConfig = ANALYTIC_DEFAULT,
    column_counts: Sequence[int] = DEFAULT_COLUMN_COUNTS,
    policy: Policy = Policy.STRICT_ACCURACY,
    num_queries: int = 120,
    seed: int = 0,
) -> Grid:
    """SUSHI w/o scheduler and SUSHI at each table size ``|S|``, one sweep each."""
    configs = [
        SushiStackConfig(supernet_name, platform, policy, candidate_set_size=cols, seed=seed)
        for cols in column_counts
    ]
    return closed_loop_grid("tab05", configs, num_queries, ("state_unaware", "sushi"))


def run(supernet_name: str = "ofa_resnet50", **params: Any) -> Tab05Result:
    """The table sizes of :func:`grid` (same parameters), measured."""
    cells = grid(supernet_name, **params)
    improvements: dict[int, float] = {}
    for sweep, (streams, _) in zip(cells.sweeps, measure_streams(cells)):
        cols = sweep.base.replica_groups[0].candidate_set_size
        improvements[cols] = latency_improvement_percent(
            streams["sushi_wo_sched"].metrics, streams["sushi"].metrics
        )
    return Tab05Result(supernet_name=supernet_name, improvements_percent=improvements)


def report(result: Tab05Result) -> str:
    rows = {
        f"{cols}-cols": {"latency improvement % (vs SUSHI w/o sched)": value}
        for cols, value in sorted(result.improvements_percent.items())
    }
    return format_table(
        rows, title=f"Table 5 — latency improvement vs table size, {result.supernet_name}",
        precision=2,
    )


def main() -> None:  # pragma: no cover
    for name in ("ofa_resnet50", "ofa_mobilenetv3"):
        print(report(run(name)))
        print()


if __name__ == "__main__":  # pragma: no cover
    main()
