"""Experiment runner: serve identical streams through SUSHI and its baselines.

The harness of the end-to-end experiments (Fig. 15/16/17/18, Table 5 and the
headline numbers of Section 5.7): the same trace through No-SUSHI, SUSHI w/o
scheduler and SUSHI on one SuperNet family and platform, compared on latency,
accuracy and energy.  SUSHI is a clone of a template in the process's
:data:`~repro.serving.api.PROCESS_STACK_CACHE` and the baselines serve from
the shared :func:`~repro.serving.baselines.baseline_table`s, so a runner
builds no table that another runner of the process already built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.accelerator.platforms import ANALYTIC_DEFAULT, PlatformConfig
from repro.core.metrics import (
    QueryRecord,
    ServingMetrics,
    accuracy_improvement_points,
    energy_saving_percent,
    latency_improvement_percent,
    summarize_records,
)
from repro.core.policies import Policy
from repro.serving.api import PROCESS_STACK_CACHE, cached_stack
from repro.serving.baselines import NoSushiServer, StateUnawareCachingServer, baseline_table
from repro.serving.query import QueryTrace
from repro.serving.stack import SushiStackConfig
from repro.serving.workload import WorkloadGenerator, WorkloadSpec, feasible_ranges_from_table


@dataclass(frozen=True)
class StreamResult:
    """Records and summary metrics of one system serving one stream."""

    system: str
    records: tuple[QueryRecord, ...]
    metrics: ServingMetrics

    @classmethod
    def from_records(cls, system: str, records: Sequence[QueryRecord]) -> "StreamResult":
        return cls(system=system, records=tuple(records), metrics=summarize_records(records))


@dataclass(frozen=True)
class ComparisonSummary:
    """Headline comparison of SUSHI against the No-SUSHI baseline."""

    latency_improvement_vs_no_sushi_percent: float
    latency_improvement_vs_state_unaware_percent: float
    accuracy_improvement_points: float
    energy_saving_vs_no_sushi_percent: float
    sushi_cache_hit_ratio: float

    def as_dict(self) -> dict[str, float]:
        return {
            "latency_improvement_vs_no_sushi_percent": self.latency_improvement_vs_no_sushi_percent,
            "latency_improvement_vs_state_unaware_percent": self.latency_improvement_vs_state_unaware_percent,
            "accuracy_improvement_points": self.accuracy_improvement_points,
            "energy_saving_vs_no_sushi_percent": self.energy_saving_vs_no_sushi_percent,
            "sushi_cache_hit_ratio": self.sushi_cache_hit_ratio,
        }


class ExperimentRunner:
    """Builds the three systems over one SuperNet family and runs streams."""

    def __init__(
        self,
        supernet_name: str = "ofa_resnet50",
        *,
        platform: PlatformConfig = ANALYTIC_DEFAULT,
        policy: Policy = Policy.STRICT_ACCURACY,
        cache_update_period: int = 4,
        candidate_set_size: int | None = None,
        seed: int = 0,
    ) -> None:
        self.seed = seed
        config = SushiStackConfig(
            supernet_name=supernet_name,
            platform=platform,
            policy=policy,
            cache_update_period=cache_update_period,
            candidate_set_size=candidate_set_size,
            seed=seed,
        )
        self.sushi = cached_stack(config, PROCESS_STACK_CACHE).clone()
        self.no_sushi = NoSushiServer(
            baseline_table(supernet_name, platform, with_pb=False), policy=policy
        )
        self.state_unaware = StateUnawareCachingServer(
            baseline_table(supernet_name, platform, with_pb=True),
            policy=policy,
            cache_update_period=cache_update_period,
        )

    # ------------------------------------------------------------ workload
    def default_workload(
        self, *, num_queries: int = 200, pattern: str = "uniform", seed: int | None = None
    ) -> QueryTrace:
        """A query trace whose constraints span this family's feasible ranges."""
        acc_range, lat_range = feasible_ranges_from_table(self.sushi.table)
        spec = WorkloadSpec(
            num_queries=num_queries,
            accuracy_range=acc_range,
            latency_range_ms=lat_range,
            pattern=pattern,  # type: ignore[arg-type]
        )
        return WorkloadGenerator(spec, seed=self.seed if seed is None else seed).generate()

    # ------------------------------------------------------------- running
    def run(self, trace: QueryTrace) -> dict[str, StreamResult]:
        """Serve ``trace`` on all three systems, SUSHI from its initial cache state."""
        self.sushi.reset()
        systems = {
            "no_sushi": self.no_sushi,
            "sushi_wo_sched": self.state_unaware,
            "sushi": self.sushi,
        }
        return {
            name: StreamResult.from_records(name, server.serve(trace))
            for name, server in systems.items()
        }

    def compare(self, trace: QueryTrace) -> tuple[dict[str, StreamResult], ComparisonSummary]:
        """Run all systems and compute the headline comparison summary."""
        results = self.run(trace)
        summary = compare_systems(results, sushi_hit_ratio=self.sushi.cache_hit_ratio)
        return results, summary


def compare_systems(
    results: dict[str, StreamResult], *, sushi_hit_ratio: float = 0.0
) -> ComparisonSummary:
    """Headline improvements of SUSHI over the baselines."""
    required = {"no_sushi", "sushi_wo_sched", "sushi"}
    missing = required - set(results)
    if missing:
        raise ValueError(f"results missing systems: {sorted(missing)}")
    no_sushi = results["no_sushi"].metrics
    wo_sched = results["sushi_wo_sched"].metrics
    sushi = results["sushi"].metrics
    return ComparisonSummary(
        latency_improvement_vs_no_sushi_percent=latency_improvement_percent(no_sushi, sushi),
        latency_improvement_vs_state_unaware_percent=latency_improvement_percent(
            wo_sched, sushi
        ),
        accuracy_improvement_points=accuracy_improvement_points(no_sushi, sushi),
        energy_saving_vs_no_sushi_percent=energy_saving_percent(no_sushi, sushi),
        sushi_cache_hit_ratio=sushi_hit_ratio,
    )
