"""Experiment runner: serve identical streams through SUSHI and its baselines.

Provides the harness used by the end-to-end experiments (Fig. 15/16/17/18,
Table 5, and the headline numbers of Section 5.7): build the three systems
(No-SUSHI, SUSHI w/o scheduler, SUSHI) over the same SuperNet family and
platform, push the same query trace through each, and compare the resulting
latency / accuracy / energy metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.accelerator.analytic_model import SushiAccelModel
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
from repro.serving.baselines import NoSushiServer, StateUnawareCachingServer
from repro.serving.engine import (
    AcceleratorReplica,
    QueryServer,
    ServingEngine,
)
from repro.serving.query import QueryTrace
from repro.serving.stack import SushiStack, SushiStackConfig
from repro.serving.workload import WorkloadGenerator, WorkloadSpec, feasible_ranges_from_table
from repro.supernet.accuracy import AccuracyModel
from repro.supernet.zoo import load_supernet, paper_pareto_subnets


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
        self.supernet = load_supernet(supernet_name)
        self.subnets = paper_pareto_subnets(self.supernet)
        self.platform = platform
        self.policy = policy
        self.cache_update_period = cache_update_period
        self.seed = seed
        self.accuracy_model = AccuracyModel(self.supernet)

        self.accel_with_pb = SushiAccelModel(platform, with_pb=True)
        self.accel_without_pb = SushiAccelModel(platform, with_pb=False)

        self.sushi = SushiStack(
            SushiStackConfig(
                supernet_name=self.supernet.name,
                platform=platform,
                policy=policy,
                cache_update_period=cache_update_period,
                candidate_set_size=candidate_set_size,
                seed=seed,
            ),
            supernet=self.supernet,
            subnets=self.subnets,
            accel=self.accel_with_pb,
            accuracy_model=self.accuracy_model,
        )
        self.no_sushi = NoSushiServer(
            self.supernet,
            self.subnets,
            self.accel_without_pb,
            self.accuracy_model,
            policy=policy,
        )
        self.state_unaware = StateUnawareCachingServer(
            self.supernet,
            self.subnets,
            self.accel_with_pb,
            self.accuracy_model,
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
    @staticmethod
    def _closed_loop(server: QueryServer, trace: QueryTrace) -> list:
        """Serve ``trace`` closed-loop through the discrete-event engine.

        The closed loop is the rho → 0 configuration of the engine: one
        replica, FIFO, admit-all, with query ``i+1`` injected as ``i``
        completes — so every query sees its full latency budget and the
        records match serving the trace sequentially, query for query.
        """
        engine = ServingEngine(
            [AcceleratorReplica(server, discipline="fifo")],
            router="round_robin",
            admission="admit_all",
        )
        # State (scheduler history, PB warmth) is managed by the caller, not
        # reset here, to preserve each system's cross-run cache semantics.
        result = engine.run_closed_loop(trace, reset=False)
        return list(result.records)

    def run(self, trace: QueryTrace) -> dict[str, StreamResult]:
        """Serve ``trace`` on all three systems (fresh state per run)."""
        self.sushi.reset()
        self.state_unaware.begin_stream()
        results = {
            "no_sushi": StreamResult.from_records(
                "no_sushi", self._closed_loop(self.no_sushi, trace)
            ),
            "sushi_wo_sched": StreamResult.from_records(
                "sushi_wo_sched", self._closed_loop(self.state_unaware, trace)
            ),
            "sushi": StreamResult.from_records("sushi", self._closed_loop(self.sushi, trace)),
        }
        return results

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
