"""Shared pieces of the serving experiments.

``load_sweep``, ``batching_sweep``, ``frontier_autoscale``,
``frontier_predictive`` and ``resilience_frontier`` each measure a
:class:`~repro.sweep.Grid` of sweeps over one base scenario: one replica
pool behind a router, usually EDF queues behind JSQ routing that sheds
expired queries.  Rates, delays and control intervals are expressed in
units of the pool's fastest SubNet, so one arrival shape stresses any
platform identically.

The paper's stream figures (``fig15``, ``fig16``, ``fig17_18``,
``headline`` and ``tab05``) measure a :func:`closed_loop_grid`: each stack
configuration served closed loop by one replica of each compared system,
whose streams :func:`compare_systems` sets against each other.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass, replace
from typing import Any, Sequence, TypeVar

from repro.core.metrics import (
    QueryRecord,
    ServingMetrics,
    accuracy_improvement_points,
    energy_saving_percent,
    latency_improvement_percent,
    summarize_records,
)
from repro.serving.api import serve_table
from repro.serving.engine import SimulationResult
from repro.serving.spec import ArrivalSpec, ReplicaGroupSpec, ScenarioSpec
from repro.serving.stack import SushiStackConfig, sushi_table
from repro.serving.workload import Pattern, WorkloadSpec, feasible_ranges_from_table
from repro.sweep import Grid, SweepAxis, SweepSpec

_P = TypeVar("_P")


def measured(cls: type[_P], result: SimulationResult, **fields: Any) -> _P:
    """A ``cls`` point: ``fields``, and the rest read off ``result``.

    Every point field not given is the run's metric of the same name
    (``slo_attainment``, ``drop_rate``, ...) or one of the pool-size
    metrics below; a static pool has a fixed size and never scales.
    """
    report = result.autoscale
    pool = {
        "mean_replicas": result.mean_active_replicas,
        "peak_replicas": (
            len(result.replica_stats) if report is None else report.peak_replicas
        ),
        "num_scale_ups": 0 if report is None else report.num_scale_ups,
        "scaling_events": () if report is None else report.events,
    }
    for f in dataclasses.fields(cls):
        if f.name in fields:
            continue
        if f.name in pool:
            fields[f.name] = pool[f.name]
        elif hasattr(result, f.name):
            fields[f.name] = getattr(result, f.name)
    return cls(**fields)


def fastest_service_ms(config: SushiStackConfig) -> float:
    """The fastest SubNet latency of ``config``'s serve table."""
    return float(sushi_table(config).table.latencies_ms.min())


def pool_scenario(
    name: str,
    config: SushiStackConfig,
    arrivals: ArrivalSpec,
    num_queries: int,
    /,
    *,
    pattern: Pattern = "uniform",
    router: str = "jsq",
    admission: str = "drop_expired",
    **group: Any,
) -> ScenarioSpec:
    """One replica group serving ``config``'s stack (``group``: its fields).

    The group's discipline defaults to EDF.  Constraint ranges are left to
    the facade, which draws them from the served table's feasible ranges.
    """
    return ScenarioSpec(
        name=name,
        supernet_name=config.supernet_name,
        policy=config.policy,
        cache_update_period=config.cache_update_period,
        replica_groups=(
            ReplicaGroupSpec(
                **{
                    "discipline": "edf",
                    "platform": config.platform,
                    "candidate_set_size": config.candidate_set_size,
                    **group,
                }
            ),
        ),
        router=router,
        admission=admission,
        workload=WorkloadSpec(
            num_queries=num_queries,
            accuracy_range=None,
            latency_range_ms=None,
            pattern=pattern,
        ),
        arrivals=arrivals,
        seed=config.seed,
    )


class LabelledPoints:
    """Base of the experiments' results: ``points`` looked up by label."""

    points: tuple[Any, ...]

    def point(self, label: str) -> Any:
        for p in self.points:
            if p.label == label:
                return p
        raise KeyError(f"no point labelled {label!r}")


# ------------------------------------------------------------ closed loop
#: The closed-loop systems by backend kind, under the names the paper's
#: comparisons report them by, in report order.
SYSTEMS: dict[str, str] = {
    "no_sushi": "no_sushi",
    "state_unaware": "sushi_wo_sched",
    "sushi": "sushi",
}


@dataclass(frozen=True)
class StreamResult:
    """Records and summary metrics of one system serving one stream."""

    system: str
    records: tuple[QueryRecord, ...]
    metrics: ServingMetrics

    @classmethod
    def from_records(cls, system: str, records: Sequence[QueryRecord]) -> StreamResult:
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
        return dataclasses.asdict(self)


def compare_systems(
    results: dict[str, StreamResult], *, sushi_hit_ratio: float = 0.0
) -> ComparisonSummary:
    """Headline improvements of SUSHI over the baselines."""
    missing = set(SYSTEMS.values()) - set(results)
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


def closed_loop_grid(
    name: str,
    configs: Sequence[SushiStackConfig],
    num_queries: int,
    /,
    kinds: Sequence[str] = tuple(SYSTEMS),
    **workload: Any,
) -> Grid:
    """Each of ``configs`` served closed loop by each of ``kinds``.

    One sweep per config, over a ``replica_groups.0.kind`` axis.  A cell is
    one FIFO replica behind round-robin routing that admits every query,
    with deterministic arrivals spaced ten times the longest latency of
    the tables the sweep's kinds read.  So every query finds the replica
    idle and starts at its arrival with its whole latency budget: the
    closed loop of the paper's stream figures.  The constraint ranges are
    the feasible ranges of the config's SUSHI serve table whatever the
    kind, so every system of a sweep serves the same trace; ``workload``
    holds further :class:`~repro.serving.workload.WorkloadSpec` fields.
    """
    sweeps = []
    for config in configs:
        arrivals = ArrivalSpec(kind="deterministic", rate_per_ms=1.0)
        cell = pool_scenario(
            name, config, arrivals, num_queries,
            router="round_robin", admission="admit_all", discipline="fifo",
        )
        group = cell.replica_groups[0]
        longest = max(
            serve_table(cell, replace(group, kind=kind))
            .table.latencies_ms.max()
            for kind in kinds
        )
        ranges = feasible_ranges_from_table(sushi_table(config).table)
        cell = replace(
            cell,
            workload=WorkloadSpec(num_queries, *ranges, **workload),
            arrivals=replace(arrivals, rate_per_ms=1.0 / (10.0 * float(longest))),
        )
        axis = SweepAxis("replica_groups.0.kind", tuple(kinds))
        sweeps.append(SweepSpec(name=name, base=cell, axes=(axis,)))
    return Grid(sweeps[0].base, _closed_loop_label, *sweeps)


def _closed_loop_label(spec: ScenarioSpec) -> str:
    group = spec.replica_groups[0]
    return (
        f"{spec.supernet_name} {spec.policy.value} Q={spec.cache_update_period} "
        f"|S|={group.candidate_set_size}: {SYSTEMS[group.kind]}"
    )


def _stream(spec: ScenarioSpec, result: SimulationResult) -> tuple[StreamResult, float]:
    """A closed-loop cell's stream and its replica's PB byte hit ratio."""
    system = SYSTEMS[spec.replica_groups[0].kind]
    return StreamResult.from_records(system, result.records), result.pb_byte_hit_ratio


def measure_streams(grid: Grid) -> list[tuple[dict[str, StreamResult], float]]:
    """Each sweep of a :func:`closed_loop_grid`: its streams by system name,
    in kind order, and its SUSHI cell's PB byte hit ratio (0.0 without one)."""
    cells = iter(grid.measure(_stream))
    runs = []
    for sweep in grid.sweeps:
        sweep_cells = [cell for _, cell in itertools.islice(cells, sweep.num_cells)]
        ratios = {stream.system: ratio for stream, ratio in sweep_cells}
        runs.append(({s.system: s for s, _ in sweep_cells}, ratios.get("sushi", 0.0)))
    return runs
