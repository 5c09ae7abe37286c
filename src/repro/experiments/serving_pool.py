"""Shared pieces of the five serving experiments.

``load_sweep``, ``batching_sweep``, ``frontier_autoscale``,
``frontier_predictive`` and ``resilience_frontier`` each measure a
:class:`~repro.sweep.Grid` of sweeps over one base scenario: one replica
pool behind a router, usually EDF queues behind JSQ routing that sheds
expired queries.  Rates, delays and control intervals are expressed in
units of the pool's fastest SubNet, so one arrival shape stresses any
platform identically.
"""

from __future__ import annotations

import dataclasses
from typing import Any, TypeVar

from repro.serving.engine import SimulationResult
from repro.serving.spec import ArrivalSpec, ReplicaGroupSpec, ScenarioSpec
from repro.serving.stack import SushiStackConfig
from repro.serving.workload import Pattern, WorkloadSpec
from repro.sweep import template_stack

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
    """The fastest SubNet latency of ``config``'s cached template stack."""
    return float(template_stack(config).table.latencies_ms.min())


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
