"""Frontier sweep (extension) — SLO attainment vs replica-seconds cost.

The production question behind the paper's motivation: serving bursty
traffic, how much capacity do you pay for a given SLO attainment?  A static
pool must be sized for the peak and idles through the quiet hours; an
autoscaler rides the diurnal curve but reacts late to flash crowds.  This
experiment sweeps both over one diurnal + flash-crowd arrival trace and
reports every (SLO attainment, replica-seconds) point:

* **static** pools of 1..N replicas — the baseline frontier,
* **reactive** autoscaling at several queue-depth thresholds,
* **target-utilization** autoscaling at several set-points,
* a **scheduled oracle** provisioned from the known trace — the
  clairvoyant bound.

Points on the Pareto frontier (no other point has both higher attainment
and lower cost) are starred in the report.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from typing import Any

from repro.analysis.reporting import format_table, jsonable
from repro.core.policies import Policy
from repro.experiments.serving_pool import (
    LabelledPoints,
    fastest_service_ms,
    measured,
    pool_scenario,
)
from repro.serving.engine import SimulationResult
from repro.serving.spec import ArrivalSpec, AutoscalerSpec, ScenarioSpec
from repro.serving.stack import SushiStackConfig
from repro.sweep import Grid


@dataclass(frozen=True)
class FrontierPoint:
    """One serving configuration on the SLO-vs-cost plane."""

    label: str
    kind: str
    """``static`` / ``reactive`` / ``target_utilization`` / ``scheduled``."""
    slo_attainment: float
    replica_seconds: float
    mean_replicas: float
    peak_replicas: int
    drop_rate: float
    mean_accuracy: float
    startup_delay_ms: float = 0.0
    """Cold-start delay of the scaled group (0: instant scale-up)."""
    weighted_replica_seconds: float = 0.0
    """Cost weighted by each replica's tier price (== replica_seconds for
    homogeneous weight-1.0 pools)."""
    group_costs: tuple[tuple[str, float, float], ...] = ()
    """Per replica group: (label, cost_weight, replica_seconds consumed) —
    kept in the JSON artifact so frontiers stay comparable across PRs as
    pools grow heterogeneous."""
    scaling_events: tuple = ()
    """The autoscaler's full :class:`ScalingEvent` log (empty for static
    pools) — kept in the JSON artifact so every point carries the control
    decisions (group, policy desired size, clamps, budget trims) that
    produced its frontier position."""


@dataclass(frozen=True)
class FrontierResult(LabelledPoints):
    supernet_name: str
    policy: Policy
    num_queries: int
    points: tuple[FrontierPoint, ...]

    def static_points(self) -> tuple[FrontierPoint, ...]:
        return tuple(p for p in self.points if p.kind == "static")

    def best_static_within_cost(self, budget_replica_seconds: float) -> FrontierPoint:
        """The best-attaining static pool not exceeding a cost budget."""
        affordable = [
            p
            for p in self.static_points()
            if p.replica_seconds <= budget_replica_seconds
        ]
        if not affordable:
            raise ValueError(
                f"no static pool fits {budget_replica_seconds:.2f} replica-seconds"
            )
        return max(affordable, key=lambda p: p.slo_attainment)

    def pareto(self) -> tuple[FrontierPoint, ...]:
        """Points no other point dominates (higher attainment, lower cost)."""
        out = []
        for p in self.points:
            dominated = any(
                (q.slo_attainment > p.slo_attainment and q.replica_seconds <= p.replica_seconds)
                or (q.slo_attainment >= p.slo_attainment and q.replica_seconds < p.replica_seconds)
                for q in self.points
            )
            if not dominated:
                out.append(p)
        return tuple(sorted(out, key=lambda p: p.replica_seconds))


def group_costs(spec, result) -> tuple[tuple[str, float, float], ...]:
    """Per replica group: (label, cost_weight, replica-seconds consumed).

    Replicas are attributed to groups by name (the facade names a group's
    replicas ``{name}-{i}`` with an integer position, matched exactly so
    a group named ``pool`` never absorbs ``pool-b``'s replicas); an
    unnamed group in a single-group scenario owns the whole pool.
    """
    out = []
    for gidx, group in enumerate(spec.replica_groups):
        label = group.name or f"group{gidx}"
        if group.name is not None:
            member = re.compile(re.escape(group.name) + r"-\d+\Z")
            cost_ms = sum(
                s.active_ms
                for s in result.replica_stats
                if member.match(s.name)
            )
        elif len(spec.replica_groups) == 1:
            cost_ms = result.total_replica_active_ms
        else:  # pragma: no cover - unnamed groups in multi-group scenarios
            cost_ms = float("nan")
        out.append((label, group.cost_weight, cost_ms / 1000.0))
    return tuple(out)


def diurnal_flash_segments(
    unit_ms: float, *, cycles_hint: float = 1.0
) -> tuple[tuple[float, float], ...]:
    """One diurnal day with a flash crowd, in units of the fastest service.

    ``unit_ms`` is the latency table's fastest service time; rates are
    expressed as multiples of one replica's peak capacity (``1/unit_ms``),
    so the same shape stresses any platform identically: a quiet night at
    0.3x, a working day at 1.3x (one replica already saturated), a short
    flash crowd at 4x, then back to the day level.
    """
    day = (
        (300.0 * unit_ms * cycles_hint, 0.3 / unit_ms),
        (150.0 * unit_ms * cycles_hint, 1.3 / unit_ms),
        (50.0 * unit_ms * cycles_hint, 4.0 / unit_ms),
        (150.0 * unit_ms * cycles_hint, 1.3 / unit_ms),
    )
    return day


def grid(
    supernet_name: str = "ofa_mobilenetv3",
    *,
    policy: Policy = Policy.STRICT_LATENCY,
    num_queries: int = 600,
    static_counts: tuple[int, ...] = (1, 2, 3, 4, 6),
    reactive_queue_thresholds: tuple[float, ...] = (2.0, 4.0),
    utilization_targets: tuple[float, ...] = (0.45, 0.65),
    max_replicas: int = 6,
    seed: int = 0,
) -> Grid:
    """Static pool sizes, autoscaler subtrees and the oracle, one trace.

    The arrival trace is a diurnal day with a flash crowd
    (:func:`diurnal_flash_segments`), cycling until ``num_queries`` are
    drawn.  All cells share the trace, the workload constraints, and one
    latency table, so the only variable is the provisioning strategy.
    """
    config = SushiStackConfig(supernet_name=supernet_name, policy=policy, seed=seed)
    unit_ms = fastest_service_ms(config)
    segments = diurnal_flash_segments(unit_ms)
    arrivals = ArrivalSpec(kind="time_varying", segments=segments, seed=seed)
    base = pool_scenario(
        "frontier", config, arrivals, num_queries, pattern="bursty", name="pool"
    )
    control_interval = 20.0 * unit_ms
    auto = AutoscalerSpec(
        control_interval_ms=control_interval,
        min_replicas=1,
        max_replicas=max_replicas,
        down_cooldown_ms=2.0 * control_interval,
    )
    autoscalers = [
        *(replace(auto, max_queue_per_replica=q) for q in reactive_queue_thresholds),
        *(
            replace(auto, policy="target_utilization", target_utilization=u)
            for u in utilization_targets
        ),
    ]
    # The oracle plan: provision each segment for its offered load (rate x
    # fastest service, padded 30% for constraint mix and arrival noise),
    # cycling with the trace's period.
    t, plan = 0.0, []
    for duration, rate in segments:
        plan.append((t, max(1, min(max_replicas, math.ceil(1.3 * rate * unit_ms)))))
        t += duration
    oracle = replace(auto, policy="scheduled", schedule=tuple(plan), period_ms=t)
    count = "replica_groups.0.count"
    return Grid(
        base,
        _label,
        {count: static_counts},
        {"autoscaler": [a.to_dict() for a in autoscalers]},
        {count: [plan[0][1]], "autoscaler": [oracle.to_dict()]},
    )


def _label(spec: ScenarioSpec) -> str:
    auto = spec.autoscaler
    if auto is None:
        return f"static-{spec.replica_groups[0].count}"
    if auto.policy == "reactive":
        return f"reactive-q{auto.max_queue_per_replica:g}"
    if auto.policy == "target_utilization":
        return f"target-u{auto.target_utilization:g}"
    return "oracle-schedule"


def _measure(spec: ScenarioSpec, result: SimulationResult) -> FrontierPoint:
    return measured(
        FrontierPoint,
        result,
        label=_label(spec),
        kind="static" if spec.autoscaler is None else spec.autoscaler.policy,
        startup_delay_ms=spec.replica_groups[0].startup_delay_ms,
        group_costs=group_costs(spec, result),
    )


def run(supernet_name: str = "ofa_mobilenetv3", **params: Any) -> FrontierResult:
    """Run :func:`grid` (same parameters) and check the frontier bar.

    The bar: some reactive point attains at least the SLO of the best
    static pool within its cost, at less than the peak-sized pool's cost.
    """
    cells = grid(supernet_name, **params)
    result = FrontierResult(
        supernet_name=supernet_name,
        policy=cells.base.policy,
        num_queries=cells.base.workload.num_queries,
        points=tuple(point for _, point in cells.measure(_measure)),
    )
    peak = max(result.static_points(), key=lambda p: p.replica_seconds)
    if not any(
        p.replica_seconds < peak.replica_seconds
        and p.slo_attainment
        >= result.best_static_within_cost(p.replica_seconds).slo_attainment
        for p in result.points
        if p.kind == "reactive"
    ):
        raise RuntimeError(
            "frontier bar failed: no reactive point attains the best static "
            "pool within its cost at less than the peak-sized pool's cost"
        )
    return result


def trace_scenario(**params: Any) -> ScenarioSpec:
    """The cell ``repro run frontier_autoscale --trace`` flight-records:
    :func:`grid`'s ``reactive-q2``, whose scale-up lag and drop clusters
    the recorder's decision explanations are built to make visible."""
    return grid(**params).scenario("reactive-q2")


def report(result: FrontierResult) -> str:
    pareto = {p.label for p in result.pareto()}
    rows = {}
    for p in sorted(result.points, key=lambda p: p.replica_seconds):
        star = "*" if p.label in pareto else " "
        rows[f"{star} {p.label}"] = {
            "kind": p.kind,
            "SLO attainment": p.slo_attainment,
            "replica-seconds": p.replica_seconds,
            "mean replicas": p.mean_replicas,
            "peak replicas": p.peak_replicas,
            "drop rate": p.drop_rate,
            "mean accuracy (%)": 100.0 * p.mean_accuracy,
        }
    return format_table(
        rows,
        title=(
            f"SLO-attainment-vs-cost frontier — {result.supernet_name} "
            f"({result.policy.value}), {result.num_queries} queries, "
            "diurnal + flash-crowd trace (* = Pareto-optimal)"
        ),
        precision=3,
    )


def to_jsonable(result: FrontierResult) -> dict:
    """A JSON-safe dump of the frontier (CI uploads this as an artifact)."""
    return {**jsonable(result), "pareto": [p.label for p in result.pareto()]}
