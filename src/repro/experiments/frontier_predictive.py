"""Frontier sweep (extension) — predictive vs reactive autoscaling under
cold-start delay.

``frontier_autoscale`` asked how much capacity a given SLO attainment costs
when scale-up is *free*.  Real replicas are not free: a cold replica loads
weights, warms caches and joins routing only after a startup delay, and
during that window a reactive policy — which only acts once queues have
already grown — serves the ramp with yesterday's pool.  This experiment
puts a price on that lag.  Over one diurnal *ramp* trace (staircase up to a
peak and back down, the shape a forecast can actually learn) it runs the
``reactive`` and ``predictive`` policies at identical control settings for
several cold-start delays, plus static pools for context, and reports every
(SLO attainment, replica-seconds) point.

The headline property (checked by :func:`run` and asserted in
``tests/serving/test_provisioning.py``): with a nonzero
``startup_delay_ms`` the predictive policy — which
extrapolates the windowed arrival-rate trend one provisioning horizon ahead
— achieves SLO attainment at least as high as the reactive policy at equal
or lower replica-seconds cost.  With zero delay the two are within noise of
each other: prediction only matters when capacity takes time to arrive.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from repro.analysis.reporting import format_table
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
class PredictivePoint:
    """One serving configuration on the SLO-vs-cost plane."""

    label: str
    kind: str
    """``static`` / ``reactive`` / ``predictive``."""
    startup_delay_ms: float
    slo_attainment: float
    replica_seconds: float
    weighted_replica_seconds: float
    mean_replicas: float
    peak_replicas: int
    drop_rate: float
    num_scale_ups: int
    scaling_events: tuple = ()
    """The autoscaler's full :class:`ScalingEvent` log (empty for static
    pools) — kept in the JSON artifact so every point carries the control
    decisions (group, policy desired size, clamps, budget trims) that
    produced its frontier position."""


@dataclass(frozen=True)
class PredictiveFrontierResult(LabelledPoints):
    supernet_name: str
    policy: Policy
    num_queries: int
    startup_delays_ms: tuple[float, ...]
    points: tuple[PredictivePoint, ...]

    def pair(self, startup_delay_ms: float) -> tuple[PredictivePoint, PredictivePoint]:
        """(reactive, predictive) at one cold-start delay."""
        by_kind = {p.kind: p for p in self.points if p.startup_delay_ms == startup_delay_ms}
        if not {"reactive", "predictive"} <= by_kind.keys():
            raise KeyError(f"no reactive/predictive pair at delay {startup_delay_ms!r}")
        return by_kind["reactive"], by_kind["predictive"]


def diurnal_ramp_segments(unit_ms: float) -> tuple[tuple[float, float], ...]:
    """A staircase diurnal day, in units of the fastest service time.

    Unlike :func:`~repro.experiments.frontier_autoscale.diurnal_flash_segments`
    (whose flash crowd is a step no forecast can see coming), this day ramps
    up to its peak and back down in stages — the shape whose *trend* a
    sliding-window slope estimate can extrapolate.  Rates are multiples of
    one replica's peak capacity (``1/unit_ms``): a quiet night at 0.3x,
    a morning ramp through 0.8x and 1.6x, a 2.6x midday followed by a 3.4x
    peak hour, then a staged decline.
    """
    return (
        (20.0 * unit_ms, 0.3 / unit_ms),
        (15.0 * unit_ms, 0.8 / unit_ms),
        (15.0 * unit_ms, 1.6 / unit_ms),
        (15.0 * unit_ms, 2.6 / unit_ms),
        (10.0 * unit_ms, 3.4 / unit_ms),
        (15.0 * unit_ms, 2.2 / unit_ms),
        (15.0 * unit_ms, 1.2 / unit_ms),
        (15.0 * unit_ms, 0.5 / unit_ms),
    )


def grid(
    supernet_name: str = "ofa_mobilenetv3",
    *,
    policy: Policy = Policy.STRICT_LATENCY,
    num_queries: int = 600,
    startup_delay_units: tuple[float, ...] = (0.0, 12.0),
    static_counts: tuple[int, ...] = (1, 4),
    max_replicas: int = 6,
    seed: int = 0,
) -> Grid:
    """Static pool sizes, then cold-start delay x autoscaler subtree.

    ``startup_delay_units`` are multiples of the latency table's fastest
    service time (the same unit the arrival rates are expressed in), so the
    sweep stresses any platform identically.  All cells share the trace,
    the workload constraints, one latency table and the control settings —
    the only variables are the policy and the delay.
    """
    config = SushiStackConfig(supernet_name=supernet_name, policy=policy, seed=seed)
    unit_ms = fastest_service_ms(config)
    segments = diurnal_ramp_segments(unit_ms)
    arrivals = ArrivalSpec(kind="time_varying", segments=segments, seed=seed)
    base = pool_scenario(
        "predictive", config, arrivals, num_queries, pattern="bursty", name="pool"
    )
    # The control loop must sample each ramp stage several times for a
    # trend to be visible: 2.5 service units per tick gives ~6 ticks per
    # stage of the staircase (stages are 10-20 units long).
    control_interval = 2.5 * unit_ms
    reactive = AutoscalerSpec(
        control_interval_ms=control_interval,
        min_replicas=1,
        max_replicas=max_replicas,
        down_cooldown_ms=2.0 * control_interval,
    )
    # A slightly conservative set-point: forecast errors on a live ramp are
    # one-sided (capacity that arrives late is lost attainment; capacity
    # that arrives early idles for a tick), so the predictive cells
    # provision a little headroom below the default 0.6 target.
    predictive = replace(reactive, policy="predictive", target_utilization=0.55)
    units_of = {units * unit_ms: units for units in startup_delay_units}

    def label(spec: ScenarioSpec) -> str:
        group, auto = spec.replica_groups[0], spec.autoscaler
        if auto is None:
            return f"static-{group.count}"
        return f"{auto.policy}-d{units_of[group.startup_delay_ms]:g}"

    return Grid(
        base,
        label,
        {"replica_groups.0.count": static_counts},
        {
            "replica_groups.0.startup_delay_ms": list(units_of),
            "autoscaler": [reactive.to_dict(), predictive.to_dict()],
        },
    )


def _measure(spec: ScenarioSpec, result: SimulationResult) -> PredictivePoint:
    """The cell's point; its label (in service units) is the grid's."""
    return measured(
        PredictivePoint,
        result,
        label="",
        kind="static" if spec.autoscaler is None else spec.autoscaler.policy,
        startup_delay_ms=spec.replica_groups[0].startup_delay_ms,
    )


def run(supernet_name: str = "ofa_mobilenetv3", **params: Any) -> PredictiveFrontierResult:
    """Run :func:`grid` (same parameters) and check the cold-start bar.

    The bar: at every nonzero startup delay, the predictive policy attains
    at least the reactive policy's SLO at no more replica-seconds.
    """
    cells = grid(supernet_name, **params)
    points = tuple(replace(p, label=label) for label, p in cells.measure(_measure))
    result = PredictiveFrontierResult(
        supernet_name=supernet_name,
        policy=cells.base.policy,
        num_queries=cells.base.workload.num_queries,
        startup_delays_ms=tuple(
            dict.fromkeys(p.startup_delay_ms for p in points if p.kind != "static")
        ),
        points=points,
    )
    for delay_ms in (d for d in result.startup_delays_ms if d > 0):
        reactive, predictive = result.pair(delay_ms)
        if (
            predictive.slo_attainment < reactive.slo_attainment
            or predictive.replica_seconds > reactive.replica_seconds
        ):
            raise RuntimeError(
                f"cold-start bar failed at {delay_ms:g} ms: predictive attains "
                f"{predictive.slo_attainment:.4f} at {predictive.replica_seconds:.4f}"
                f" replica-seconds, reactive {reactive.slo_attainment:.4f} at "
                f"{reactive.replica_seconds:.4f}"
            )
    return result


def trace_scenario(**params: Any) -> ScenarioSpec:
    """The cell ``repro run frontier_predictive --trace`` flight-records:
    :func:`grid`'s ``predictive-d12``, whose PROVISIONING segments and
    forecast-driven early scale-ups show on the replica timelines."""
    return grid(**params).scenario("predictive-d12")


def report(result: PredictiveFrontierResult) -> str:
    rows = {}
    for p in result.points:
        rows[p.label] = {
            "kind": p.kind,
            "startup delay (ms)": p.startup_delay_ms,
            "SLO attainment": p.slo_attainment,
            "replica-seconds": p.replica_seconds,
            "mean replicas": p.mean_replicas,
            "peak replicas": p.peak_replicas,
            "drop rate": p.drop_rate,
            "scale-ups": p.num_scale_ups,
        }
    return format_table(
        rows,
        title=(
            f"Predictive vs reactive under cold start — {result.supernet_name} "
            f"({result.policy.value}), {result.num_queries} queries, "
            "diurnal ramp trace"
        ),
        precision=3,
    )
