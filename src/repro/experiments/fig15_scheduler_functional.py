"""Fig. 15 — SushiSched functional evaluation: serve strictly better constraints.

For a stream of random queries, the paper plots served latency against the
latency constraint (STRICT_LATENCY policy: almost all points below the y=x
line) and served accuracy against the accuracy constraint (STRICT_ACCURACY
policy: all points above y=x).  We reproduce both scatter series for both
SuperNet families and report the fraction of queries that satisfy their hard
constraint.

Serving flows through the discrete-event engine's closed loop (one query at
a time, rho → 0), i.e. each query is scheduled at dispatch time with its full
latency budget — the zero-queueing limit of the open-loop engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.accelerator.platforms import ANALYTIC_DEFAULT, PlatformConfig
from repro.analysis.reporting import format_kv
from repro.core.policies import Policy
from repro.experiments.serving_pool import closed_loop_grid, measure_streams
from repro.serving.stack import SushiStackConfig
from repro.sweep import Grid


@dataclass(frozen=True)
class ScatterSeries:
    """Paired (constraint, served) values for one policy."""

    policy: Policy
    constraints: tuple[float, ...]
    served: tuple[float, ...]

    @property
    def satisfied_fraction(self) -> float:
        """Fraction of points on the correct side of the y = x line."""
        if self.policy == Policy.STRICT_LATENCY:
            ok = sum(s <= c for c, s in zip(self.constraints, self.served))
        else:
            ok = sum(s >= c for c, s in zip(self.constraints, self.served))
        return ok / len(self.constraints)


@dataclass(frozen=True)
class Fig15Result:
    supernet_name: str
    latency_series: ScatterSeries
    accuracy_series: ScatterSeries


def grid(
    supernet_name: str = "ofa_resnet50",
    *,
    platform: PlatformConfig = ANALYTIC_DEFAULT,
    num_queries: int = 200,
    seed: int = 0,
) -> Grid:
    """SUSHI under STRICT_LATENCY, then under STRICT_ACCURACY, on one trace."""
    configs = [
        SushiStackConfig(supernet_name, platform, policy, seed=seed)
        for policy in (Policy.STRICT_LATENCY, Policy.STRICT_ACCURACY)
    ]
    return closed_loop_grid("fig15", configs, num_queries, ("sushi",))


def run(supernet_name: str = "ofa_resnet50", **params: Any) -> Fig15Result:
    """The two streams of :func:`grid` (same parameters) as scatter series."""
    (lat, _), (acc, _) = measure_streams(grid(supernet_name, **params))
    lat_records = lat["sushi"].records
    acc_records = acc["sushi"].records
    return Fig15Result(
        supernet_name=supernet_name,
        latency_series=ScatterSeries(
            policy=Policy.STRICT_LATENCY,
            constraints=tuple(r.latency_constraint_ms for r in lat_records),
            served=tuple(r.served_latency_ms for r in lat_records),
        ),
        accuracy_series=ScatterSeries(
            policy=Policy.STRICT_ACCURACY,
            constraints=tuple(r.accuracy_constraint for r in acc_records),
            served=tuple(r.served_accuracy for r in acc_records),
        ),
    )


def report(result: Fig15Result) -> str:
    return format_kv(
        {
            "queries": len(result.latency_series.constraints),
            "latency constraint satisfied (STRICT_LATENCY)": result.latency_series.satisfied_fraction,
            "accuracy constraint satisfied (STRICT_ACCURACY)": result.accuracy_series.satisfied_fraction,
        },
        title=f"Fig. 15 — SushiSched functional evaluation, {result.supernet_name}",
    )


def main() -> None:  # pragma: no cover
    for name in ("ofa_resnet50", "ofa_mobilenetv3"):
        print(report(run(name)))
        print()


if __name__ == "__main__":  # pragma: no cover
    main()
