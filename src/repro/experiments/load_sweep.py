"""Load sweep (extension) — open-loop SLO attainment vs load and replicas.

The paper's intro motivates SUSHI with SLO attainment under variable query
traffic; this experiment quantifies it with the discrete-event engine: the
same query trace arrives at increasing Poisson rates on 1..N SUSHI replicas
(join-shortest-queue routing, deadline-expired shedding), and we report
offered load (rho), SLO attainment, drop rate, response percentiles and
achieved throughput per cell.  At rho << 1 the open loop converges to the
closed-loop serving of Fig. 15/16; past rho = 1 a single replica saturates
and adding replicas restores attainment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.accelerator.platforms import ANALYTIC_DEFAULT, PlatformConfig
from repro.analysis.reporting import format_table
from repro.core.policies import Policy
from repro.experiments.serving_pool import measured, pool_scenario
from repro.serving.engine import SimulationResult
from repro.serving.spec import ArrivalSpec, ScenarioSpec
from repro.serving.stack import SushiStack, SushiStackConfig
from repro.sweep import Grid

DEFAULT_ARRIVAL_RATES: tuple[float, ...] = (0.2, 0.5, 1.0, 2.0)
DEFAULT_REPLICA_COUNTS: tuple[int, ...] = (1, 2)


@dataclass(frozen=True)
class LoadCell:
    """Aggregates of one (replica count, arrival rate) engine run."""

    num_replicas: int
    arrival_rate_per_ms: float
    offered_load: float
    slo_attainment: float
    drop_rate: float
    mean_response_ms: float
    p99_response_ms: float
    achieved_throughput_per_ms: float
    mean_accuracy: float


@dataclass(frozen=True)
class LoadSweepResult:
    supernet_name: str
    policy: Policy
    cells: tuple[LoadCell, ...]

    def cell(self, num_replicas: int, rate: float) -> LoadCell:
        for c in self.cells:
            if c.num_replicas == num_replicas and c.arrival_rate_per_ms == rate:
                return c
        raise KeyError(f"no cell for ({num_replicas} replicas, {rate}/ms)")

    def attainment_curve(self, num_replicas: int) -> list[tuple[float, float]]:
        """(arrival rate, SLO attainment) points for one replica count."""
        return sorted(
            (c.arrival_rate_per_ms, c.slo_attainment)
            for c in self.cells
            if c.num_replicas == num_replicas
        )


def overload_rates(stack: SushiStack, factors: tuple[float, ...]) -> tuple[float, ...]:
    """Arrival rates as multiples of one replica's fastest possible service.

    A factor of 1.5 overloads a single replica (rho >= 1.5) even if every
    query were served at the latency table's minimum — the knob the
    multi-replica benchmark and example turn.
    """
    fastest_ms = float(stack.table.latencies_ms.min())
    return tuple(f / fastest_ms for f in factors)


def grid(
    supernet_name: str = "ofa_mobilenetv3",
    *,
    platform: PlatformConfig = ANALYTIC_DEFAULT,
    policy: Policy = Policy.STRICT_LATENCY,
    num_queries: int = 150,
    arrival_rates_per_ms: tuple[float, ...] = DEFAULT_ARRIVAL_RATES,
    replica_counts: tuple[int, ...] = DEFAULT_REPLICA_COUNTS,
    discipline: str = "edf",
    router: str = "jsq",
    admission: str = "drop_expired",
    cache_update_period: int = 4,
    seed: int = 0,
) -> Grid:
    """Replica counts x Poisson arrival rates over one query trace."""
    config = SushiStackConfig(
        supernet_name=supernet_name,
        platform=platform,
        policy=policy,
        cache_update_period=cache_update_period,
        seed=seed,
    )
    # The rate axis replaces this placeholder rate in every cell.
    arrivals = ArrivalSpec(kind="poisson", rate_per_ms=1.0, seed=seed)
    base = pool_scenario(
        "load-sweep",
        config,
        arrivals,
        num_queries,
        router=router,
        admission=admission,
        discipline=discipline,
    )
    return Grid(
        base,
        _label,
        {
            "replica_groups.0.count": replica_counts,
            "arrivals.rate_per_ms": arrival_rates_per_ms,
        },
    )


def _label(spec: ScenarioSpec) -> str:
    return (
        f"{spec.replica_groups[0].count} replica(s) @ "
        f"{spec.arrivals.rate_per_ms:g}/ms"
    )


def _measure(spec: ScenarioSpec, result: SimulationResult) -> LoadCell:
    return measured(
        LoadCell,
        result,
        num_replicas=spec.replica_groups[0].count,
        arrival_rate_per_ms=spec.arrivals.rate_per_ms,
    )


def run(supernet_name: str = "ofa_mobilenetv3", **params: Any) -> LoadSweepResult:
    """Run :func:`grid` (same parameters) and check the load bar.

    The bar: for every replica count, SLO attainment never rises as the
    arrival rate grows.
    """
    cells = grid(supernet_name, **params)
    result = LoadSweepResult(
        supernet_name=supernet_name,
        policy=cells.base.policy,
        cells=tuple(cell for _, cell in cells.measure(_measure)),
    )
    for n in sorted({c.num_replicas for c in result.cells}):
        curve = [a for _, a in result.attainment_curve(n)]
        if any(later > earlier + 1e-9 for earlier, later in zip(curve, curve[1:])):
            raise RuntimeError(
                f"load bar failed: attainment rises with load at {n} replica(s): {curve}"
            )
    return result


def report(result: LoadSweepResult) -> str:
    rows = {}
    for c in result.cells:
        rows[f"{c.num_replicas} replica(s) @ {c.arrival_rate_per_ms:g}/ms"] = {
            "rho": c.offered_load,
            "SLO attainment": c.slo_attainment,
            "drop rate": c.drop_rate,
            "mean response (ms)": c.mean_response_ms,
            "p99 response (ms)": c.p99_response_ms,
            "throughput (/ms)": c.achieved_throughput_per_ms,
            "mean accuracy (%)": 100.0 * c.mean_accuracy,
        }
    return format_table(
        rows,
        title=(
            f"Load sweep — open-loop engine, {result.supernet_name} "
            f"({result.policy.value})"
        ),
        precision=3,
    )
