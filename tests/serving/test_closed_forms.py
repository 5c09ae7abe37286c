"""Queueing theory as an outside oracle: the engine against closed forms.

One FIFO replica serving every query with the same SubNet (``static_subnet``:
one table entry, so a constant service time ``D``) behind ``round_robin`` and
``admit_all``, fed Poisson arrivals at rate ``lambda``, is an M/D/1 queue.
Its mean wait is the Pollaczek-Khinchine value ``lambda D^2 / (2 (1 - rho))``
and its utilization ``rho = lambda D``.  Nothing here reads the engine's own
code: a drift in arrivals, queueing, dispatch or busy-time accounting moves
the measured values off the formulas.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.serving import ArrivalSpec, ReplicaGroupSpec, ScenarioSpec, WorkloadSpec
from repro.serving.api import run_scenario

NUM_QUERIES = 200_000


def md1_scenario(rho: float, service_ms: float, seed: int) -> ScenarioSpec:
    return ScenarioSpec(
        name=f"md1-rho{rho}",
        supernet_name="ofa_mobilenetv3",
        replica_groups=(
            ReplicaGroupSpec(count=1, kind="static_subnet", discipline="fifo"),
        ),
        router="round_robin",
        admission="admit_all",
        workload=WorkloadSpec(num_queries=NUM_QUERIES),
        arrivals=ArrivalSpec(kind="poisson", rate_per_ms=rho / service_ms, seed=seed),
        seed=seed,
    )


def service_time_ms() -> float:
    """``D``: what the pinned SubNet's one table entry takes to serve."""
    probe = run_scenario(
        md1_scenario(0.5, 1.0, seed=0).override("num_queries", 10)
    )
    (service_ms,) = set(probe.outcomes.column("service_ms").tolist())
    return service_ms


@pytest.mark.parametrize("rho, tolerance", [(0.5, 0.03), (0.8, 0.05)])
def test_md1_mean_wait_and_utilization_match_closed_forms(rho, tolerance):
    service_ms = service_time_ms()
    spec = md1_scenario(rho, service_ms, seed=1)
    result = run_scenario(spec)
    assert result.num_served == NUM_QUERIES  # admit_all: nothing dropped

    service = result.outcomes.column("service_ms")
    assert np.all(service == service_ms)  # a constant service time: M/D/1

    rate = spec.arrivals.rate_per_ms
    pk_wait_ms = rate * service_ms**2 / (2.0 * (1.0 - rho))
    assert result.mean_queueing_ms == pytest.approx(pk_wait_ms, rel=tolerance)

    (replica,) = result.replica_stats
    assert replica.busy_ms / result.makespan_ms == pytest.approx(rho, rel=0.01)
