"""Queueing theory as an outside oracle: the engine against closed forms.

One FIFO replica serving every query with the same SubNet (``static_subnet``:
one table entry, so a constant service time ``D``) behind ``round_robin`` and
``admit_all``, fed Poisson arrivals at rate ``lambda``, is an M/D/1 queue.
Its mean wait is the Pollaczek-Khinchine value ``lambda D^2 / (2 (1 - rho))``
and its utilization ``rho = lambda D``.  Nothing here reads the engine's own
code: a drift in arrivals, queueing, dispatch or busy-time accounting moves
the measured values off the formulas.

A pool of identical stateless replicas behind ``round_robin`` is checked
against an exact identity instead: it is as many independent one-replica
queues, each over every c-th arrival.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.serving import ArrivalSpec, ReplicaGroupSpec, ScenarioSpec, WorkloadSpec
from repro.serving.api import run_scenario
from repro.serving.trace_io import TraceLog, write_csv_log

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


# ------------------------------------------------ the exact round-robin split
#: Pool size of the split identity.
POOL = 3
SPLIT_QUERIES = 90


def split_scenario(kind: str, path, count: int, num_queries: int) -> ScenarioSpec:
    """``count`` identical FIFO replicas of a stateless ``kind`` behind
    ``round_robin`` and ``admit_all``, replaying the log at ``path``."""
    return ScenarioSpec(
        name=f"split-{kind}-{count}",
        supernet_name="ofa_mobilenetv3",
        replica_groups=(ReplicaGroupSpec(count=count, kind=kind, discipline="fifo"),),
        router="round_robin",
        admission="admit_all",
        workload=WorkloadSpec(num_queries=num_queries),
        arrivals=ArrivalSpec(kind="trace", path=str(path)),
    )


def start_and_completion(result):
    outcomes = result.outcomes
    start = outcomes.column("start_ms")
    return start, start + outcomes.column("service_ms")


# Mean arrival gaps (ms) that load each replica of the pool to about 0.9
# (no_sushi serves these floors in ~0.43 ms, the pinned SubNet in ~1.31 ms),
# so the sub-queues wait: the split is checked under load, not only idle.
@pytest.mark.parametrize("kind, mean_gap_ms", [("no_sushi", 0.16), ("static_subnet", 0.5)])
def test_round_robin_pool_is_c_independent_single_replica_queues(kind, mean_gap_ms, tmp_path):
    """Round robin sends query i to replica i mod c, and a stateless replica
    serves each query as it would alone, so a pool of c is c separate FIFO
    queues: its start and completion times, query for query, are those of c
    one-replica runs over rows k, k + c, ... of the same log."""
    rng = np.random.default_rng(7)
    gaps = rng.exponential(mean_gap_ms, SPLIT_QUERIES)
    log = TraceLog(
        timestamps_ms=np.cumsum(gaps),
        slo_ms=rng.uniform(0.5, 3.0, SPLIT_QUERIES),
        accuracy_floor=rng.uniform(0.70, 0.78, SPLIT_QUERIES),
    )
    write_csv_log(tmp_path / "pool.csv", log)
    pooled = run_scenario(split_scenario(kind, tmp_path / "pool.csv", POOL, SPLIT_QUERIES))
    assert pooled.num_served == SPLIT_QUERIES
    waits = pooled.outcomes.column("start_ms") - pooled.outcomes.column("arrival_ms")
    assert np.count_nonzero(waits) >= SPLIT_QUERIES // 4
    start, completion = start_and_completion(pooled)
    for k in range(POOL):
        rows = np.arange(k, SPLIT_QUERIES, POOL)
        path = tmp_path / f"rows{k}.csv"
        write_csv_log(
            path,
            TraceLog(
                timestamps_ms=log.timestamps_ms[rows],
                slo_ms=log.slo_ms[rows],
                accuracy_floor=log.accuracy_floor[rows],
            ),
        )
        alone = run_scenario(split_scenario(kind, path, 1, rows.size))
        alone_start, alone_completion = start_and_completion(alone)
        assert start[rows].tolist() == alone_start.tolist()
        assert completion[rows].tolist() == alone_completion.tolist()
