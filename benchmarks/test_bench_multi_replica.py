"""Benchmark (extension): multi-replica engine sweep — replicas x arrival rate.

Acceptance demonstration for the discrete-event engine, driven through the
declarative serving facade: every cell is one :class:`ScenarioSpec` run via
``run_scenario`` (the same path as ``python -m repro serve``).  At an arrival
rate that overloads a single replica (rho > 1), a 2-replica
join-shortest-queue configuration on the *same trace and seed* restores
strictly higher SLO attainment; a heterogeneous large+small-PB pool also
beats the overloaded single replica.
"""

from repro.core.policies import Policy
from repro.experiments.load_sweep import overload_rates
from repro.serving import (
    ArrivalSpec,
    ReplicaGroupSpec,
    ScenarioSpec,
    SushiStack,
    SushiStackConfig,
    WorkloadSpec,
    run_scenario,
)

REPLICA_COUNTS = (1, 2, 4)


def _scenario(num_replicas: int, rate: float) -> ScenarioSpec:
    return ScenarioSpec(
        name=f"bench-{num_replicas}x{rate:g}",
        supernet_name="ofa_mobilenetv3",
        policy=Policy.STRICT_LATENCY,
        replica_groups=(ReplicaGroupSpec(count=num_replicas, discipline="edf"),),
        router="jsq",
        admission="drop_expired",
        workload=WorkloadSpec(
            num_queries=150, accuracy_range=None, latency_range_ms=None
        ),
        arrivals=ArrivalSpec(kind="poisson", rate_per_ms=rate, seed=0),
        seed=0,
    )


def test_bench_multi_replica_sweep(benchmark, show):
    stack = SushiStack(
        SushiStackConfig(
            supernet_name="ofa_mobilenetv3", policy=Policy.STRICT_LATENCY, seed=0
        )
    )
    # A light rate and one that overloads a single replica even if every
    # query were served at the table's minimum latency (rho_1 >= 1.5).
    light_rate, overload_rate = overload_rates(stack, (0.375, 1.5))

    def sweep():
        return {
            (n, rate): run_scenario(_scenario(n, rate))
            for n in REPLICA_COUNTS
            for rate in (light_rate, overload_rate)
        }

    results = benchmark(sweep)
    show(
        "\n".join(
            f"{n} replica(s) @ {rate:.3g}/ms: rho={r.offered_load:.3f} "
            f"attainment={r.slo_attainment:.3f} drop={r.drop_rate:.3f} "
            f"p99={r.p99_response_ms:.3f}ms"
            for (n, rate), r in sorted(results.items())
        )
    )

    heavy_1 = results[(1, overload_rate)]
    heavy_2 = results[(2, overload_rate)]
    # One replica is genuinely overloaded at this rate; two are not.
    assert heavy_1.offered_load > 1.0
    assert heavy_2.offered_load < heavy_1.offered_load
    # Acceptance: 2-replica JSQ strictly beats 1 replica on the same trace/seed.
    assert heavy_2.slo_attainment > heavy_1.slo_attainment
    # More replicas never hurt at fixed load.
    assert results[(4, overload_rate)].slo_attainment >= heavy_2.slo_attainment
    # Every cell's accounting stays within physical bounds.
    for r in results.values():
        assert 0.0 <= r.drop_rate <= 1.0
        assert 0.0 <= r.slo_attainment <= 1.0


def test_bench_heterogeneous_pool(benchmark, show):
    """A mixed large-PB + small-PB pool rides out the same overload."""
    stack = SushiStack(
        SushiStackConfig(
            supernet_name="ofa_mobilenetv3", policy=Policy.STRICT_LATENCY, seed=0
        )
    )
    (overload_rate,) = overload_rates(stack, (1.5,))
    hetero = ScenarioSpec(
        name="bench-hetero",
        supernet_name="ofa_mobilenetv3",
        policy=Policy.STRICT_LATENCY,
        replica_groups=(
            ReplicaGroupSpec(count=1, pb_kb=1728.0, discipline="edf", name="large"),
            ReplicaGroupSpec(count=1, pb_kb=432.0, discipline="edf", name="small"),
        ),
        router="jsq",
        admission="drop_expired",
        workload=WorkloadSpec(
            num_queries=150, accuracy_range=None, latency_range_ms=None
        ),
        arrivals=ArrivalSpec(kind="poisson", rate_per_ms=overload_rate, seed=0),
        seed=0,
    )

    result = benchmark(lambda: run_scenario(hetero))
    single = run_scenario(_scenario(1, overload_rate))
    show(
        f"hetero 1 large + 1 small PB: rho={result.offered_load:.3f} "
        f"attainment={result.slo_attainment:.3f} vs single {single.slo_attainment:.3f}"
    )
    assert [s.name for s in result.replica_stats] == ["large-0", "small-0"]
    # Both tiers pull their weight and the pool beats the overloaded single.
    assert all(s.num_served > 0 for s in result.replica_stats)
    assert result.slo_attainment > single.slo_attainment
