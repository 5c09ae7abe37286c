"""Benchmark (extension): batched dispatch — B=8 shared-SubNet vs B=1.

Acceptance demonstration for batched dispatch, driven through the
declarative serving facade: at a Poisson arrival rate that overloads the
unbatched pool, ``max_batch=8`` under the ``shared_subnet`` policy restores
strictly higher goodput with measurably fewer cache loads — queries
co-scheduled on one SubNet amortize the weight traffic and the cache load
across the batch, exactly what SGS weight sharing buys at serving time.

The run's headline metrics are dumped as JSON (deterministic — they are
simulation outcomes, not wall times) and compared by CI against the
committed ``BENCH_batching.json`` baseline with a 20% regression gate; see
``benchmarks/regression_gate.py``.
"""

import json
import os

from repro.core.policies import Policy
from repro.experiments.load_sweep import overload_rates
from repro.serving import (
    ArrivalSpec,
    BatchingSpec,
    ReplicaGroupSpec,
    ScenarioSpec,
    SushiStack,
    SushiStackConfig,
    WorkloadSpec,
    run_scenario,
)

#: Where the fresh metrics JSON lands (CI diffs it against BENCH_batching.json).
FRESH_JSON = os.environ.get("BENCH_BATCHING_JSON", "benchmark-batching-fresh.json")


def _scenario(max_batch: int, rate: float) -> ScenarioSpec:
    return ScenarioSpec(
        name=f"bench-batching-B{max_batch}",
        supernet_name="ofa_mobilenetv3",
        policy=Policy.STRICT_LATENCY,
        # A caching window larger than the batch: decisions fall on window
        # boundaries for both cells, so the load comparison is about
        # amortization, not decision cadence.
        cache_update_period=16,
        replica_groups=(
            ReplicaGroupSpec(
                count=2,
                discipline="edf",
                batching=BatchingSpec(max_batch=max_batch, policy="shared_subnet"),
            ),
        ),
        router="jsq",
        admission="drop_expired",
        workload=WorkloadSpec(
            num_queries=400,
            accuracy_range=None,
            # Several multiples of the family's latency range, so batched
            # evaluations can still meet SLOs (a constraint tighter than one
            # batch evaluation makes batching pointless by construction).
            latency_range_ms=(8.0, 40.0),
            pattern="uniform",
        ),
        arrivals=ArrivalSpec(kind="poisson", rate_per_ms=rate, seed=0),
        seed=0,
    )


def _cache_loads(result) -> int:
    return sum(1 for r in result.records if r.cache_load_ms > 0)


def test_bench_batching_overload(benchmark, show):
    stack = SushiStack(
        SushiStackConfig(
            supernet_name="ofa_mobilenetv3",
            policy=Policy.STRICT_LATENCY,
            cache_update_period=16,
            seed=0,
        )
    )
    # 4x one replica's fastest possible service: the 2-replica pool is
    # overloaded (rho >= 2) even at the table's minimum latency.
    (overload_rate,) = overload_rates(stack, (4.0,))

    def cells():
        return {
            b: run_scenario(_scenario(b, overload_rate))
            for b in (1, 8)
        }

    results = benchmark(cells)
    unbatched, batched = results[1], results[8]
    show(
        "\n".join(
            f"B={b}: goodput={r.goodput_per_ms:.3f}/ms "
            f"throughput={r.achieved_throughput_per_ms:.3f}/ms "
            f"attainment={r.slo_attainment:.3f} drop={r.drop_rate:.3f} "
            f"occupancy={r.mean_batch_occupancy:.2f} "
            f"cache_loads={_cache_loads(r)}"
            for b, r in sorted(results.items())
        )
    )

    metrics = {
        "B1": {
            "goodput_per_ms": unbatched.goodput_per_ms,
            "throughput_per_ms": unbatched.achieved_throughput_per_ms,
            "slo_attainment": unbatched.slo_attainment,
            "cache_loads": _cache_loads(unbatched),
        },
        "B8": {
            "goodput_per_ms": batched.goodput_per_ms,
            "throughput_per_ms": batched.achieved_throughput_per_ms,
            "slo_attainment": batched.slo_attainment,
            "cache_loads": _cache_loads(batched),
            "mean_batch_occupancy": batched.mean_batch_occupancy,
        },
        "goodput_gain": batched.goodput_per_ms / unbatched.goodput_per_ms,
    }
    with open(FRESH_JSON, "w", encoding="utf-8") as fh:
        json.dump(metrics, fh, indent=2)

    # The pool is genuinely overloaded at B=1 and batching actually engages.
    assert unbatched.offered_load > 1.0
    assert batched.mean_batch_occupancy > 2.0
    # Acceptance: shared-SubNet batching restores strictly higher goodput
    # with measurably fewer cache loads on the same trace and seed.
    assert batched.goodput_per_ms > unbatched.goodput_per_ms
    assert _cache_loads(batched) < _cache_loads(unbatched)
    # Batch members complete together, so records report the batch time;
    # the engine's accounting must stay within physical bounds regardless.
    for r in results.values():
        assert 0.0 <= r.drop_rate <= 1.0
        assert 0.0 <= r.slo_attainment <= 1.0
        stats_served = sum(s.num_served for s in r.replica_stats)
        assert stats_served == r.num_served
