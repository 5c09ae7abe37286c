"""Benchmark (extension): the SLO-attainment-vs-cost frontier sweep.

Acceptance demonstration for the autoscaling control plane, driven through
the declarative facade: over one diurnal + flash-crowd trace the reactive
autoscaler must attain at least the SLO of the best static pool of no
greater replica-seconds cost, while costing less than the static pool sized
for the peak.  The full frontier (static pools, reactive and
target-utilization autoscalers, the scheduled oracle) is printed so the
Pareto picture can be eyeballed next to the numbers.
"""

from repro.experiments import frontier_autoscale


def test_bench_frontier_autoscale(benchmark, show):
    def sweep():
        return frontier_autoscale.run(
            num_queries=500,
            static_counts=(1, 2, 3, 4, 6),
            reactive_queue_thresholds=(4.0,),
            utilization_targets=(0.5,),
            seed=0,
        )

    result = benchmark.pedantic(sweep, rounds=1, iterations=1)
    show(frontier_autoscale.report(result))

    reactive = result.point("reactive-q4")
    best_static = result.best_static_within_cost(reactive.replica_seconds)
    assert reactive.slo_attainment >= best_static.slo_attainment
    peak = max(result.static_points(), key=lambda p: p.replica_seconds)
    assert reactive.replica_seconds < peak.replica_seconds
    # The elastic pool actually flexed: scale-ups happened and the mean pool
    # sits strictly between the floor and the cap.
    assert 1.0 < reactive.mean_replicas < peak.mean_replicas
