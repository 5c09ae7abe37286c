"""Benchmark (extension): open-loop SLO attainment under increasing load.

Times the ``load_sweep`` experiment driver: one :class:`ScenarioSpec` per
(replica count, arrival rate) cell, each run through ``run_scenario`` over
clones of one strict-latency MobileNetV3 stack (150 queries, rates 0.2, 0.5,
1.0 and 2.0 per ms).
"""

from repro.experiments import load_sweep


def test_bench_open_loop_load_sweep(benchmark, show):
    def sweep():
        return load_sweep.run(
            num_queries=150,
            arrival_rates_per_ms=(0.2, 0.5, 1.0, 2.0),
        )

    result = benchmark(sweep)
    show(load_sweep.report(result))
    # Higher load can only hurt SLO attainment.
    for num_replicas in load_sweep.DEFAULT_REPLICA_COUNTS:
        attainments = [a for _, a in result.attainment_curve(num_replicas)]
        assert all(a >= b - 1e-9 for a, b in zip(attainments, attainments[1:]))
