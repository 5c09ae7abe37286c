"""Multi-replica serving: ride out an overload with the declarative API.

Demonstrates the spec-driven serving facade end to end:

1. describe the scenario declaratively — one :class:`ScenarioSpec` with a
   SUSHI replica group (join-shortest-queue routing, earliest-deadline-first
   queues, deadline-expired shedding) and a Poisson arrival process at a
   rate that overloads a single replica,
2. run the same scenario with 1, 2 and 4 replicas via ``run_scenario``
   (one ``--override``-style tweak of the replica count per run, sharing a
   single latency table through the stack cache),
3. print how attainment, drops and tail latency react.

The same scenario serialized to JSON (``spec.to_json()``) runs unchanged
from the command line::

    PYTHONPATH=src python -m repro serve --scenario scenario.json

Run with::

    PYTHONPATH=src python examples/multi_replica_serving.py
"""

from __future__ import annotations

from repro.core.policies import Policy
from repro.experiments.load_sweep import overload_rates
from repro.serving import (
    ArrivalSpec,
    ReplicaGroupSpec,
    ScenarioSpec,
    SushiStack,
    SushiStackConfig,
    WorkloadSpec,
    format_result_summary,
    run_scenario,
)


def main() -> None:
    stack = SushiStack(
        SushiStackConfig(
            supernet_name="ofa_mobilenetv3", policy=Policy.STRICT_LATENCY, seed=0
        )
    )
    # Overload one replica even at the family's fastest service time.
    (rate,) = overload_rates(stack, (1.5,))
    spec = ScenarioSpec(
        name="overload",
        supernet_name="ofa_mobilenetv3",
        policy=Policy.STRICT_LATENCY,
        replica_groups=(ReplicaGroupSpec(count=1, discipline="edf"),),
        router="jsq",
        admission="drop_expired",
        workload=WorkloadSpec(
            num_queries=300, accuracy_range=None, latency_range_ms=None
        ),
        arrivals=ArrivalSpec(kind="poisson", rate_per_ms=rate, seed=0),
        seed=0,
    )
    for num_replicas in (1, 2, 4):
        scaled = spec.override("replica_groups.0.count", num_replicas)
        result = run_scenario(scaled)
        print(format_result_summary(scaled, result))
        print()


if __name__ == "__main__":
    main()
