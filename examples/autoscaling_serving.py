"""Autoscaled serving: ride a diurnal + flash-crowd trace elastically.

Demonstrates the autoscaling control plane end to end:

1. load the bursty example scenario (``examples/scenarios/autoscale_pool.json``)
   — a single SUSHI replica group under a time-varying arrival trace with a
   reactive autoscaler (queue-depth/drop-rate thresholds, drain-then-retire),
2. run the same trace against static pools of 1..4 replicas by nulling the
   autoscaler and overriding the replica count,
3. compare SLO attainment against the replica-seconds *cost* each
   configuration paid — the autoscaler should sit above the static pool of
   equal mean cost and below the peak-sized pool's bill.

The same scenario runs unchanged from the command line::

    PYTHONPATH=src python -m repro serve --scenario examples/scenarios/autoscale_pool.json

Run with::

    PYTHONPATH=src python examples/autoscaling_serving.py
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.serving import ScenarioSpec, format_result_summary, run_scenario

SCENARIO = Path(__file__).parent / "scenarios" / "autoscale_pool.json"


def main() -> None:
    spec = ScenarioSpec.from_json(SCENARIO.read_text())
    result = run_scenario(spec)
    print(format_result_summary(spec, result))
    print()

    print("SLO attainment vs replica-seconds cost on the same trace:")
    rows = [
        (
            f"autoscaled ({result.autoscale.policy})",
            result.slo_attainment,
            result.replica_seconds,
            result.mean_active_replicas,
        )
    ]
    static = spec.override("autoscaler", None)
    for count in (1, 2, 3, 4):
        scaled = static.override("replica_groups.0.count", count)
        r = run_scenario(scaled)
        rows.append((f"static-{count}", r.slo_attainment, r.replica_seconds, float(count)))
    for label, slo, cost, mean_replicas in rows:
        print(
            f"  {label:<22} SLO {slo:5.3f}   cost {cost:6.3f} replica-s"
            f"   mean pool {mean_replicas:.2f}"
        )


if __name__ == "__main__":
    main()
