"""ICU stability-score serving: accuracy is the hard constraint.

The paper's second motivating deployment is bedside/ICU inference (HOLMES):
prediction quality is paramount, but the tolerable latency shrinks whenever
the number of triaged patients surges.  This example models a shift change —
patient load ramps up over time — as a *drift* workload served under the
STRICT_ACCURACY policy, and reports how SubGraph-Stationary caching keeps
latency and off-chip energy down while accuracy constraints are always met.

Run with::

    python examples/icu_triage.py
"""

from __future__ import annotations

import numpy as np

from repro.analysis.reporting import format_table
from repro.core.policies import Policy
from repro.experiments.serving_pool import closed_loop_grid, compare_systems, measure_streams
from repro.serving import SushiStackConfig


def main() -> None:
    config = SushiStackConfig(
        "ofa_mobilenetv3",
        policy=Policy.STRICT_ACCURACY,
        cache_update_period=10,
        seed=7,
    )
    grid = closed_loop_grid(
        "icu-triage",
        [config],
        300,
        pattern="drift",      # accuracy demands rise as sicker patients arrive
    )
    [(results, hit_ratio)] = measure_streams(grid)
    summary = compare_systems(results, sushi_hit_ratio=hit_ratio)

    rows = {}
    for name, stream in results.items():
        m = stream.metrics
        rows[name] = {
            "mean latency (ms)": m.mean_latency_ms,
            "accuracy SLO attainment": m.accuracy_slo_attainment,
            "mean served accuracy (%)": 100 * m.mean_accuracy,
            "off-chip energy (mJ)": m.total_offchip_energy_mj,
            "PB hit ratio": m.mean_cache_hit_ratio,
        }
    print(format_table(rows, title="ICU triage stream (STRICT_ACCURACY)"))
    print(
        f"\nEvery accuracy constraint was met; SUSHI reduced mean latency by "
        f"{summary.latency_improvement_vs_no_sushi_percent:.1f}% and off-chip energy by "
        f"{summary.energy_saving_vs_no_sushi_percent:.1f}% relative to No-SUSHI."
    )

    # Show how the scheduler escalates to larger SubNets as demands drift up.
    records = results["sushi"].records
    thirds = np.array_split(records, 3)
    print("\nServed SubNet mix as accuracy demands rise (SUSHI):")
    for label, chunk in zip(("early shift", "mid shift", "late shift"), thirds):
        names, counts = np.unique([r.subnet_name for r in chunk], return_counts=True)
        mix = ", ".join(f"{n}x{c}" for n, c in zip(names, counts))
        print(f"  {label}: {mix}")


if __name__ == "__main__":
    main()
