"""Autonomous-vehicle perception serving: latency is the hard constraint.

The paper motivates SUSHI with on-board AV workloads (street-sign and
pedestrian detection, trajectory tracking) whose deadline changes with the
driving regime: sparse suburban cruising tolerates slower, more accurate
models, while dense urban traffic demands tight deadlines.  This example
models that as a *phased* query stream served under the STRICT_LATENCY
policy on the embedded ZCU104 platform, and shows how SUSHI's cache-aware
scheduling converts headroom into served accuracy.

Run with::

    python examples/autonomous_driving.py
"""

from __future__ import annotations

import numpy as np

from repro.accelerator.platforms import ZCU104
from repro.analysis.reporting import format_table
from repro.core.policies import Policy
from repro.experiments.serving_pool import closed_loop_grid, compare_systems, measure_streams
from repro.serving import SushiStackConfig

NUM_PHASES = 6


def main() -> None:
    config = SushiStackConfig(
        "ofa_resnet50",
        platform=ZCU104,
        policy=Policy.STRICT_LATENCY,
        cache_update_period=8,
        seed=42,
    )
    grid = closed_loop_grid(
        "av-perception",
        [config],
        240,
        pattern="phased",     # alternating urban (tight) / suburban (loose) phases
        num_phases=NUM_PHASES,
    )
    [(results, hit_ratio)] = measure_streams(grid)
    summary = compare_systems(results, sushi_hit_ratio=hit_ratio)

    rows = {}
    for name, stream in results.items():
        m = stream.metrics
        rows[name] = {
            "mean latency (ms)": m.mean_latency_ms,
            "latency SLO attainment": m.latency_slo_attainment,
            "mean served accuracy (%)": 100 * m.mean_accuracy,
            "off-chip energy (mJ)": m.total_offchip_energy_mj,
        }
    print(format_table(rows, title="AV perception stream on ZCU104 (STRICT_LATENCY)"))
    print(
        f"\nSUSHI served {summary.accuracy_improvement_points:+.2f} accuracy points vs "
        f"No-SUSHI at {summary.latency_improvement_vs_no_sushi_percent:.1f}% lower mean latency, "
        f"saving {summary.energy_saving_vs_no_sushi_percent:.1f}% off-chip energy."
    )

    # Per-phase view: which SubNets did the scheduler pick as deadlines changed?
    records = results["sushi"].records
    phase_len = len(records) // NUM_PHASES
    print("\nServed SubNet mix per driving phase (SUSHI):")
    for p in range(NUM_PHASES):
        chunk = records[p * phase_len : (p + 1) * phase_len]
        names, counts = np.unique([r.subnet_name for r in chunk], return_counts=True)
        mix = ", ".join(f"{n}x{c}" for n, c in zip(names, counts))
        mean_deadline = np.mean([r.latency_constraint_ms for r in chunk])
        print(f"  phase {p + 1}: mean deadline {mean_deadline:5.1f} ms -> {mix}")


if __name__ == "__main__":
    main()
