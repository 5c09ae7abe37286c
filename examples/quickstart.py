"""Quickstart: serve a random query stream with SUSHI and compare baselines.

This is the smallest end-to-end use of the library's public API:

1. describe one SUSHI configuration over the OFA-MobileNetV3 Pareto family
   on the paper's analytic platform,
2. build its closed-loop grid: one single-replica engine cell for each of
   the three serving systems (No-SUSHI, SUSHI w/o scheduler, SUSHI), all
   serving the same random query stream with (accuracy, latency)
   constraints,
3. serve the stream through all three and print the headline comparison.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro.analysis.reporting import format_kv, format_table
from repro.core.policies import Policy
from repro.experiments.serving_pool import closed_loop_grid, compare_systems, measure_streams
from repro.serving import SushiStackConfig


def main() -> None:
    config = SushiStackConfig(
        "ofa_mobilenetv3",
        policy=Policy.STRICT_ACCURACY,
        cache_update_period=4,
        seed=0,
    )
    [(results, hit_ratio)] = measure_streams(closed_loop_grid("quickstart", [config], 200))
    summary = compare_systems(results, sushi_hit_ratio=hit_ratio)

    rows = {
        name: {
            "mean latency (ms)": stream.metrics.mean_latency_ms,
            "p99 latency (ms)": stream.metrics.p99_latency_ms,
            "mean accuracy (%)": 100 * stream.metrics.mean_accuracy,
            "off-chip energy (mJ)": stream.metrics.total_offchip_energy_mj,
            "cache hit ratio": stream.metrics.mean_cache_hit_ratio,
        }
        for name, stream in results.items()
    }
    num_queries = len(results["sushi"].records)
    print(format_table(rows, title=f"Serving {num_queries} random queries on OFA-MobileNetV3"))
    print()
    print(format_kv(summary.as_dict(), title="SUSHI vs baselines (headline)"))

    # Show a few individual scheduling decisions.
    print("\nFirst five queries served by SUSHI:")
    for record in results["sushi"].records[:5]:
        print(
            f"  q{record.query_index}: constraint (acc >= {record.accuracy_constraint:.3f}, "
            f"lat <= {record.latency_constraint_ms:.2f} ms) -> SubNet {record.subnet_name}, "
            f"served {record.served_latency_ms:.2f} ms at {100 * record.served_accuracy:.2f}% "
            f"(PB hit ratio {record.cache_hit_ratio:.2f})"
        )


if __name__ == "__main__":
    main()
