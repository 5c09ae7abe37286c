"""Throughput regression gate for the benchmark baselines.

Compares a freshly produced metrics JSON against the matching committed
baseline and fails when any gated metric regressed by more than the
tolerance (default 20%).  ``--kind`` selects the metric set:

``batching`` (default)
    Fresh JSON from ``benchmarks/test_bench_batching.py`` vs the committed
    ``BENCH_batching.json``.  The gated quantities are *simulation
    outcomes* — goodput, throughput, SLO attainment and the B=8/B=1
    goodput gain — which are deterministic for a fixed seed, so the gate
    is immune to CI runner noise; a >20% drop can only come from a
    behavioral change in the serving stack.  Cache-load counts are gated
    in the other direction: the batched cell must not load *more* than
    the baseline allows.

``engine``
    Fresh JSON from ``benchmarks/test_bench_engine.py`` vs the committed
    ``BENCH_engine.json``.  These are *wall-clock* queries/sec of the
    engine's event loop (the ``fast_qps`` rows), so CI passes a wide
    tolerance (runner speed varies).  Only the 10k/1M tiers are gated: the
    10M tier is nightly-only and absent from PR-produced fresh JSONs.

Usage::

    python benchmarks/regression_gate.py \
        benchmarks/BENCH_batching.json benchmark-batching-fresh.json \
        [--tolerance 0.20]
    python benchmarks/regression_gate.py --kind engine \
        benchmarks/BENCH_engine.json benchmark-engine-fresh.json \
        --tolerance 0.5
"""

from __future__ import annotations

import argparse
import json
import sys

#: (path into the JSON, metric direction). ``higher``: fresh must reach
#: baseline * (1 - tolerance). ``lower``: fresh must stay under
#: baseline * (1 + tolerance).
GATED_METRICS: dict[str, tuple[tuple[tuple[str, ...], str], ...]] = {
    "batching": (
        (("B1", "goodput_per_ms"), "higher"),
        (("B1", "throughput_per_ms"), "higher"),
        (("B8", "goodput_per_ms"), "higher"),
        (("B8", "throughput_per_ms"), "higher"),
        (("B8", "mean_batch_occupancy"), "higher"),
        (("goodput_gain",), "higher"),
        (("B8", "cache_loads"), "lower"),
    ),
    "engine": (
        (("q10k", "fast_qps"), "higher"),
        (("q1m", "fast_qps"), "higher"),
    ),
}


def _lookup(data: dict, path: tuple[str, ...]) -> float:
    node = data
    for key in path:
        node = node[key]
    return float(node)


def check(baseline: dict, fresh: dict, tolerance: float, kind: str = "batching") -> list[str]:
    """Violation messages (empty when every gated metric is within bounds)."""
    violations = []
    for path, direction in GATED_METRICS[kind]:
        label = ".".join(path)
        try:
            base = _lookup(baseline, path)
            new = _lookup(fresh, path)
        except KeyError:
            violations.append(f"{label}: missing from baseline or fresh JSON")
            continue
        if direction == "higher":
            floor = base * (1.0 - tolerance)
            if new < floor:
                violations.append(
                    f"{label}: {new:.4f} < {floor:.4f} "
                    f"(baseline {base:.4f}, tolerance {tolerance:.0%})"
                )
        else:
            ceiling = base * (1.0 + tolerance)
            if new > ceiling:
                violations.append(
                    f"{label}: {new:.4f} > {ceiling:.4f} "
                    f"(baseline {base:.4f}, tolerance {tolerance:.0%})"
                )
    return violations


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="committed baseline JSON")
    parser.add_argument("fresh", help="freshly produced metrics JSON")
    parser.add_argument(
        "--kind",
        choices=sorted(GATED_METRICS),
        default="batching",
        help="which benchmark's metric set to gate (default: batching)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.20,
        help="allowed relative regression (default 0.20)",
    )
    args = parser.parse_args(argv)
    with open(args.baseline, encoding="utf-8") as fh:
        baseline = json.load(fh)
    with open(args.fresh, encoding="utf-8") as fh:
        fresh = json.load(fh)
    violations = check(baseline, fresh, args.tolerance, args.kind)
    if violations:
        print("throughput regression gate FAILED:", file=sys.stderr)
        for v in violations:
            print(f"  {v}", file=sys.stderr)
        return 1
    print(
        f"throughput regression gate passed "
        f"({len(GATED_METRICS[args.kind])} {args.kind} metrics "
        f"within {args.tolerance:.0%})"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
