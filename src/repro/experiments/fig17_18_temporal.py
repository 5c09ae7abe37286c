"""Fig. 17/18 (Appendix A.1) — Temporal analysis of SubGraph caching.

Sweeps the caching window ``Q`` (how many queries the running average is
amortized over) and reports the resulting mean served latency and accuracy.
The paper finds a sweet spot: very frequent updates pay the cache-reload cost
too often, very stale windows lose temporal locality (best around Q=4-8 for
ResNet50 and Q~10 for MobileNetV3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.accelerator.platforms import ANALYTIC_DEFAULT, PlatformConfig
from repro.analysis.reporting import format_table
from repro.core.metrics import ServingMetrics
from repro.core.policies import Policy
from repro.experiments.serving_pool import closed_loop_grid, measure_streams
from repro.serving.stack import SushiStackConfig
from repro.sweep import Grid

DEFAULT_WINDOWS: tuple[int, ...] = (1, 2, 4, 8, 10, 15)


@dataclass(frozen=True)
class WindowResult:
    window: int
    metrics: ServingMetrics
    amortized_latency_ms: float
    """Mean served latency with the per-query share of cache reload added."""


@dataclass(frozen=True)
class Fig17Result:
    supernet_name: str
    windows: tuple[WindowResult, ...]

    def best_window(self) -> int:
        """Window with the lowest cache-reload-amortized latency."""
        return min(self.windows, key=lambda w: w.amortized_latency_ms).window


def grid(
    supernet_name: str = "ofa_resnet50",
    *,
    platform: PlatformConfig = ANALYTIC_DEFAULT,
    policy: Policy = Policy.STRICT_ACCURACY,
    windows: Sequence[int] = DEFAULT_WINDOWS,
    num_queries: int = 200,
    seed: int = 0,
) -> Grid:
    """SUSHI at each caching window ``Q``, on one trace."""
    configs = [
        SushiStackConfig(supernet_name, platform, policy, cache_update_period=q, seed=seed)
        for q in windows
    ]
    return closed_loop_grid("fig17_18", configs, num_queries, ("sushi",))


def run(supernet_name: str = "ofa_resnet50", **params: Any) -> Fig17Result:
    """The windows of :func:`grid` (same parameters), measured."""
    cells = grid(supernet_name, **params)
    results = []
    for sweep, (streams, _) in zip(cells.sweeps, measure_streams(cells)):
        metrics = streams["sushi"].metrics
        amortized = metrics.mean_latency_ms + metrics.total_cache_load_ms / metrics.num_queries
        window = sweep.base.cache_update_period
        results.append(WindowResult(window, metrics, amortized_latency_ms=amortized))
    return Fig17Result(supernet_name=supernet_name, windows=tuple(results))


def report(result: Fig17Result) -> str:
    rows = {
        f"Q={w.window}": {
            "mean latency (ms)": w.metrics.mean_latency_ms,
            "amortized latency (ms)": w.amortized_latency_ms,
            "mean accuracy (%)": 100.0 * w.metrics.mean_accuracy,
            "cache hit ratio": w.metrics.mean_cache_hit_ratio,
            "cache reload total (ms)": w.metrics.total_cache_load_ms,
        }
        for w in result.windows
    }
    title = (
        f"Fig. 17/18 — temporal analysis, {result.supernet_name} "
        f"(best window Q={result.best_window()})"
    )
    return format_table(rows, title=title, precision=3)


def main() -> None:  # pragma: no cover
    for name in ("ofa_resnet50", "ofa_mobilenetv3"):
        print(report(run(name)))
        print()


if __name__ == "__main__":  # pragma: no cover
    main()
