"""Serving metrics: per-query records and stream-level summaries.

These are the quantities the paper's end-to-end evaluation reports: served
latency vs the query's latency constraint, served accuracy vs the accuracy
constraint (Fig. 15), mean latency/accuracy improvements (Section 5.7),
latency SLO attainment, off-chip energy, and the cache hit ratio of
Appendix A.4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np


@dataclass(frozen=True)
class QueryRecord:
    """Everything recorded about one served query."""

    query_index: int
    accuracy_constraint: float
    latency_constraint_ms: float
    subnet_name: str
    served_accuracy: float
    served_latency_ms: float
    cache_hit_ratio: float = 0.0
    offchip_energy_mj: float = 0.0
    cache_load_ms: float = 0.0
    replica_index: int = 0
    """Which replica served the query (0 in single-server setups)."""

    @property
    def meets_latency(self) -> bool:
        return self.served_latency_ms <= self.latency_constraint_ms

    @property
    def meets_accuracy(self) -> bool:
        return self.served_accuracy >= self.accuracy_constraint


Served = tuple[str, float, float, float, float, float]
"""What a backend returns for one served query: ``(subnet_name,
served_accuracy, served_latency_ms, cache_hit_ratio, offchip_energy_mj,
cache_load_ms)``, the :class:`QueryRecord` fields only the backend knows.
The query's record is ``QueryRecord(q.index, floor, q.latency_constraint_ms,
*served)``, where ``floor`` is the accuracy floor the backend was given."""


@dataclass(frozen=True)
class ServingMetrics:
    """Aggregate metrics over a stream of served queries."""

    num_queries: int
    mean_latency_ms: float
    p50_latency_ms: float
    p99_latency_ms: float
    mean_accuracy: float
    latency_slo_attainment: float
    accuracy_slo_attainment: float
    mean_cache_hit_ratio: float
    total_offchip_energy_mj: float
    total_cache_load_ms: float

    def as_dict(self) -> dict[str, float]:
        return {
            "num_queries": float(self.num_queries),
            "mean_latency_ms": self.mean_latency_ms,
            "p50_latency_ms": self.p50_latency_ms,
            "p99_latency_ms": self.p99_latency_ms,
            "mean_accuracy": self.mean_accuracy,
            "latency_slo_attainment": self.latency_slo_attainment,
            "accuracy_slo_attainment": self.accuracy_slo_attainment,
            "mean_cache_hit_ratio": self.mean_cache_hit_ratio,
            "total_offchip_energy_mj": self.total_offchip_energy_mj,
            "total_cache_load_ms": self.total_cache_load_ms,
        }


def percentile(values: Sequence[float] | np.ndarray, q: float) -> float:
    """``q``-th percentile of ``values`` (non-empty) by linear interpolation.

    Bit-identical to ``float(np.percentile(values, q))`` for finite values:
    the same virtual index ``(n - 1) * (q / 100)`` into the sorted values,
    and numpy's two-sided lerp between its neighbours (from the upper
    neighbour once the weight reaches 0.5).  An array is partitioned
    around the two neighbours, as numpy does; any other sequence is sorted
    in plain Python, which is cheaper for a control tick's few values.
    ``np.percentile`` itself is avoided because it imports ``numpy.ma``.
    """
    last = len(values) - 1
    virtual = last * (q / 100)
    lo = int(virtual)
    if isinstance(values, np.ndarray):
        ordered = np.partition(values, lo if lo >= last else (lo, lo + 1))
    else:
        ordered = sorted(values)
    if lo >= last:
        return float(ordered[last])
    a = float(ordered[lo])
    b = float(ordered[lo + 1])
    t = virtual - lo
    diff = b - a
    return b - diff * (1 - t) if t >= 0.5 else a + diff * t


def summarize_records(records: Sequence[QueryRecord]) -> ServingMetrics:
    """Aggregate per-query records into stream-level metrics."""
    if not records:
        raise ValueError("cannot summarize an empty record list")
    latencies = np.array([r.served_latency_ms for r in records])
    accuracies = np.array([r.served_accuracy for r in records])
    return ServingMetrics(
        num_queries=len(records),
        mean_latency_ms=float(latencies.mean()),
        p50_latency_ms=percentile(latencies, 50),
        p99_latency_ms=percentile(latencies, 99),
        mean_accuracy=float(accuracies.mean()),
        latency_slo_attainment=float(np.mean([r.meets_latency for r in records])),
        accuracy_slo_attainment=float(np.mean([r.meets_accuracy for r in records])),
        mean_cache_hit_ratio=float(np.mean([r.cache_hit_ratio for r in records])),
        total_offchip_energy_mj=float(sum(r.offchip_energy_mj for r in records)),
        total_cache_load_ms=float(sum(r.cache_load_ms for r in records)),
    )


def latency_improvement_percent(
    baseline: ServingMetrics, improved: ServingMetrics
) -> float:
    """Mean-latency reduction of ``improved`` relative to ``baseline`` (%)."""
    if baseline.mean_latency_ms <= 0:
        return 0.0
    return (
        100.0
        * (baseline.mean_latency_ms - improved.mean_latency_ms)
        / baseline.mean_latency_ms
    )


def accuracy_improvement_points(
    baseline: ServingMetrics, improved: ServingMetrics
) -> float:
    """Served-accuracy gain in percentage points (the paper's "0.98 %")."""
    return 100.0 * (improved.mean_accuracy - baseline.mean_accuracy)


def energy_saving_percent(baseline: ServingMetrics, improved: ServingMetrics) -> float:
    """Off-chip energy reduction of ``improved`` relative to ``baseline`` (%)."""
    if baseline.total_offchip_energy_mj <= 0:
        return 0.0
    return (
        100.0
        * (baseline.total_offchip_energy_mj - improved.total_offchip_energy_mj)
        / baseline.total_offchip_energy_mj
    )
