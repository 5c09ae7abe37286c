"""Query-stream (workload) generators.

The paper evaluates SUSHI on streams of "random queries" whose accuracy and
latency constraints are drawn across the SuperNet family's feasible ranges
(Fig. 15/16), and motivates the work with applications whose constraints
*drift* over time (AV navigation of sparse vs dense terrain, ICU load).  This
module provides seeded generators for several such patterns:

* ``uniform``    — i.i.d. constraints over the feasible ranges (the paper's
                   random-query streams),
* ``phased``     — piecewise-constant phases (low-latency phase, then
                   high-accuracy phase, ...), modelling regime changes,
* ``drift``      — constraints that sweep smoothly from one end of the range
                   to the other,
* ``bursty``     — mostly relaxed constraints with occasional tight bursts.

All generators take an explicit seed so experiments are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, get_args

import numpy as np

from repro.serving.query import QueryTrace

Pattern = Literal["uniform", "phased", "drift", "bursty"]

#: All supported workload patterns (runtime counterpart of :data:`Pattern`).
PATTERNS: tuple[str, ...] = get_args(Pattern)


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters of a generated query stream.

    Attributes
    ----------
    num_queries:
        Stream length.
    accuracy_range:
        (min, max) accuracy constraints, as fractions.  ``None`` defers the
        choice: scenario builders (:mod:`repro.serving.api`) resolve it to
        the serving pool's feasible range at build time.
    latency_range_ms:
        (min, max) latency constraints in ms, or ``None`` to defer as above.
        Sensible explicit values depend on the SuperNet family and platform;
        use :func:`feasible_ranges_from_table` to derive them from a latency
        table.
    pattern:
        One of ``uniform``, ``phased``, ``drift``, ``bursty``.
    num_phases:
        Number of phases for the ``phased`` pattern.
    burst_fraction:
        Fraction of queries inside bursts for the ``bursty`` pattern.
    """

    num_queries: int = 200
    accuracy_range: tuple[float, float] | None = (0.75, 0.80)
    latency_range_ms: tuple[float, float] | None = (2.0, 20.0)
    pattern: Pattern = "uniform"
    num_phases: int = 4
    burst_fraction: float = 0.2

    def __post_init__(self) -> None:
        if self.num_queries <= 0:
            raise ValueError("num_queries must be positive")
        if self.accuracy_range is not None:
            lo, hi = self.accuracy_range
            if not (0.0 < lo <= hi < 1.0):
                raise ValueError(f"invalid accuracy_range {self.accuracy_range}")
        if self.latency_range_ms is not None:
            llo, lhi = self.latency_range_ms
            if not (0.0 < llo <= lhi):
                raise ValueError(f"invalid latency_range_ms {self.latency_range_ms}")
        if self.pattern not in PATTERNS:
            raise ValueError(f"unknown pattern {self.pattern!r}; expected one of {PATTERNS}")
        if self.num_phases <= 0:
            raise ValueError("num_phases must be positive")
        if not (0.0 <= self.burst_fraction <= 1.0):
            raise ValueError("burst_fraction must be in [0, 1]")

    @property
    def has_resolved_ranges(self) -> bool:
        return self.accuracy_range is not None and self.latency_range_ms is not None


def feasible_ranges_from_table(latency_table) -> tuple[tuple[float, float], tuple[float, float]]:
    """Derive (accuracy_range, latency_range_ms) from a SushiAbs latency table.

    The ranges span the table's own accuracy / latency extremes so generated
    constraints are always meaningful for the family being served.
    """
    accs = latency_table.accuracies
    lats = latency_table.latencies_ms
    return (
        (float(accs.min()), float(accs.max())),
        (float(lats.min()), float(lats.max())),
    )


class WorkloadGenerator:
    """Seeded generator of query traces."""

    def __init__(self, spec: WorkloadSpec, *, seed: int = 0) -> None:
        if not spec.has_resolved_ranges:
            raise ValueError(
                "workload spec has unresolved (None) constraint ranges; "
                "resolve them first, e.g. with feasible_ranges_from_table "
                "or by building the trace through repro.serving.api"
            )
        self.spec = spec
        self.seed = seed

    # ------------------------------------------------------------ patterns
    def _uniform(self, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        n = self.spec.num_queries
        acc = rng.uniform(*self.spec.accuracy_range, size=n)
        lat = rng.uniform(*self.spec.latency_range_ms, size=n)
        return acc, lat

    def _phased(self, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        n = self.spec.num_queries
        phases = self.spec.num_phases
        acc_lo, acc_hi = self.spec.accuracy_range
        lat_lo, lat_hi = self.spec.latency_range_ms
        acc = np.empty(n)
        lat = np.empty(n)
        boundaries = np.linspace(0, n, phases + 1).astype(int)
        for p in range(phases):
            lo, hi = boundaries[p], boundaries[p + 1]
            # Alternate between accuracy-hungry and latency-critical phases.
            if p % 2 == 0:
                acc_center = acc_hi - 0.1 * (acc_hi - acc_lo)
                lat_center = lat_hi - 0.2 * (lat_hi - lat_lo)
            else:
                acc_center = acc_lo + 0.1 * (acc_hi - acc_lo)
                lat_center = lat_lo + 0.2 * (lat_hi - lat_lo)
            acc[lo:hi] = np.clip(
                rng.normal(acc_center, 0.08 * (acc_hi - acc_lo), size=hi - lo),
                acc_lo,
                acc_hi,
            )
            lat[lo:hi] = np.clip(
                rng.normal(lat_center, 0.1 * (lat_hi - lat_lo), size=hi - lo),
                lat_lo,
                lat_hi,
            )
        return acc, lat

    def _drift(self, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        n = self.spec.num_queries
        acc_lo, acc_hi = self.spec.accuracy_range
        lat_lo, lat_hi = self.spec.latency_range_ms
        t = np.linspace(0.0, 1.0, n)
        acc = acc_lo + (acc_hi - acc_lo) * t
        lat = lat_hi - (lat_hi - lat_lo) * t
        acc = np.clip(acc + rng.normal(0, 0.05 * (acc_hi - acc_lo), size=n), acc_lo, acc_hi)
        lat = np.clip(lat + rng.normal(0, 0.05 * (lat_hi - lat_lo), size=n), lat_lo, lat_hi)
        return acc, lat

    def _bursty(self, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        n = self.spec.num_queries
        acc_lo, acc_hi = self.spec.accuracy_range
        lat_lo, lat_hi = self.spec.latency_range_ms
        acc = rng.uniform(acc_lo, acc_lo + 0.5 * (acc_hi - acc_lo), size=n)
        lat = rng.uniform(lat_lo + 0.5 * (lat_hi - lat_lo), lat_hi, size=n)
        in_burst = rng.random(n) < self.spec.burst_fraction
        # Bursts demand tight latency (transient overload → drop to faster nets).
        lat[in_burst] = rng.uniform(lat_lo, lat_lo + 0.2 * (lat_hi - lat_lo), size=in_burst.sum())
        acc[in_burst] = rng.uniform(acc_lo, acc_lo + 0.2 * (acc_hi - acc_lo), size=in_burst.sum())
        return acc, lat

    # ------------------------------------------------------------ generate
    def generate_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The stream's ``(accuracy, latency_ms)`` constraint arrays.

        Exactly the draws :meth:`generate` wraps in a :class:`QueryTrace`.
        """
        rng = np.random.default_rng(self.seed)
        pattern = self.spec.pattern
        if pattern == "uniform":
            return self._uniform(rng)
        if pattern == "phased":
            return self._phased(rng)
        if pattern == "drift":
            return self._drift(rng)
        if pattern == "bursty":
            return self._bursty(rng)
        raise ValueError(f"unknown pattern {pattern!r}")  # pragma: no cover

    def _overridden_arrays(
        self,
        accuracy_override: np.ndarray | None,
        latency_override: np.ndarray | None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """The constraint draws, with replayed-log columns substituted.

        Trace-replay scenarios may carry per-request ``accuracy_floor`` /
        ``slo_ms`` columns (see :mod:`repro.serving.trace_io`); a present
        column replaces the corresponding synthetic draw wholesale, so the
        served constraints are exactly the recorded ones.  Overrides longer
        than the stream are truncated; shorter ones are an error.
        """
        acc, lat = self.generate_arrays()
        n = self.spec.num_queries
        for label, override in (
            ("accuracy", accuracy_override),
            ("latency", latency_override),
        ):
            if override is not None and len(override) < n:
                raise ValueError(
                    f"{label} override supplies {len(override)} values for "
                    f"{n} queries"
                )
        if accuracy_override is not None:
            acc = np.asarray(accuracy_override, dtype=np.float64)[:n]
        if latency_override is not None:
            lat = np.asarray(latency_override, dtype=np.float64)[:n]
        return acc, lat

    def generate(
        self,
        *,
        name: str | None = None,
        accuracy_override: np.ndarray | None = None,
        latency_override: np.ndarray | None = None,
    ) -> QueryTrace:
        """Produce a query trace according to the spec."""
        acc, lat = self._overridden_arrays(accuracy_override, latency_override)
        return QueryTrace(acc, lat, name=name or f"{self.spec.pattern}-{self.seed}")
