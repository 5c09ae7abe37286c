"""Latency/accuracy Pareto frontier extraction.

The paper serves a sequence of SubNets drawn from the Pareto frontier of the
latency/accuracy trade-off (6 for ResNet50, 7 for MobileNetV3).  This module
provides the generic frontier computation used by the model zoo and by the
scheduler's feasibility analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.supernet.subnet import SubNet


@dataclass(frozen=True)
class ParetoPoint:
    """One point of the latency/accuracy trade-off space."""

    subnet: SubNet
    latency_ms: float
    accuracy: float

    def dominates(self, other: "ParetoPoint") -> bool:
        """True if this point is no worse in both objectives and better in one."""
        no_worse = self.latency_ms <= other.latency_ms and self.accuracy >= other.accuracy
        better = self.latency_ms < other.latency_ms or self.accuracy > other.accuracy
        return no_worse and better


def pareto_frontier(points: Iterable[ParetoPoint]) -> list[ParetoPoint]:
    """Return the non-dominated subset, sorted by ascending latency.

    Ties in latency keep only the highest-accuracy point; the result is
    strictly increasing in both latency and accuracy (a usable frontier for
    the scheduler's argmin/argmax selections).
    """
    pts = sorted(points, key=lambda p: (p.latency_ms, -p.accuracy))
    frontier: list[ParetoPoint] = []
    best_acc = float("-inf")
    for p in pts:
        if p.accuracy > best_acc:
            frontier.append(p)
            best_acc = p.accuracy
    return frontier
