"""The zoo's SubNet families lie on the latency/accuracy Pareto frontier.

The paper serves SubNets drawn from the frontier of the latency/accuracy
trade-off (6 for ResNet50, 7 for MobileNetV3).  The zoo lists them by
hand; the frontier extraction below checks that the analytic model agrees
that none of them is dominated.
"""

from dataclasses import dataclass
from typing import Iterable

from repro.accelerator.analytic_model import SushiAccelModel
from repro.accelerator.platforms import ANALYTIC_DEFAULT
from repro.supernet.accuracy import AccuracyModel
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
    """The non-dominated subset, sorted by ascending latency.

    Ties in latency keep only the highest-accuracy point; the result is
    strictly increasing in both latency and accuracy.
    """
    frontier: list[ParetoPoint] = []
    best_acc = float("-inf")
    for p in sorted(points, key=lambda p: (p.latency_ms, -p.accuracy)):
        if p.accuracy > best_acc:
            frontier.append(p)
            best_acc = p.accuracy
    return frontier


def _point(subnet, latency, accuracy):
    return ParetoPoint(subnet=subnet, latency_ms=latency, accuracy=accuracy)


class TestParetoPoint:
    def test_domination(self, resnet50_subnets):
        sn = resnet50_subnets[0]
        better = _point(sn, 1.0, 0.80)
        worse = _point(sn, 2.0, 0.78)
        assert better.dominates(worse)
        assert not worse.dominates(better)

    def test_no_self_domination(self, resnet50_subnets):
        p = _point(resnet50_subnets[0], 1.0, 0.8)
        assert not p.dominates(p)


class TestParetoFrontier:
    def test_removes_dominated(self, resnet50_subnets):
        sn = resnet50_subnets[0]
        points = [_point(sn, 1.0, 0.76), _point(sn, 2.0, 0.75), _point(sn, 3.0, 0.80)]
        frontier = pareto_frontier(points)
        assert len(frontier) == 2
        assert all(p.accuracy != 0.75 for p in frontier)

    def test_frontier_sorted_and_monotone(self, resnet50_subnets):
        sn = resnet50_subnets[0]
        points = [_point(sn, l, a) for l, a in [(5, 0.79), (1, 0.75), (3, 0.78), (2, 0.74)]]
        frontier = pareto_frontier(points)
        lats = [p.latency_ms for p in frontier]
        accs = [p.accuracy for p in frontier]
        assert lats == sorted(lats)
        assert accs == sorted(accs)

    def test_empty_input(self):
        assert pareto_frontier([]) == []

    def test_paper_family_is_nondominated(self, resnet50, resnet50_subnets):
        # The zoo's Pareto family should itself lie on the frontier of the
        # latency/accuracy space induced by the analytic model.
        model = SushiAccelModel(ANALYTIC_DEFAULT)
        accuracy = AccuracyModel(resnet50)
        points = [
            _point(sn, model.subnet_latency_ms(sn), accuracy.accuracy(sn))
            for sn in resnet50_subnets
        ]
        frontier = pareto_frontier(points)
        assert len(frontier) == len(resnet50_subnets)
