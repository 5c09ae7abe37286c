"""Unit tests for workload (query stream) generators."""

import numpy as np
import pytest

from repro.serving.workload import WorkloadGenerator, WorkloadSpec


class TestWorkloadSpec:
    def test_invalid_ranges_rejected(self):
        with pytest.raises(ValueError):
            WorkloadSpec(accuracy_range=(0.8, 0.7))
        with pytest.raises(ValueError):
            WorkloadSpec(latency_range_ms=(5.0, 1.0))
        with pytest.raises(ValueError):
            WorkloadSpec(num_queries=0)
        with pytest.raises(ValueError):
            WorkloadSpec(burst_fraction=1.5)


@pytest.mark.parametrize("pattern", ["uniform", "phased", "drift", "bursty"])
class TestPatterns:
    def test_length_and_bounds(self, pattern):
        spec = WorkloadSpec(num_queries=100, pattern=pattern)
        trace = WorkloadGenerator(spec, seed=1).generate()
        assert len(trace) == 100
        lo_a, hi_a = spec.accuracy_range
        lo_l, hi_l = spec.latency_range_ms
        for q in trace:
            assert lo_a <= q.accuracy_constraint <= hi_a
            assert lo_l <= q.latency_constraint_ms <= hi_l

    def test_deterministic_given_seed(self, pattern):
        spec = WorkloadSpec(num_queries=50, pattern=pattern)
        a = WorkloadGenerator(spec, seed=7).generate()
        b = WorkloadGenerator(spec, seed=7).generate()
        assert list(a) == list(b)

    def test_different_seeds_differ(self, pattern):
        spec = WorkloadSpec(num_queries=50, pattern=pattern)
        a = WorkloadGenerator(spec, seed=1).generate()
        b = WorkloadGenerator(spec, seed=2).generate()
        assert [q.accuracy_constraint for q in a] != [q.accuracy_constraint for q in b]


class TestPatternShapes:
    def test_drift_accuracy_increases(self):
        spec = WorkloadSpec(num_queries=200, pattern="drift")
        trace = WorkloadGenerator(spec, seed=0).generate()
        acc = np.array([q.accuracy_constraint for q in trace])
        first, last = acc[:50].mean(), acc[-50:].mean()
        assert last > first

    def test_bursty_has_tight_latency_cluster(self):
        spec = WorkloadSpec(num_queries=300, pattern="bursty", burst_fraction=0.3)
        trace = WorkloadGenerator(spec, seed=0).generate()
        lat = np.array([q.latency_constraint_ms for q in trace])
        lo, hi = spec.latency_range_ms
        tight = np.mean(lat < lo + 0.25 * (hi - lo))
        assert 0.1 < tight < 0.5

    def test_phased_has_distinct_phases(self):
        spec = WorkloadSpec(num_queries=200, pattern="phased", num_phases=2)
        trace = WorkloadGenerator(spec, seed=0).generate()
        acc = np.array([q.accuracy_constraint for q in trace])
        assert abs(acc[:100].mean() - acc[100:].mean()) > 0.01

    def test_trace_name_includes_pattern(self):
        spec = WorkloadSpec(num_queries=10, pattern="uniform")
        assert "uniform" in WorkloadGenerator(spec, seed=3).generate().name
