"""Unit tests for the experiment runner and system comparison."""

import pytest

from repro.core.policies import Policy
from repro.serving.runner import ExperimentRunner, StreamResult, compare_systems


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner("ofa_mobilenetv3", policy=Policy.STRICT_ACCURACY, seed=0)


@pytest.fixture(scope="module")
def trace(runner):
    return runner.default_workload(num_queries=40)


class TestExperimentRunner:
    def test_default_workload_spans_feasible_ranges(self, runner, trace):
        accs = [q.accuracy_constraint for q in trace]
        lats = [q.latency_constraint_ms for q in trace]
        assert min(accs) >= float(runner.sushi.table.accuracies.min()) - 1e-9
        assert max(lats) <= float(runner.sushi.table.latencies_ms.max()) + 1e-9

    def test_run_produces_three_systems(self, runner, trace):
        results = runner.run(trace)
        assert set(results) == {"no_sushi", "sushi_wo_sched", "sushi"}
        for stream in results.values():
            assert stream.metrics.num_queries == len(trace)

    def test_compare_headline_directions(self, runner, trace):
        _, summary = runner.compare(trace)
        # SUSHI should not be slower than No-SUSHI and should save energy.
        assert summary.latency_improvement_vs_no_sushi_percent >= -0.5
        assert summary.energy_saving_vs_no_sushi_percent > 0
        assert 0.0 <= summary.sushi_cache_hit_ratio <= 1.0

    def test_run_is_deterministic(self, runner, trace):
        first = runner.run(trace)["sushi"].metrics
        second = runner.run(trace)["sushi"].metrics
        assert first.mean_latency_ms == pytest.approx(second.mean_latency_ms)

    def test_compare_systems_requires_all(self, runner, trace):
        results = runner.run(trace)
        del results["sushi"]
        with pytest.raises(ValueError):
            compare_systems(results)

    def test_stream_result_from_records(self, runner, trace):
        records = runner.no_sushi.serve(trace)
        result = StreamResult.from_records("no_sushi", records)
        assert result.system == "no_sushi"
        assert result.metrics.num_queries == len(records)

    def test_strict_latency_improves_accuracy(self):
        runner = ExperimentRunner("ofa_mobilenetv3", policy=Policy.STRICT_LATENCY, seed=1)
        trace = runner.default_workload(num_queries=60)
        _, summary = runner.compare(trace)
        # Under a hard latency constraint, cache awareness lets SUSHI serve
        # equal-or-higher accuracy than the state-unaware baselines.
        assert summary.accuracy_improvement_points >= -1e-6
