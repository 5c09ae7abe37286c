"""Unit tests for the closed-loop cells and the system comparison."""

import pytest

from repro.core.policies import Policy
from repro.experiments.serving_pool import (
    StreamResult,
    closed_loop_grid,
    compare_systems,
    measure_streams,
)
from repro.serving.api import build_trace, run_scenario
from repro.serving.stack import SushiStackConfig, sushi_table

CONFIG = SushiStackConfig("ofa_mobilenetv3", policy=Policy.STRICT_ACCURACY, seed=0)


@pytest.fixture(scope="module")
def grid():
    return closed_loop_grid("closed-loop", [CONFIG], 40)


@pytest.fixture(scope="module")
def trace(grid):
    return build_trace(grid.base)


class TestClosedLoopGrid:
    def test_default_workload_spans_feasible_ranges(self, trace):
        table = sushi_table(CONFIG).table
        accs = [q.accuracy_constraint for q in trace]
        lats = [q.latency_constraint_ms for q in trace]
        assert min(accs) >= float(table.accuracies.min()) - 1e-9
        assert max(lats) <= float(table.latencies_ms.max()) + 1e-9

    def test_run_produces_three_systems(self, grid, trace):
        [(results, _)] = measure_streams(grid)
        assert set(results) == {"no_sushi", "sushi_wo_sched", "sushi"}
        for stream in results.values():
            assert stream.metrics.num_queries == len(trace)

    def test_compare_headline_directions(self, grid):
        [(results, hit_ratio)] = measure_streams(grid)
        summary = compare_systems(results, sushi_hit_ratio=hit_ratio)
        # SUSHI should not be slower than No-SUSHI and should save energy.
        assert summary.latency_improvement_vs_no_sushi_percent >= -0.5
        assert summary.energy_saving_vs_no_sushi_percent > 0
        assert 0.0 <= summary.sushi_cache_hit_ratio <= 1.0

    def test_run_is_deterministic(self, grid):
        [(first, _)] = measure_streams(grid)
        [(second, _)] = measure_streams(grid)
        assert first["sushi"].metrics.mean_latency_ms == pytest.approx(
            second["sushi"].metrics.mean_latency_ms
        )

    def test_compare_systems_requires_all(self, grid):
        [(results, _)] = measure_streams(grid)
        del results["sushi"]
        with pytest.raises(ValueError):
            compare_systems(results)

    def test_stream_result_from_records(self, grid, trace):
        _, no_sushi = grid.scenarios()[0]
        records = run_scenario(no_sushi).records
        result = StreamResult.from_records("no_sushi", records)
        assert result.system == "no_sushi"
        assert result.metrics.num_queries == len(records) == len(trace)

    def test_strict_latency_improves_accuracy(self):
        config = SushiStackConfig("ofa_mobilenetv3", policy=Policy.STRICT_LATENCY, seed=1)
        [(results, hit_ratio)] = measure_streams(closed_loop_grid("sl", [config], 60))
        summary = compare_systems(results, sushi_hit_ratio=hit_ratio)
        # Under a hard latency constraint, cache awareness lets SUSHI serve
        # equal-or-higher accuracy than the state-unaware baselines.
        assert summary.accuracy_improvement_points >= -1e-6
