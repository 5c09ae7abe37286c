"""Integration tests: the full SUSHI stack across modules.

These exercise SuperNet -> candidate set -> latency table -> scheduler ->
accelerator (+PB) -> metrics as one pipeline, checking the cross-module
invariants the paper's evaluation relies on.  Where a test reads the
stack's state after a stream, it serves the stream query by query on a
stack of the process's serve table.
"""

import numpy as np
import pytest

from closed_loop_oracle import serve_trace
from repro.core.policies import Policy
from repro.experiments.serving_pool import closed_loop_grid, compare_systems, measure_streams
from repro.serving.api import build_trace
from repro.serving.stack import SushiStack, SushiStackConfig
from repro.serving.workload import WorkloadGenerator, WorkloadSpec

CONFIG = SushiStackConfig("ofa_mobilenetv3", policy=Policy.STRICT_ACCURACY, seed=3)


class TestEndToEndConsistency:
    @pytest.fixture(scope="class")
    def grid(self):
        return closed_loop_grid("end-to-end", [CONFIG], 80)

    @pytest.fixture(scope="class")
    def trace(self, grid):
        return build_trace(grid.base)

    @pytest.fixture
    def sushi(self):
        return SushiStack(CONFIG)

    def test_scheduler_and_pb_stay_in_sync(self, sushi, trace):
        serve_trace(sushi, trace)
        sched_idx = sushi.scheduler.cache_state_idx
        expected = sushi.pb.fit_subgraph(sushi.candidates[sched_idx])
        assert sushi.pb.cached.weight_bytes == expected.weight_bytes

    def test_served_latency_matches_latency_table_scale(self, sushi, trace):
        records = serve_trace(sushi, trace)
        table = sushi.table
        lo, hi = float(table.latencies_ms.min()), float(table.latencies_ms.max())
        for r in records:
            assert lo * 0.9 <= r.served_latency_ms <= hi * 1.1

    def test_cache_hit_ratio_close_to_paper_band(self, sushi, trace):
        # Appendix A.4 reports 66 % (ResNet50) and 78 % (MobV3) vector hit
        # ratios; our substrate should land in a broad band around them.
        records = serve_trace(sushi, trace)
        mean_hit = float(np.mean([r.cache_hit_ratio for r in records[10:]]))
        assert 0.3 < mean_hit <= 1.0

    def test_three_systems_accuracy_identical_under_strict_accuracy(self, grid):
        [(results, _)] = measure_streams(grid)
        accs = {k: v.metrics.mean_accuracy for k, v in results.items()}
        assert accs["sushi"] == pytest.approx(accs["no_sushi"], abs=1e-9)

    def test_full_stack_deterministic_across_instances(self, trace):
        config = SushiStackConfig(supernet_name="ofa_mobilenetv3", seed=9)
        a = serve_trace(SushiStack(config), trace)
        b = serve_trace(SushiStack(config), trace)
        assert [r.subnet_name for r in a] == [r.subnet_name for r in b]

    def test_resnet50_end_to_end_smoke(self):
        config = SushiStackConfig("ofa_resnet50", policy=Policy.STRICT_LATENCY, seed=2)
        [(results, hit_ratio)] = measure_streams(closed_loop_grid("smoke", [config], 40))
        summary = compare_systems(results, sushi_hit_ratio=hit_ratio)
        assert results["sushi"].metrics.num_queries == 40
        assert summary.energy_saving_vs_no_sushi_percent > 0

    def test_drifting_workload_triggers_cache_updates(self):
        sushi = SushiStack(
            SushiStackConfig("ofa_mobilenetv3", policy=Policy.STRICT_ACCURACY, seed=4)
        )
        acc_range, lat_range = (0.758, 0.803), (0.3, 2.0)
        spec = WorkloadSpec(
            num_queries=80, accuracy_range=acc_range, latency_range_ms=lat_range, pattern="drift"
        )
        trace = WorkloadGenerator(spec, seed=4).generate()
        records = serve_trace(sushi, trace)
        # Constraints drift from loose to tight, so the served SubNets change
        # and the scheduler must have moved the cached SubGraph at least once.
        assert sushi.scheduler.cache_update_count() >= 1
        assert any(r.cache_load_ms > 0 for r in records)
