"""Tests for the parallel sweep grid engine (`repro.sweep`).

The load-bearing guarantee: the merged sweep artifact is **byte-identical**
whatever the worker count — parallelism is an execution strategy, never an
observable.  Error cells (a cell whose overrides fail validation or whose
run raises) are reported per cell without poisoning the rest of the grid.
"""

from __future__ import annotations

import json

import pytest

from repro.serving import ArrivalSpec, ReplicaGroupSpec, ScenarioSpec, WorkloadSpec
from repro.sweep import (
    METRIC_FIELDS,
    CellResult,
    SweepAxis,
    SweepResult,
    SweepSpec,
    format_sweep_summary,
    run_sweep,
)

EVENTS = tuple(0.35 * (i + 1) for i in range(20))


def base_scenario() -> ScenarioSpec:
    return ScenarioSpec(
        name="sweep-test",
        supernet_name="ofa_mobilenetv3",
        policy="strict_latency",
        replica_groups=(ReplicaGroupSpec(count=1, name="pool"),),
        router="round_robin",
        admission="drop_expired",
        workload=WorkloadSpec(
            num_queries=20, accuracy_range=None, latency_range_ms=None
        ),
        arrivals=ArrivalSpec(kind="trace", events=EVENTS),
        seed=5,
    )


def grid_spec() -> SweepSpec:
    return SweepSpec(
        base=base_scenario(),
        axes=(
            SweepAxis(path="arrivals.rate_scale", values=(1.0, 2.0)),
            SweepAxis(path="replica_groups.0.count", values=(1, 2)),
        ),
        name="grid-test",
    )


class TestSweepSpec:
    def test_round_trips_exactly(self):
        spec = grid_spec()
        assert SweepSpec.from_dict(spec.to_dict()) == spec
        assert SweepSpec.from_json(spec.to_json()) == spec
        assert SweepSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    def test_cells_expand_last_axis_fastest(self):
        cells = grid_spec().cells()
        assert len(cells) == 4
        assert cells[0] == (("arrivals.rate_scale", 1.0), ("replica_groups.0.count", 1))
        assert cells[1] == (("arrivals.rate_scale", 1.0), ("replica_groups.0.count", 2))
        assert cells[2] == (("arrivals.rate_scale", 2.0), ("replica_groups.0.count", 1))
        assert cells[3] == (("arrivals.rate_scale", 2.0), ("replica_groups.0.count", 2))

    def test_cell_scenario_applies_overrides_and_label(self):
        spec = grid_spec()
        cell = spec.cells()[3]
        scenario = spec.scenario(cell)
        assert scenario.arrivals.rate_scale == 2.0
        assert scenario.replica_groups[0].count == 2
        assert scenario.name == (
            "sweep-test[arrivals.rate_scale=2.0,replica_groups.0.count=2]"
        )

    def test_duplicate_axis_paths_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            SweepSpec(
                base=base_scenario(),
                axes=(
                    SweepAxis(path="seed", values=(1,)),
                    SweepAxis(path="seed", values=(2,)),
                ),
            )

    def test_empty_axes_is_one_cell(self):
        spec = SweepSpec(base=base_scenario(), axes=())
        assert spec.num_cells == 1
        assert spec.cells() == ((),)


class TestCellResult:
    def test_requires_exactly_one_of_metrics_or_error(self):
        with pytest.raises(ValueError):
            CellResult(index=0, overrides=())
        with pytest.raises(ValueError):
            CellResult(
                index=0,
                overrides=(),
                error="boom",
                metrics={name: 0.0 for name in METRIC_FIELDS},
            )

    def test_round_trips_exactly(self):
        ok = CellResult(
            index=1,
            overrides=(("seed", 3),),
            metrics={name: float(i) for i, name in enumerate(METRIC_FIELDS)},
        )
        bad = CellResult(index=2, overrides=(("seed", 4),), error="ValueError: nope")
        assert CellResult.from_dict(ok.to_dict()) == ok
        assert CellResult.from_dict(bad.to_dict()) == bad
        assert ok.ok and not bad.ok


class TestSweepDeterminism:
    @pytest.fixture(scope="class")
    def results(self):
        spec = grid_spec()
        return {w: run_sweep(spec, workers=w) for w in (1, 2, 4)}

    def test_all_cells_succeed(self, results):
        for result in results.values():
            assert result.num_ok == 4
            assert result.num_failed == 0

    def test_json_artifact_byte_identical_across_worker_counts(self, results):
        payloads = {w: r.to_json() for w, r in results.items()}
        assert payloads[1] == payloads[2] == payloads[4]

    def test_csv_artifact_byte_identical_across_worker_counts(self, results):
        payloads = {w: r.to_csv() for w, r in results.items()}
        assert payloads[1] == payloads[2] == payloads[4]

    def test_cells_ordered_by_grid_index(self, results):
        for result in results.values():
            assert [c.index for c in result.cells] == [0, 1, 2, 3]

    def test_result_round_trips_exactly(self, results):
        # A list-valued axis must come back as the tuple the grid carries.
        listed = SweepSpec(
            base=base_scenario(),
            axes=(
                SweepAxis(
                    path="workload.accuracy_range",
                    values=([0.7, 0.8], [0.75, 0.8]),
                ),
            ),
            name="listed",
        )
        for result in (results[2], run_sweep(listed)):
            assert SweepResult.from_dict(result.to_dict()) == result
            assert SweepResult.from_dict(json.loads(result.to_json())) == result

    def test_summary_mentions_every_cell(self, results):
        summary = format_sweep_summary(results[1])
        for index in range(4):
            assert f"cell {index}:" in summary


class TestErrorCellIsolation:
    @pytest.fixture(scope="class")
    def poisoned(self):
        spec = SweepSpec(
            base=base_scenario(),
            axes=(SweepAxis(path="replica_groups.0.count", values=(1, -1, 2)),),
            name="poisoned",
        )
        return {w: run_sweep(spec, workers=w) for w in (1, 2)}

    def test_bad_cell_reported_without_poisoning_the_rest(self, poisoned):
        for result in poisoned.values():
            assert result.num_ok == 2
            assert result.num_failed == 1
            bad = result.cells[1]
            assert not bad.ok
            assert bad.error is not None and "ValueError" in bad.error
            assert result.cells[0].ok and result.cells[2].ok

    def test_error_cells_identical_across_worker_counts(self, poisoned):
        assert poisoned[1].to_json() == poisoned[2].to_json()
        assert "ERROR" in format_sweep_summary(poisoned[1])
