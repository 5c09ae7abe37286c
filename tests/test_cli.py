"""Tests for the ``python -m repro`` command line."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments.registry import list_experiments
from repro.serving import ArrivalSpec, ReplicaGroupSpec, ScenarioSpec, WorkloadSpec
from repro.sweep import SweepAxis, SweepSpec
from repro.core.policies import Policy

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture()
def scenario_file(tmp_path):
    spec = ScenarioSpec(
        name="cli-test",
        supernet_name="ofa_mobilenetv3",
        policy=Policy.STRICT_LATENCY,
        replica_groups=(ReplicaGroupSpec(count=2, discipline="edf"),),
        router="jsq",
        admission="drop_expired",
        workload=WorkloadSpec(num_queries=20, accuracy_range=None, latency_range_ms=None),
        arrivals=ArrivalSpec(kind="poisson", rate_per_ms=0.5, seed=0),
        seed=0,
    )
    path = tmp_path / "scenario.json"
    path.write_text(spec.to_json())
    return path


class TestList:
    def test_lists_every_registered_experiment(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for eid in list_experiments():
            assert eid in out


class TestRun:
    def test_runs_a_cheap_experiment(self, capsys):
        assert main(["run", "tab01"]) == 0
        assert capsys.readouterr().out.strip()

    def test_unknown_experiment_fails_cleanly(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "fig99" in capsys.readouterr().err

    def test_json_dump_writes_artifact(self, tmp_path, capsys):
        out_file = tmp_path / "tab01.json"
        assert main(["run", "tab01", "--json", str(out_file)]) == 0
        data = json.loads(out_file.read_text())
        assert data  # non-empty, JSON-parseable artifact
        assert str(out_file) in capsys.readouterr().out

    def test_json_dump_unwritable_path_fails_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "no" / "such" / "dir" / "out.json"
        assert main(["run", "tab01", "--json", str(bad)]) == 2
        assert "cannot write" in capsys.readouterr().err


class TestServe:
    def test_serves_scenario_file(self, scenario_file, capsys):
        assert main(["serve", "--scenario", str(scenario_file)]) == 0
        out = capsys.readouterr().out
        assert "cli-test" in out
        assert "SLO attainment" in out

    def test_override_changes_the_run(self, scenario_file, capsys):
        assert (
            main(
                [
                    "serve",
                    "--scenario",
                    str(scenario_file),
                    "--override",
                    "num_queries=10",
                    "--override",
                    "replica_groups.0.count=1",
                    "--dump-spec",
                ]
            )
            == 0
        )
        spec = ScenarioSpec.from_dict(json.loads(capsys.readouterr().out))
        assert spec.num_queries == 10
        assert spec.replica_groups[0].count == 1

    def test_string_override_needs_no_quotes(self, scenario_file, capsys):
        assert (
            main(
                [
                    "serve",
                    "--scenario",
                    str(scenario_file),
                    "--override",
                    "workload.pattern=bursty",
                    "--dump-spec",
                ]
            )
            == 0
        )
        spec = ScenarioSpec.from_dict(json.loads(capsys.readouterr().out))
        assert spec.workload.pattern == "bursty"

    def test_missing_file_fails_cleanly(self, capsys):
        assert main(["serve", "--scenario", "/no/such/file.json"]) == 2
        assert "invalid scenario" in capsys.readouterr().err

    def test_out_of_range_override_index_fails_cleanly(self, scenario_file, capsys):
        assert (
            main(
                [
                    "serve",
                    "--scenario",
                    str(scenario_file),
                    "--override",
                    "replica_groups.2.count=4",
                ]
            )
            == 2
        )
        assert "invalid scenario" in capsys.readouterr().err

    def test_invalid_override_path_fails_cleanly(self, scenario_file, capsys):
        assert (
            main(
                ["serve", "--scenario", str(scenario_file), "--override", "bogus=1"]
            )
            == 2
        )
        assert "invalid scenario" in capsys.readouterr().err

    def test_checked_in_hetero_scenario_parses(self):
        path = REPO_ROOT / "examples" / "scenarios" / "hetero_pool.json"
        spec = ScenarioSpec.from_json(path.read_text())
        pb_sizes = {g.pb_kb for g in spec.replica_groups}
        assert len(spec.replica_groups) == 2
        assert len(pb_sizes) == 2  # genuinely heterogeneous
        assert spec.arrivals.kind == "time_varying"

    def test_checked_in_poisson_scenario_parses(self):
        path = REPO_ROOT / "examples" / "scenarios" / "poisson_pool.json"
        spec = ScenarioSpec.from_json(path.read_text())
        assert spec.arrivals.kind == "poisson"

    def test_checked_in_autoscale_scenario_parses(self):
        path = REPO_ROOT / "examples" / "scenarios" / "autoscale_pool.json"
        spec = ScenarioSpec.from_json(path.read_text())
        assert spec.autoscaler is not None
        assert spec.autoscaler.policy == "reactive"
        assert spec.autoscaler.group == "pool"
        assert spec.arrivals.kind == "time_varying"

    def test_checked_in_sharded_scenario_parses(self):
        path = REPO_ROOT / "examples" / "scenarios" / "sharded_pool.json"
        spec = ScenarioSpec.from_json(path.read_text())
        assert spec.router == "round_robin"
        assert spec.num_replicas == 4
        assert spec.autoscaler is None
        assert spec.to_json() + "\n" == path.read_text()  # exact round-trip

    def test_checked_in_predictive_scenario_parses(self):
        path = REPO_ROOT / "examples" / "scenarios" / "predictive_pool.json"
        spec = ScenarioSpec.from_json(path.read_text())
        assert spec.autoscaler is not None
        assert spec.autoscaler.policy == "predictive"
        assert spec.replica_groups[0].startup_delay_ms > 0
        assert spec.arrivals.kind == "time_varying"

    def test_policy_switch_overrides_apply_atomically(self, capsys):
        # policy=scheduled and its schedule must land together; per-field
        # validation would reject either one alone.
        path = REPO_ROOT / "examples" / "scenarios" / "autoscale_pool.json"
        assert (
            main(
                [
                    "serve",
                    "--scenario",
                    str(path),
                    "--override",
                    "autoscaler.policy=scheduled",
                    "--override",
                    "autoscaler.schedule=[[0,1],[100,3]]",
                    "--override",
                    "autoscaler.period_ms=220",
                    "--dump-spec",
                ]
            )
            == 0
        )
        spec = ScenarioSpec.from_json(capsys.readouterr().out)
        assert spec.autoscaler.policy == "scheduled"
        assert spec.autoscaler.schedule == ((0, 1), (100, 3))

    def test_autoscaler_override_can_null_the_control_plane(
        self, scenario_file, capsys
    ):
        # The dotted-path override reaches the autoscaler too: nulling it
        # turns the scenario back into a fixed pool.
        path = REPO_ROOT / "examples" / "scenarios" / "autoscale_pool.json"
        assert (
            main(
                [
                    "serve",
                    "--scenario",
                    str(path),
                    "--override",
                    "autoscaler=null",
                    "--override",
                    "workload.num_queries=30",
                    "--dump-spec",
                ]
            )
            == 0
        )
        spec = ScenarioSpec.from_json(capsys.readouterr().out)
        assert spec.autoscaler is None
        assert spec.workload.num_queries == 30


BAD_SLOTS = REPO_ROOT / "tests/lint/fixtures/serving/engine/bad_slots.py"


class TestLint:
    def test_src_tree_is_clean(self, capsys):
        assert main(["lint", str(REPO_ROOT / "src")]) == 0
        assert "lint-clean" in capsys.readouterr().out

    def test_default_path_is_src(self, capsys, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        assert main(["lint"]) == 0
        assert "lint-clean" in capsys.readouterr().out

    def test_violations_exit_nonzero_with_codes(self, capsys):
        assert main(["lint", str(BAD_SLOTS)]) == 1
        out = capsys.readouterr().out
        assert "RPR002" in out
        assert "bad_slots.py" in out

    def test_json_format(self, capsys):
        assert main(["lint", "--format", "json", str(BAD_SLOTS)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["counts_by_code"] == {"RPR002": 3}

    def test_select_filters_codes(self, capsys):
        assert main(["lint", "--select", "RPR001", str(BAD_SLOTS)]) == 0

    def test_unknown_code_fails_cleanly(self, capsys):
        assert main(["lint", "--select", "RPR777", "src"]) == 2
        assert "RPR777" in capsys.readouterr().err

    def test_missing_path_fails_cleanly(self, capsys):
        assert main(["lint", "/no/such/tree"]) == 2
        assert "lint:" in capsys.readouterr().err


class TestCheckedInReplayExamples:
    def test_checked_in_replayed_scenario_parses(self):
        path = REPO_ROOT / "examples" / "scenarios" / "replayed_pool.json"
        spec = ScenarioSpec.from_json(path.read_text())
        assert spec.arrivals.kind == "trace"
        assert spec.arrivals.path == "examples/traces/replay_sample.csv"
        assert spec.to_json() + "\n" == path.read_text()  # exact round-trip

    def test_checked_in_replay_grid_parses(self):
        path = REPO_ROOT / "examples" / "sweeps" / "replay_grid.json"
        spec = SweepSpec.from_json(path.read_text())
        assert spec.num_cells == 12
        assert spec.base.arrivals.kind == "trace"
        assert spec.to_json() + "\n" == path.read_text()  # exact round-trip

    def test_serves_replayed_scenario_with_rate_scale_override(
        self, capsys, monkeypatch
    ):
        monkeypatch.chdir(REPO_ROOT)
        assert (
            main(
                [
                    "serve",
                    "--scenario",
                    "examples/scenarios/replayed_pool.json",
                    "--override",
                    "arrivals.rate_scale=2",
                ]
            )
            == 0
        )
        assert capsys.readouterr().out


@pytest.fixture()
def grid_file(tmp_path):
    base = ScenarioSpec(
        name="cli-grid-base",
        supernet_name="ofa_mobilenetv3",
        policy=Policy.STRICT_LATENCY,
        replica_groups=(ReplicaGroupSpec(count=1, name="pool"),),
        admission="drop_expired",
        workload=WorkloadSpec(
            num_queries=15, accuracy_range=None, latency_range_ms=None
        ),
        arrivals=ArrivalSpec(
            kind="trace", events=tuple(0.4 * (i + 1) for i in range(15))
        ),
    )
    spec = SweepSpec(
        base=base,
        axes=(SweepAxis(path="arrivals.rate_scale", values=(1.0, 2.0)),),
        name="cli-grid",
    )
    path = tmp_path / "grid.json"
    path.write_text(spec.to_json())
    return path


class TestSweepCommand:
    def test_artifacts_byte_identical_across_worker_counts(
        self, grid_file, tmp_path, capsys
    ):
        artifacts = {}
        for workers in (1, 2):
            json_out = tmp_path / f"sweep-{workers}.json"
            csv_out = tmp_path / f"sweep-{workers}.csv"
            assert (
                main(
                    [
                        "sweep",
                        "--spec",
                        str(grid_file),
                        "--workers",
                        str(workers),
                        "--json",
                        str(json_out),
                        "--csv",
                        str(csv_out),
                    ]
                )
                == 0
            )
            artifacts[workers] = (json_out.read_bytes(), csv_out.read_bytes())
        assert artifacts[1] == artifacts[2]
        payload = json.loads(artifacts[1][0])
        assert len(payload["cells"]) == 2
        assert all(cell["error"] is None for cell in payload["cells"])

    def test_base_override_applies_to_every_cell(self, grid_file, capsys):
        assert (
            main(
                [
                    "sweep",
                    "--spec",
                    str(grid_file),
                    "--override",
                    "workload.num_queries=10",
                ]
            )
            == 0
        )
        assert "cell 0:" in capsys.readouterr().out

    def test_failing_cell_exits_one_without_poisoning_the_rest(
        self, tmp_path, capsys
    ):
        base = ScenarioSpec(
            name="cli-grid-base",
            supernet_name="ofa_mobilenetv3",
            policy=Policy.STRICT_LATENCY,
            replica_groups=(ReplicaGroupSpec(count=1, name="pool"),),
            workload=WorkloadSpec(
                num_queries=10, accuracy_range=None, latency_range_ms=None
            ),
            arrivals=ArrivalSpec(
                kind="trace", events=tuple(0.5 * (i + 1) for i in range(10))
            ),
        )
        spec = SweepSpec(
            base=base,
            axes=(SweepAxis(path="replica_groups.0.count", values=(1, -1)),),
        )
        path = tmp_path / "poisoned.json"
        path.write_text(spec.to_json())
        assert main(["sweep", "--spec", str(path)]) == 1
        out = capsys.readouterr().out
        assert "ERROR" in out
        assert "cell 0:" in out

    def test_missing_spec_file_fails_cleanly(self, capsys):
        assert main(["sweep", "--spec", "/no/such/grid.json"]) == 2
        assert capsys.readouterr().err


class TestTraceFitCommand:
    def test_fit_writes_parseable_recipe(self, tmp_path, capsys):
        out = tmp_path / "recipe.json"
        log = REPO_ROOT / "examples" / "traces" / "replay_sample.csv"
        assert main(["trace", "fit", str(log), "--out", str(out)]) == 0
        report = capsys.readouterr().out
        assert "nominal rate" in report
        recipe = json.loads(out.read_text())
        arrivals = ArrivalSpec.from_dict(recipe["arrivals"])
        assert arrivals.kind == "time_varying"
        assert len(arrivals.segments) == len(recipe["fit"]["segments"])

    def test_fit_missing_log_fails_cleanly(self, capsys):
        assert main(["trace", "fit", "/no/such/log.csv"]) == 2
        assert capsys.readouterr().err


class TestModuleEntryPoint:
    def test_schema_prints_field_reference(self, capsys):
        assert main(["schema"]) == 0
        schema = json.loads(capsys.readouterr().out)
        assert set(schema) == {"defaults", "enums", "domains"}
        assert schema["domains"]["arrivals.seed"]["ge"] == 0
        scenario = schema["defaults"]["scenario"]
        # The schema's defaults are exactly the serialized default spec.
        assert scenario == ScenarioSpec().to_dict()
        assert "predictive" in schema["enums"]["autoscaler.policy"]
        assert "tier_aware" in schema["enums"]["autoscaler.policy"]
        assert "cost_weight" in schema["defaults"]["replica_group"]
        assert "startup_delay_ms" in schema["defaults"]["replica_group"]

    def test_python_dash_m_repro(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "list"],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0
        assert "load_sweep" in proc.stdout
