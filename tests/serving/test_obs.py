"""Tests for the flight recorder: spec, recording, exporters, CLI, tools.

The property-based identity tests (recording never changes the
simulation) live in ``tests/properties/test_property_obs.py``; this file
covers the declarative wiring (:class:`ObservabilitySpec` on the
scenario), the recorded artifacts (spans, provisioning segments,
autoscaler decision records), every exporter, the ``--trace`` /
``--metrics`` / ``trace summarize`` command line, and
``tools/validate_trace.py``.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.policies import Policy
from repro.serving import (
    ArrivalSpec,
    AutoscalerSpec,
    ObservabilitySpec,
    ReplicaGroupSpec,
    ScenarioSpec,
    WorkloadSpec,
    run_scenario,
    scenario_schema,
)
from repro.serving.obs import (
    chrome_trace,
    metrics_rows,
    snapshot_rows,
    summarize_chrome_trace,
    write_chrome_trace,
    write_metrics,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
VALIDATOR = REPO_ROOT / "tools" / "validate_trace.py"


def small_spec(**kwargs) -> ScenarioSpec:
    base = dict(
        name="obs-test",
        supernet_name="ofa_mobilenetv3",
        policy=Policy.STRICT_LATENCY,
        replica_groups=(ReplicaGroupSpec(count=2, discipline="edf"),),
        router="jsq",
        admission="drop_expired",
        workload=WorkloadSpec(
            num_queries=40, accuracy_range=None, latency_range_ms=None
        ),
        arrivals=ArrivalSpec(kind="poisson", rate_per_ms=0.5, seed=0),
        seed=0,
    )
    base.update(kwargs)
    return ScenarioSpec(**base)


def autoscaled_spec(**kwargs) -> ScenarioSpec:
    return small_spec(
        replica_groups=(
            ReplicaGroupSpec(
                count=1, discipline="edf", startup_delay_ms=2.0, name="pool"
            ),
        ),
        arrivals=ArrivalSpec(
            kind="time_varying",
            segments=((10.0, 0.2), (10.0, 2.0), (10.0, 0.2)),
            seed=0,
        ),
        workload=WorkloadSpec(
            num_queries=80, accuracy_range=None, latency_range_ms=None
        ),
        autoscaler=AutoscalerSpec(
            policy="reactive",
            control_interval_ms=4.0,
            min_replicas=1,
            max_replicas=4,
            max_queue_per_replica=2.0,
        ),
        **kwargs,
    )


class TestObservabilitySpec:
    def test_round_trips_exactly(self):
        spec = small_spec(
            observability=ObservabilitySpec(
                trace=True, keep_metrics=True, metrics_interval_ms=5.0
            )
        )
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_null_observability_round_trips(self):
        spec = small_spec()
        assert spec.observability is None
        payload = spec.to_dict()
        assert payload["observability"] is None
        assert ScenarioSpec.from_dict(payload) == spec

    def test_older_json_without_the_key_parses(self):
        payload = small_spec().to_dict()
        del payload["observability"]
        assert ScenarioSpec.from_dict(payload) == small_spec()

    def test_all_off_is_rejected(self):
        with pytest.raises(ValueError):
            ObservabilitySpec(trace=False, keep_metrics=False)

    def test_bad_interval_is_rejected(self):
        with pytest.raises(ValueError):
            ObservabilitySpec(metrics_interval_ms=0.0)

    def test_schema_exposes_defaults(self):
        defaults = scenario_schema()["defaults"]
        assert defaults["scenario"]["observability"] is None  # off by default
        assert defaults["observability"] == ObservabilitySpec().to_dict()
        assert set(defaults["observability"]) == {
            "trace", "keep_metrics", "metrics_interval_ms",
        }


class TestRecordedRun:
    def test_off_by_default(self):
        result = run_scenario(small_spec())
        assert result.trace is None
        assert result.metrics == ()

    def test_recording_is_observation_only(self):
        plain = run_scenario(small_spec())
        observed = run_scenario(small_spec(observability=ObservabilitySpec()))
        assert observed.outcomes == plain.outcomes
        assert observed.dropped == plain.dropped
        assert observed.duration_ms == plain.duration_ms

    def test_trace_accounts_for_every_query(self):
        result = run_scenario(small_spec(observability=ObservabilitySpec()))
        trace = result.trace
        assert trace is not None
        assert len(trace.spans) == len(result.outcomes) + len(result.dropped)
        statuses = [span.status for span in trace.spans]
        assert statuses.count("served") == len(result.outcomes)
        assert statuses.count("dropped") == len(result.dropped)
        assert trace.duration_ms == result.duration_ms
        assert len(trace.replicas) == 2

    def test_autoscaled_recording_is_observation_only(self):
        plain = run_scenario(autoscaled_spec())
        observed = run_scenario(
            autoscaled_spec(observability=ObservabilitySpec(keep_metrics=True))
        )
        assert observed.outcomes == plain.outcomes
        assert observed.dropped == plain.dropped
        assert plain.autoscale is not None
        assert observed.autoscale.events == plain.autoscale.events

    def test_autoscaled_trace_explains_decisions(self):
        result = run_scenario(
            autoscaled_spec(observability=ObservabilitySpec(keep_metrics=True))
        )
        trace = result.trace
        assert trace.decisions, "control ticks must leave decision records"
        assert trace.scaling_events == result.autoscale.events
        by_key = {(d.time_ms, d.group): d for d in trace.decisions}
        for event in trace.scaling_events:
            decision = by_key[(event.time_ms, event.group)]
            assert decision.final_desired == event.to_replicas
            assert decision.action == event.action
            assert decision.policy_desired is not None
            assert decision.snapshot is not None
        # Cold starts leave PROVISIONING segments on the timeline.
        if any(e.action == "scale_up" for e in trace.scaling_events):
            assert trace.provisioning

    def test_keep_metrics_exposes_snapshot_history(self):
        result = run_scenario(
            autoscaled_spec(observability=ObservabilitySpec(keep_metrics=True))
        )
        assert result.metrics
        assert len(result.metrics) == len(result.trace.decisions)

    def test_scaling_events_carry_stage_explanations(self):
        result = run_scenario(autoscaled_spec())
        events = result.autoscale.events
        assert events
        for event in events:
            assert event.policy_desired is not None
            assert event.clamped_desired is not None
            assert event.budget_desired is not None


class TestExporters:
    @pytest.fixture(scope="class")
    def traced(self):
        return run_scenario(
            autoscaled_spec(observability=ObservabilitySpec(keep_metrics=True))
        )

    def test_chrome_trace_structure(self, traced):
        payload = chrome_trace(traced.trace)
        events = payload["traceEvents"]
        threads = [
            e for e in events if e["ph"] == "M" and e["name"] == "thread_name"
        ]
        assert len(threads) == len(traced.trace.replicas) + 1  # + autoscaler
        opens = [e for e in events if e["ph"] == "b"]
        closes = [e for e in events if e["ph"] == "e"]
        assert len(opens) == len(closes) == len(traced.trace.spans)
        instants = [e for e in events if e["ph"] == "i"]
        assert len(instants) == len(traced.trace.scaling_events)
        explained = [e for e in instants if "decision" in e["args"]]
        assert explained, "scaling instants must carry decision explanations"
        for instant in explained:
            decision = instant["args"]["decision"]
            assert {"policy_desired", "clamped_desired", "budget_desired",
                    "final_desired", "action", "snapshot"} <= set(decision)
        json.dumps(payload)  # must be JSON-serializable end to end

    def test_trace_file_passes_validator(self, traced, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(str(path), traced.trace)
        proc = subprocess.run(
            [sys.executable, str(VALIDATOR), str(path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "trace OK" in proc.stdout

    def test_validator_rejects_unbalanced_spans(self, traced, tmp_path):
        payload = chrome_trace(traced.trace)
        payload["traceEvents"] = [
            e for e in payload["traceEvents"] if e["ph"] != "e"
        ]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(payload))
        proc = subprocess.run(
            [sys.executable, str(VALIDATOR), str(path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert "INVALID" in proc.stdout

    def test_metrics_rows_cover_the_run(self, traced):
        rows = metrics_rows(traced.trace, interval_ms=5.0)
        assert rows
        assert rows[-1]["time_ms"] == pytest.approx(traced.duration_ms)
        for row in rows:
            assert row["queue_depth"] >= 0.0
            assert 0.0 <= row["drop_rate"] <= 1.0
        total_arrivals = sum(
            row["arrival_rate_per_ms"] * 5.0 for row in rows[:-1]
        )
        assert total_arrivals <= len(traced.trace.spans)

    def test_snapshot_rows_mirror_history(self, traced):
        rows = snapshot_rows(traced.metrics)
        assert len(rows) == len(traced.metrics)
        assert rows[0]["time_ms"] == traced.metrics[0].time_ms

    def test_write_metrics_csv_and_json(self, traced, tmp_path):
        rows = snapshot_rows(traced.metrics)
        csv_path = tmp_path / "metrics.csv"
        json_path = tmp_path / "metrics.json"
        write_metrics(str(csv_path), rows)
        write_metrics(str(json_path), rows)
        header = csv_path.read_text().splitlines()[0]
        assert header.split(",")[0] == "time_ms"
        assert len(csv_path.read_text().splitlines()) == len(rows) + 1
        assert json.loads(json_path.read_text()) == [
            {k: v for k, v in row.items()} for row in rows
        ]

    def test_text_summaries(self, traced):
        trace = traced.trace
        text = summarize_chrome_trace(chrome_trace(trace))
        dropped = sum(1 for span in trace.spans if span.status == "dropped")
        # Offered and dropped spans pin the served count too.
        assert f"query spans: {len(trace.spans)} ({dropped} dropped)" in text
        assert trace.scaling_events
        assert f"scaling instants: {len(trace.scaling_events)}\n" in text


class TestCli:
    @pytest.fixture()
    def scenario_file(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(autoscaled_spec().to_json())
        return path

    def test_serve_trace_and_metrics(self, scenario_file, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.csv"
        assert main([
            "serve", "--scenario", str(scenario_file),
            "--trace", str(trace_path), "--metrics", str(metrics_path),
        ]) == 0
        out = capsys.readouterr().out
        assert str(trace_path) in out and str(metrics_path) in out
        payload = json.loads(trace_path.read_text())
        assert payload["traceEvents"]
        assert metrics_path.read_text().startswith("time_ms")

    def test_serve_trace_matches_declarative_observability(
        self, scenario_file, tmp_path, capsys
    ):
        """The CLI flag and the spec field drive the same recorded run."""
        trace_path = tmp_path / "trace.json"
        assert main([
            "serve", "--scenario", str(scenario_file), "--trace", str(trace_path),
        ]) == 0
        capsys.readouterr()
        declarative = run_scenario(
            autoscaled_spec(observability=ObservabilitySpec())
        )
        exported = json.loads(trace_path.read_text())
        assert exported == chrome_trace(declarative.trace)

    def test_serve_unwritable_trace_fails_cleanly(self, scenario_file, tmp_path, capsys):
        bad = tmp_path / "no" / "dir" / "trace.json"
        assert main([
            "serve", "--scenario", str(scenario_file), "--trace", str(bad),
        ]) == 2
        assert "cannot write" in capsys.readouterr().err

    def test_trace_summarize(self, scenario_file, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        main(["serve", "--scenario", str(scenario_file), "--trace", str(trace_path)])
        capsys.readouterr()
        assert main(["trace", "summarize", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "query spans" in out and "tracks" in out

    def test_trace_summarize_rejects_garbage(self, tmp_path, capsys):
        path = tmp_path / "not-a-trace.json"
        path.write_text("{}")
        assert main(["trace", "summarize", str(path)]) == 2
        assert "invalid trace" in capsys.readouterr().err

    def _register_dummy(self, monkeypatch, module):
        from repro.experiments import registry

        experiment = registry.Experiment("obs_dummy", "dummy", module)
        monkeypatch.setitem(registry.EXPERIMENTS, "obs_dummy", experiment)

    def test_run_trace_via_experiment_hook(self, monkeypatch, tmp_path, capsys):
        module = types.ModuleType("obs_dummy")
        module.run = lambda: "ok"
        module.report = lambda result: "dummy report"
        module.trace_scenario = lambda: autoscaled_spec()
        self._register_dummy(monkeypatch, module)
        trace_path = tmp_path / "trace.json"
        assert main(["run", "obs_dummy", "--trace", str(trace_path)]) == 0
        assert json.loads(trace_path.read_text())["traceEvents"]

    def test_run_trace_without_hook_fails_cleanly(self, monkeypatch, tmp_path, capsys):
        module = types.ModuleType("obs_dummy")
        module.run = lambda: "ok"
        module.report = lambda result: "dummy report"
        self._register_dummy(monkeypatch, module)
        assert main(["run", "obs_dummy", "--trace", str(tmp_path / "t.json")]) == 2
        assert "trace_scenario" in capsys.readouterr().err


class TestExperimentHooks:
    def test_frontier_trace_scenarios_are_valid_specs(self):
        from repro.experiments import frontier_autoscale, frontier_predictive

        for module in (frontier_autoscale, frontier_predictive):
            spec = module.trace_scenario(num_queries=50)
            assert isinstance(spec, ScenarioSpec)
            assert spec.autoscaler is not None
            assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_frontier_points_carry_scaling_events(self):
        from repro.experiments.frontier_autoscale import FrontierPoint

        result = run_scenario(autoscaled_spec())
        point = FrontierPoint(
            label="cell", kind="reactive", slo_attainment=1.0,
            replica_seconds=1.0, mean_replicas=1.0, peak_replicas=1,
            drop_rate=0.0, mean_accuracy=0.8,
            scaling_events=result.autoscale.events,
        )
        payload = dataclasses.asdict(point)
        assert payload["scaling_events"]
        first = payload["scaling_events"][0]
        assert {"group", "policy_desired", "clamped_desired",
                "budget_desired"} <= set(first)
        json.dumps(payload)
