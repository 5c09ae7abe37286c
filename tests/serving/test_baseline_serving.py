"""Every backend kind serves from tables built before the run.

* Serving runs no accelerator evaluation: after the engine (or a
  closed-loop grid) is built, ``SushiAccelModel.subnet_breakdown`` may
  raise and a run still completes, for single and batched dispatch.
* ``ServingEngine.run(..., reset=True)`` reproduces a run's records exactly
  when the same engine runs the same trace again, whatever the kind.
"""

import json
from pathlib import Path

import pytest

from repro.accelerator.analytic_model import SushiAccelModel
from repro.core.policies import Policy
from repro.experiments.serving_pool import closed_loop_grid, compare_systems, measure_streams
from repro.serving.api import build_engine, build_trace
from repro.serving.spec import ScenarioSpec
from repro.serving.stack import SushiStackConfig

SCENARIOS = Path(__file__).resolve().parents[2] / "examples" / "scenarios"
KINDS = ("sushi", "no_sushi", "state_unaware", "static_subnet")


def scenario(name: str, kind: str, num_queries: int) -> ScenarioSpec:
    spec = ScenarioSpec.from_dict(json.loads((SCENARIOS / f"{name}.json").read_text()))
    return spec.override("num_queries", num_queries).override("replica_groups.0.kind", kind)


def built(spec: ScenarioSpec):
    trace = build_trace(spec)
    engine = build_engine(spec)
    return engine, trace, spec.arrivals.generate(len(trace))


def forbid_evaluation(monkeypatch):
    def evaluate(*args, **kwargs):
        raise AssertionError("the accelerator model ran while serving")

    monkeypatch.setattr(SushiAccelModel, "subnet_breakdown", evaluate)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", ["poisson_pool", "batched_pool"])
def test_serving_runs_no_accelerator_evaluation(name, kind, monkeypatch):
    engine, trace, arrivals = built(scenario(name, kind, 300))
    forbid_evaluation(monkeypatch)
    result = engine.run(trace, arrivals)
    assert result.num_served > 0


def test_closed_loop_grid_compares_without_accelerator_evaluation(monkeypatch):
    config = SushiStackConfig("ofa_mobilenetv3", policy=Policy.STRICT_LATENCY, seed=5)
    grid = closed_loop_grid("no-evaluation", [config], 60)
    forbid_evaluation(monkeypatch)
    [(results, hit_ratio)] = measure_streams(grid)
    compare_systems(results, sushi_hit_ratio=hit_ratio)
    assert all(len(stream.records) == 60 for stream in results.values())


@pytest.mark.parametrize("kind", KINDS)
def test_rerunning_one_engine_reproduces_its_records(kind):
    engine, trace, arrivals = built(scenario("poisson_pool", kind, 600))
    first = engine.run(trace, arrivals)
    second = engine.run(trace, arrivals)
    assert [repr(o) for o in second.outcomes] == [repr(o) for o in first.outcomes]
    assert [repr(d) for d in second.dropped] == [repr(d) for d in first.dropped]
