"""Smoke test of the end-to-end benchmark at 1% scale, traced (about 25 s).

Runs ``run.py`` once per workload, two at a time, and checks that it prints every
``BENCHMARK.json`` metric with its unit, that every correctness check
passes, and that a corrupted result is counted as a failed operation.
"""

from __future__ import annotations

import dataclasses
import importlib.util
from concurrent.futures import ThreadPoolExecutor
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _load_worker():
    spec = importlib.util.spec_from_file_location("e2e_worker", HERE / "worker.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """Per workload: the finished process and its ``--json`` document."""
    out = tmp_path_factory.mktemp("e2e")

    def run(workload):
        path = out / f"{workload}.json"
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--scale", "0.01",
             "--repeats", "2", "--seconds", "0.1", "--trace", "--json", str(path)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=300,
        )
        return proc, json.loads(path.read_text())

    with ThreadPoolExecutor(max_workers=2) as pool:
        return dict(zip(WORKLOADS, pool.map(run, WORKLOADS)))


def test_every_metric_printed_with_unit(smoke):
    for workload, (proc, _) in smoke.items():
        printed = {
            (fields[0], fields[1]): fields[-1]
            for fields in (line.split() for line in proc.stdout.splitlines())
            if len(fields) == 6
        }
        for metric in BENCH["end_to_end"] + BENCH["per_layer"]:
            assert printed.get((workload, metric["name"])) == metric["unit"], metric


def test_checks_pass(smoke):
    for workload, (proc, doc) in smoke.items():
        assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
        assert set(last["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
        result = doc["workloads"][workload]
        assert result["ops_failed"] == 0, (workload, result["errors"])
        # Set-up, partly outside every layer, dominates a 1% run; a full-size
        # run's ladder covers at least 0.99 of it (BENCH_layers.json).
        assert result["metrics"]["trace.coverage"]["value"] >= 0.9, workload


def test_missing_outcome_is_a_failed_operation():
    worker = _load_worker()
    from repro.serving.api import run_scenario

    num = worker.num_queries("poisson_sushi", 0.01)
    result = run_scenario(worker.scenario_spec("poisson_sushi", None, 0.01))
    ops = worker.Ops()
    ops.record(worker.check_result(result, num))
    corrupted = dataclasses.replace(result, outcomes=result.outcomes[1:])
    ops.record(worker.check_result(corrupted, num))
    assert (ops.attempted, ops.failed) == (2, 1)
    assert ops.errors and ops.errors[0].startswith("conservation")


def test_reference_draw_is_the_committed_scenario():
    """Only the query count differs, so the sim_* metrics ignore --seed."""
    worker = _load_worker()
    from repro.serving.spec import ScenarioSpec

    for workload, (file, _) in worker.WORKLOADS.items():
        committed = ScenarioSpec.from_dict(json.loads((worker.SCENARIOS / file).read_text()))
        reference = worker.scenario_spec(workload, None, 0.01)
        assert reference == dataclasses.replace(committed, num_queries=reference.num_queries)
        assert worker.scenario_spec(workload, 7, 0.01).seed == 7
