"""Tests for the parallel sweep grid engine (`repro.sweep`).

The load-bearing guarantee: the merged sweep artifact is **byte-identical**
whatever the worker count — parallelism is an execution strategy, never an
observable.  Error cells (a cell whose overrides fail validation or whose
run raises) are reported per cell without poisoning the rest of the grid.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.serving import ArrivalSpec, ReplicaGroupSpec, ScenarioSpec, WorkloadSpec
from repro.serving import baselines, stack
from repro.sweep import (
    METRIC_FIELDS,
    CellResult,
    SweepAxis,
    SweepResult,
    SweepSpec,
    format_sweep_summary,
    run_grid,
    run_sweep,
)
from repro.sweep import runner as sweep_runner

PB_POLICY_GRID = Path(__file__).resolve().parents[2] / "examples/sweeps/pb_policy_grid.json"

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
            assert bad.error is not None
            assert bad.error.startswith("FieldError: invalid value at 'replica_groups.0.count'")
            assert result.cells[0].ok and result.cells[2].ok

    def test_error_cells_identical_across_worker_counts(self, poisoned):
        assert poisoned[1].to_json() == poisoned[2].to_json()
        assert "ERROR" in format_sweep_summary(poisoned[1])


#: The pid of the process behind every serve-table build; a forked worker
#: inherits the caller's entries, so its own builds are those with its pid.
_BUILDS: list[int] = []


def own_builds(spec: ScenarioSpec, result) -> int:
    """A cell measurement: the serve tables the running process built."""
    return _BUILDS.count(os.getpid())


@pytest.fixture
def counted_builds(monkeypatch):
    """A cold table cache, every ``build_serve_table`` call logged in ``_BUILDS``."""
    real = stack.build_serve_table

    def counting(*args, **kwargs):
        _BUILDS.append(os.getpid())
        return real(*args, **kwargs)

    monkeypatch.setattr(stack, "build_serve_table", counting)
    monkeypatch.setattr(baselines, "build_serve_table", counting)
    monkeypatch.setattr(stack, "_TABLES", {})
    _BUILDS.clear()


class TestTablesBuiltInCaller:
    def test_workers_build_no_table(self, counted_builds):
        spec = SweepSpec.from_dict(json.loads(PB_POLICY_GRID.read_text()))
        serve_keys = {
            (s.supernet_name, g.resolved_platform(), g.candidate_set_size)
            for s in map(spec.scenario, spec.cells())
            for g in s.replica_groups
        }
        assert len(serve_keys) == 3

        outputs = run_grid(spec, own_builds, workers=2)
        assert outputs == [(None, 0)] * spec.num_cells
        assert _BUILDS.count(os.getpid()) == len(serve_keys)

        again = run_sweep(spec, workers=2)
        assert again.num_ok == spec.num_cells
        assert len(_BUILDS) == len(serve_keys)

    def test_build_failure_is_an_error_cell_at_any_worker_count(
        self, counted_builds, monkeypatch
    ):
        # A spec that parses but whose table build raises (here every
        # candidate set of an 864 KB PB) fails only its own cell.
        real = stack.build_candidate_set

        def failing(subnets, *, capacity_bytes, **kwargs):
            if capacity_bytes == 864 * 1024:
                raise ValueError("a candidate set needs at least one SubGraph")
            return real(subnets, capacity_bytes=capacity_bytes, **kwargs)

        monkeypatch.setattr(stack, "build_candidate_set", failing)
        spec = SweepSpec(
            base=base_scenario(),
            axes=(SweepAxis(path="replica_groups.0.pb_kb", values=(432.0, 864.0, None)),),
            name="unbuildable",
        )
        results = {w: run_sweep(spec, workers=w) for w in (1, 2)}
        assert results[1].to_json() == results[2].to_json()
        assert [c.error for c in results[2].cells] == [
            None,
            "ValueError: a candidate set needs at least one SubGraph",
            None,
        ]
        assert run_grid(spec, own_builds, workers=2)[::2] == [(None, 0)] * 2


#: Runs ``run_grid(workers=2)`` over the sweep read from stdin, where each
#: cell whose replica count is in ``argv[2:]`` does ``argv[1]`` from inside
#: its worker: ``kill`` SIGKILLs the worker, ``interrupt`` sends the caller
#: SIGINT and sleeps.  Prints the outputs (or ``"interrupted"``) and
#: whether any child is left.
_LOST_WORKER_SCRIPT = """\
import json, os, signal, sys, time
from repro.sweep import SweepSpec, run_grid

def measure(spec, result):
    if str(spec.replica_groups[0].count) in sys.argv[2:]:
        if sys.argv[1] == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        os.kill(os.getppid(), signal.SIGINT)
        time.sleep(60)
    return result.num_served

spec = SweepSpec.from_json(sys.stdin.read())
try:
    outputs = run_grid(spec, measure, workers=2)
except KeyboardInterrupt:
    outputs = "interrupted"
try:
    os.waitpid(-1, os.WNOHANG)
    left = True
except ChildProcessError:
    left = False
print(json.dumps({"outputs": outputs, "children_left": left}))
"""


def lost_worker_spec() -> SweepSpec:
    return SweepSpec(
        base=base_scenario(),
        axes=(SweepAxis(path="replica_groups.0.count", values=(1, 2, 3)),),
        name="lost-worker",
    )


def num_served(spec: ScenarioSpec, result) -> int:
    return result.num_served


def run_lost_worker_script(action: str, *counts: int, timeout_s: float = 30.0) -> dict:
    """The script's report; fails if it outlives ``timeout_s``.

    The script leads its own process group, which is killed however this
    returns, so a hung sweep leaves no worker behind either.
    """
    spec = lost_worker_spec()
    repo = Path(__file__).resolve().parents[2]
    proc = subprocess.Popen(
        [sys.executable, "-c", _LOST_WORKER_SCRIPT, action, *map(str, counts)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=repo,
        env={"PYTHONPATH": str(repo / "src"), "PATH": "/usr/bin:/bin"},
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(spec.to_json(), timeout=timeout_s)
    except subprocess.TimeoutExpired:
        pytest.fail(f"run_grid({action!r}) still running after {timeout_s} s")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()
    assert proc.returncode == 0, err
    return json.loads(out)


class TestLostWorkers:
    """A worker that dies loses only its own cell, and no worker outlives
    ``run_grid``."""

    def test_killed_worker_is_an_error_cell_and_the_sweep_returns(self):
        report = run_lost_worker_script("kill", 2)
        first, (error, measured), last = map(tuple, report["outputs"])
        in_process = run_grid(lost_worker_spec(), num_served, workers=1)
        assert [first, last] == in_process[::2]
        assert all(error is None for error, _ in in_process)
        assert measured is None
        assert error.startswith("WorkerLost: sweep worker ")
        assert "wait status 9: killed by SIGKILL" in error
        assert not report["children_left"]

    def test_a_lost_worker_is_replaced_while_cells_remain(self):
        # Both first workers die; a fresh one still runs the last cell.
        report = run_lost_worker_script("kill", 1, 2)
        lost = [error for error, _ in report["outputs"][:2]]
        assert all(error.startswith("WorkerLost: ") for error in lost)
        assert tuple(report["outputs"][2]) == run_grid(lost_worker_spec(), num_served)[2]
        assert not report["children_left"]

    def test_interrupted_caller_reaps_every_worker(self):
        report = run_lost_worker_script("interrupt", 2)
        assert report == {"outputs": "interrupted", "children_left": False}

    def test_an_interrupted_close_closes_no_pipe_twice(self, monkeypatch):
        # An interrupt right after the caller closed a worker's pipe used to
        # leave the fd recorded: the cleanup closed it again, failed with
        # EBADF and left the other workers running.
        results, tasks = os.pipe()
        child = sweep_runner._Child(pid=0, results=results, tasks=tasks, cell=None)
        close = os.close

        def interrupted(fd):
            close(fd)
            raise KeyboardInterrupt

        monkeypatch.setattr(os, "close", interrupted)
        with pytest.raises(KeyboardInterrupt):
            child.close()
        monkeypatch.setattr(os, "close", close)
        child.close()  # the cleanup's close: nothing left to close twice
        close(tasks)  # the one the interrupt leaked

    def test_one_worker_forks_nothing(self, monkeypatch):
        def no_fork():
            raise AssertionError("a one-worker sweep forked")

        monkeypatch.setattr(os, "fork", no_fork)
        assert run_sweep(grid_spec(), workers=1).num_ok == 4


class TestWorkersImportNoMaskedArrays:
    """A cell's metrics never import ``numpy.ma``.

    ``np.percentile`` imports ``numpy.ma`` on its first call (about 12 ms
    in a fresh interpreter), and the caller of a sweep computes no
    percentile before it forks, so every forked worker would pay the
    import.  ``repro.core.metrics.percentile`` gives the same bits without
    it; a fresh interpreter that runs a faulty, autoscaled scenario and
    reads every cell metric must not have loaded ``numpy.ma``.
    """

    def test_run_and_result_metrics_leave_numpy_ma_unloaded(self):
        repo = Path(__file__).resolve().parents[2]
        script = (
            "import json, sys\n"
            "from repro.serving.api import run_scenario\n"
            "from repro.serving.spec import ScenarioSpec\n"
            "from repro.sweep.runner import result_metrics\n"
            "data = json.loads(open(sys.argv[1]).read())\n"
            "spec = ScenarioSpec.from_dict(data).override_many([('num_queries', 300)])\n"
            "metrics = result_metrics(run_scenario(spec))\n"
            "assert metrics['p99_response_ms'] > 0\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(repo / "examples/scenarios/faulty_pool.json")],
            capture_output=True,
            text=True,
            cwd=repo,
            env={"PYTHONPATH": str(repo / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"
