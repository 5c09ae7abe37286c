"""Parallel sweep execution: expand the grid, measure cells, merge results.

:func:`run_grid` is the one grid runner.  It expands a
:class:`~repro.sweep.spec.SweepSpec` into its grid cells, runs each through
:func:`repro.serving.api.run_scenario` and hands the cell's scenario and
result to a per-cell ``measure`` function, optionally fanning cells out
over forked worker processes.  :func:`run_sweep` (``python -m repro
sweep``) is :func:`run_grid` measuring :func:`result_metrics`; the serving
experiment drivers measure their own points through a :class:`Grid` of
labelled sweeps.  Guarantees:

* **Deterministic artifacts** — cell results are returned in grid order,
  measurements are pure functions of the (seeded) simulation, and
  nothing wall-clock-dependent is recorded, so the merged JSON/CSV
  artifact is byte-identical however many workers ran the sweep.
* **Per-cell fault isolation** — a cell whose overrides fail validation,
  whose tables fail to build, or whose run or measurement raises becomes
  an *error cell* (``error`` set, no measurement); the other cells are
  unaffected.
* **Tables built once, in the caller** — every cell is resolved and every
  serve table the cells read is built
  (:func:`~repro.serving.api.build_tables`) into the process's one table
  cache, and every replayed request log parsed
  (:func:`~repro.serving.trace_io.load_trace_log`), before any worker
  forks.  Workers inherit the resolved scenarios, the tables and the logs
  copy-on-write and only simulate, each cell on the log its caller read;
  each serve key builds and each log parses once per process, so a later
  sweep in the same process builds and parses nothing.
* **Forked fan-out** — ``workers > 1`` forks ``min(workers, cells)``
  children that inherit the prepared cells, so no input is pickled; only
  each cell's ``(error, measurement)`` output is, sent back through the
  child's own pipe as soon as the cell ends.  Cells are claimed
  dynamically, so long cells don't serialize behind short ones: each
  child starts on one cell, and the caller writes the next cell's index
  into the child's task pipe when it reads the child's result.  Nothing
  is shared between children, so no lock can be held by a killed one.
  The caller reads every pipe as data arrives and reaps every child,
  also when it raises or is interrupted.
* **Lost workers lose one cell** — a child that dies (killed, say, by the
  OOM killer) loses only its in-flight cell, which becomes an error cell
  naming the worker's pid and wait status; while cells remain unclaimed
  a fresh child takes its place.
* **Sequential fallback** — ``workers <= 1``, a single cell, or a platform
  without ``os.fork`` run the cells in-process, in grid order, producing
  the identical artifact.
"""

from __future__ import annotations

import collections
import csv
import io
import json
import os
import pickle
import selectors
import signal
import struct
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, NoReturn, Sequence

from repro.serving.api import _run_with_log, build_tables
from repro.serving.engine import SimulationResult
from repro.serving.spec import JsonSpec, ScenarioSpec
from repro.serving.trace_io import TraceLog
from repro.sweep.spec import SweepAxis, SweepSpec

__all__ = [
    "METRIC_FIELDS",
    "CellResult",
    "Grid",
    "SweepResult",
    "format_sweep_summary",
    "result_metrics",
    "run_grid",
    "run_sweep",
]

#: The fixed, ordered metric set every cell reports — a closed list so the
#: merged CSV's columns (and the JSON's key order) never depend on which
#: cells happened to succeed.
METRIC_FIELDS: tuple[str, ...] = (
    "num_offered",
    "num_served",
    "num_dropped",
    "offered_load",
    "drop_rate",
    "slo_attainment",
    "mean_response_ms",
    "p99_response_ms",
    "achieved_throughput_per_ms",
    "goodput_per_ms",
    "mean_accuracy",
    "mean_batch_occupancy",
    "replica_seconds",
    "weighted_replica_seconds",
    "num_crashes",
    "duration_ms",
)


def result_metrics(result: SimulationResult) -> dict[str, float]:
    """One cell's scalar metrics, in the fixed :data:`METRIC_FIELDS` order."""
    return {name: float(getattr(result, name)) for name in METRIC_FIELDS}


@dataclass(frozen=True)
class CellResult(JsonSpec):
    """Outcome of one grid cell: its overrides plus metrics or an error."""

    index: int
    overrides: tuple[tuple[str, Any], ...]
    error: str | None = None
    metrics: dict[str, float] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "overrides", tuple(tuple(o) for o in self.overrides)
        )
        if (self.error is None) == (self.metrics is None):
            raise ValueError(
                "a cell result carries exactly one of metrics or error"
            )

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass(frozen=True)
class SweepResult(JsonSpec):
    """The merged outcome of a sweep: spec + one result per grid cell."""

    spec: SweepSpec
    cells: tuple[CellResult, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "cells", tuple(self.cells))

    @property
    def num_ok(self) -> int:
        return sum(1 for c in self.cells if c.ok)

    @property
    def num_failed(self) -> int:
        return len(self.cells) - self.num_ok

    def to_csv(self) -> str:
        """The merged CSV artifact: axis columns + the fixed metric set.

        Axis values serialize compactly as JSON so strings, numbers and
        structured values all land unambiguously in one column; floats
        round-trip exactly (``json.dumps`` emits ``repr`` digits).
        """
        axis_paths = [axis.path for axis in self.spec.axes]
        buffer = io.StringIO(newline="")
        writer = csv.writer(buffer)
        writer.writerow(["index", *axis_paths, "error", *METRIC_FIELDS])
        for cell in self.cells:
            by_path = dict(cell.overrides)
            row: list[str] = [str(cell.index)]
            row.extend(json.dumps(by_path[path]) for path in axis_paths)
            row.append("" if cell.error is None else cell.error)
            for name in METRIC_FIELDS:
                value = None if cell.metrics is None else cell.metrics[name]
                row.append("" if value is None else repr(value))
            writer.writerow(row)
        return buffer.getvalue()


# ------------------------------------------------------------------ running
#: A per-cell measurement, called with the cell's scenario and its result.
#: Forked workers inherit it; only what it returns must pickle.
Measure = Callable[[ScenarioSpec, SimulationResult], Any]

#: A scenario and its parsed request log (``None``: it replays none).
_Prepared = tuple[ScenarioSpec, TraceLog | None]
_Payload = tuple[Measure, ScenarioSpec, TraceLog | None]
_CellOutput = tuple[str | None, Any]


def _failure(exc: Exception) -> str:
    """An error cell's text."""
    return f"{type(exc).__name__}: {exc}"


def _prepared(scenario: ScenarioSpec) -> _Prepared | str:
    """``scenario`` with its tables built and its request log parsed, or the
    error text of either."""
    try:
        build_tables(scenario)
        return scenario, scenario.arrivals.trace_log()
    except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
        return _failure(exc)


def _run_cell(payload: _Payload) -> _CellOutput:
    """Run and measure one prepared cell; failures become errors, never raise."""
    measure, scenario, log = payload
    try:
        return None, measure(scenario, _run_with_log(scenario, log))
    except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
        return _failure(exc), None


def _map_cells(payloads: list[_Payload], workers: int | None) -> list[_CellOutput]:
    if workers is None or workers <= 1 or len(payloads) <= 1 or not hasattr(os, "fork"):
        return [_run_cell(p) for p in payloads]
    return _fan_out(payloads, min(workers, len(payloads)))


#: A claimed cell's index, caller -> child (one write of 4 bytes is atomic).
_INDEX = struct.Struct("<I")
#: A pickled cell output's length, child -> caller, ahead of the output.
_LENGTH = struct.Struct("<Q")


@dataclass
class _Child:
    """A forked worker as the caller sees it: its pid, the caller's ends of
    its two pipes, the cell it is running and its unread result bytes."""

    pid: int
    results: int
    tasks: int
    cell: int | None
    received: bytearray = field(default_factory=bytearray)

    def output(self) -> _CellOutput | None:
        """The next whole output received, or ``None`` while it is partial."""
        if len(self.received) < _LENGTH.size:
            return None
        (size,) = _LENGTH.unpack_from(self.received)
        end = _LENGTH.size + size
        if len(self.received) < end:
            return None
        data = bytes(self.received[_LENGTH.size:end])
        del self.received[:end]
        try:
            return pickle.loads(data)
        except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
            return _failure(exc), None

    def close(self) -> None:
        """Close the caller's pipe ends.  Each is forgotten before it is
        closed: an interrupt in between leaks it, never closes it twice
        (the cleanup that follows would fail on it, and leave workers)."""
        fds = (self.results, self.tasks)
        self.results = self.tasks = -1
        for fd in fds:
            if fd >= 0:
                os.close(fd)


def _lost(pid: int, status: int) -> str:
    """The error text of a cell whose worker died running it."""
    if os.WIFSIGNALED(status):
        how = f"killed by {signal.Signals(os.WTERMSIG(status)).name}"
    else:
        how = f"exit code {os.waitstatus_to_exitcode(status)}"
    return (
        f"WorkerLost: sweep worker {pid} died running this cell "
        f"(wait status {status}: {how})"
    )


def _flush_std_streams() -> None:
    """Flush what a fork would otherwise print twice (a closed or missing
    stream has nothing to flush)."""
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, ValueError):
            pass


def _serve(
    payloads: list[_Payload], cell: int, results: int, tasks: int, inherited: list[int]
) -> NoReturn:
    """A forked child's life: close the ``inherited`` caller-side fds, run
    ``cell``, send its output, read the next index, until the caller closes
    the task pipe.  Never returns."""
    status = 1
    try:
        for fd in inherited:
            os.close(fd)
        while True:
            output = _run_cell(payloads[cell])
            try:
                data = pickle.dumps(output, pickle.HIGHEST_PROTOCOL)
            except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
                data = pickle.dumps((_failure(exc), None), pickle.HIGHEST_PROTOCOL)
            frame = memoryview(_LENGTH.pack(len(data)) + data)
            while frame:
                frame = frame[os.write(results, frame):]
            claim = os.read(tasks, _INDEX.size)
            if not claim:
                break
            (cell,) = _INDEX.unpack(claim)
        status = 0
    finally:
        try:
            _flush_std_streams()
        finally:
            os._exit(status)


def _fan_out(payloads: list[_Payload], workers: int) -> list[_CellOutput]:
    """Run ``payloads`` on ``workers`` forked children; outputs in payload order."""
    outputs: dict[int, _CellOutput] = {}
    unclaimed = collections.deque(range(len(payloads)))
    children: dict[int, _Child] = {}  # by pid
    selector = selectors.DefaultSelector()

    def fork(cell: int) -> None:
        results_r, results_w = os.pipe()
        tasks_r, tasks_w = os.pipe()
        pid = os.fork()
        if pid == 0:
            # A child holding a sibling's task pipe open would keep the
            # sibling waiting for a next cell after the caller closed its
            # end, or died.
            inherited = [fd for c in children.values() for fd in (c.results, c.tasks)]
            inherited += [results_r, tasks_w]
            _serve(payloads, cell, results_w, tasks_r, [fd for fd in inherited if fd >= 0])
        os.close(results_w)
        os.close(tasks_r)
        child = children[pid] = _Child(pid, results_r, tasks_w, cell)
        selector.register(results_r, selectors.EVENT_READ, child)

    def hand_next(child: _Child) -> None:
        """Give ``child`` the next unclaimed cell, or close its task pipe."""
        if not unclaimed:
            child.cell = None
            tasks, child.tasks = child.tasks, -1  # forgotten first, as in close()
            os.close(tasks)
            return
        child.cell = unclaimed.popleft()
        try:
            os.write(child.tasks, _INDEX.pack(child.cell))
        except BrokenPipeError:
            # The child exited before it could claim the cell; the
            # replacement its end of file forks takes the cell instead.
            unclaimed.appendleft(child.cell)
            child.cell = None

    _flush_std_streams()
    try:
        for _ in range(workers):
            fork(unclaimed.popleft())
        while children:
            for key, _ in selector.select():
                child = key.data
                chunk = os.read(child.results, 1 << 16)
                if chunk:
                    child.received += chunk
                    while child.cell is not None and (output := child.output()) is not None:
                        outputs[child.cell] = output
                        hand_next(child)
                    continue
                # End of file: the child has exited, or died mid-cell.
                selector.unregister(child.results)
                child.close()
                _, status = os.waitpid(child.pid, 0)
                del children[child.pid]
                if child.cell is not None:
                    outputs[child.cell] = _lost(child.pid, status), None
                if unclaimed:
                    fork(unclaimed.popleft())
    finally:
        selector.close()
        for child in children.values():
            child.close()
            try:
                os.kill(child.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.waitpid(child.pid, 0)
    return [outputs[cell] for cell in range(len(payloads))]


def _measure_cells(
    cells: Sequence[ScenarioSpec | str], measure: Measure, workers: int | None
) -> list[_CellOutput]:
    """``(error, measurement)`` per cell, given as its scenario or as the
    error text of its overrides.

    Every table and request log the scenarios read is built or parsed
    here, before any worker forks, so workers inherit them and only
    simulate.
    """
    prepared = [c if isinstance(c, str) else _prepared(c) for c in cells]
    ran = iter(
        _map_cells([(measure, *c) for c in prepared if not isinstance(c, str)], workers)
    )
    return [(c, None) if isinstance(c, str) else next(ran) for c in prepared]


def _resolved(spec: SweepSpec, cell: tuple[tuple[str, Any], ...]) -> ScenarioSpec | str:
    """The scenario of one grid cell, or the error text of its overrides."""
    try:
        return spec.scenario(cell)
    except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
        return _failure(exc)


def run_grid(
    spec: SweepSpec, measure: Measure, *, workers: int | None = None
) -> list[_CellOutput]:
    """Run and measure every grid cell: ``(error, measurement)`` per cell.

    The list is in grid order; a failed cell carries its error message and
    no measurement.  Cells are resolved and their tables built here, in
    the caller; ``workers > 1`` fans the simulations out over forked
    processes that inherit those tables (falling back to in-process
    execution where fork is unavailable).  The outputs are identical
    either way.
    """
    return _measure_cells([_resolved(spec, cell) for cell in spec.cells()], measure, workers)


def _metrics(spec: ScenarioSpec, result: SimulationResult) -> dict[str, float]:
    return result_metrics(result)


def run_sweep(spec: SweepSpec, *, workers: int | None = None) -> SweepResult:
    """Expand and run a sweep grid; the result's cells are in grid order.

    ``workers > 1`` fans cells out over forked processes (falling back to
    in-process execution where fork is unavailable); the merged result is
    byte-identical either way.
    """
    outputs = run_grid(spec, _metrics, workers=workers)
    return SweepResult(
        spec=spec,
        cells=tuple(
            CellResult(index=i, overrides=cell, error=error, metrics=metrics)
            for i, (cell, (error, metrics)) in enumerate(zip(spec.cells(), outputs))
        ),
    )


class Grid:
    """An experiment's cells: sweeps over base scenarios, named by ``label``.

    Each mapping in ``axes`` (path → values) is the axes of one
    :class:`SweepSpec` over ``base``; a :class:`SweepSpec` in ``axes`` is a
    sweep over its own base.  A grid that is not one cartesian
    product (static pools vs autoscaled ones, fault-oblivious vs
    self-healing) is several small sweeps.  ``label`` maps a cell's
    scenario to the name the experiment reports it under.
    """

    def __init__(
        self,
        base: ScenarioSpec,
        label: Callable[[ScenarioSpec], str],
        *axes: Mapping[str, Sequence[Any]] | SweepSpec,
    ) -> None:
        self.base = base
        self.label = label
        self.sweeps = tuple(
            sweep
            if isinstance(sweep, SweepSpec)
            else SweepSpec(
                name=base.name,
                base=base,
                axes=tuple(SweepAxis(path, tuple(v)) for path, v in sweep.items()),
            )
            for sweep in axes
        )

    def scenarios(self) -> list[tuple[str, ScenarioSpec]]:
        """Every cell's ``(label, scenario)``, in grid order."""
        return [
            (self.label(spec), spec)
            for sweep in self.sweeps
            for spec in map(sweep.scenario, sweep.cells())
        ]

    def scenario(self, label: str) -> ScenarioSpec:
        """The scenario of the cell labelled ``label``."""
        for name, spec in self.scenarios():
            if name == label:
                return spec
        raise KeyError(f"no grid cell labelled {label!r}")

    def measure(self, measure: Measure) -> list[tuple[str, Any]]:
        """Every cell's ``(label, measurement)``, in grid order.

        Runs in this process, on its stack cache.  Raises naming the label
        of every cell that failed.
        """
        cells = self.scenarios()
        labels = [label for label, _ in cells]
        outputs = _measure_cells([spec for _, spec in cells], measure, None)
        failed = [
            f"{label} ({error})"
            for label, (error, _) in zip(labels, outputs)
            if error is not None
        ]
        if failed:
            raise RuntimeError("grid cells failed: " + "; ".join(failed))
        return [(label, value) for label, (_, value) in zip(labels, outputs)]


def format_sweep_summary(result: SweepResult) -> str:
    """Human-readable per-cell summary of one sweep (used by the CLI)."""
    from repro.analysis.reporting import format_table

    rows: dict[str, dict[str, object]] = {}
    for cell in result.cells:
        label = ", ".join(f"{p}={v}" for p, v in cell.overrides) or "(base)"
        key = f"cell {cell.index}: {label}"
        if cell.metrics is None:
            rows[key] = {"status": f"ERROR: {cell.error}"}
        else:
            rows[key] = {
                "served": cell.metrics["num_served"],
                "dropped": cell.metrics["num_dropped"],
                "SLO attainment": cell.metrics["slo_attainment"],
                "p99 response (ms)": cell.metrics["p99_response_ms"],
                "goodput (/ms)": cell.metrics["goodput_per_ms"],
                "mean accuracy (%)": 100.0 * cell.metrics["mean_accuracy"],
            }
    return format_table(
        rows,
        title=(
            f"Sweep {result.spec.name!r} — {len(result.cells)} cells "
            f"({result.num_ok} ok, {result.num_failed} failed)"
        ),
        precision=3,
    )
