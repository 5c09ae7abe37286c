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
  (:func:`~repro.serving.api.build_tables`) into the process's
  :data:`~repro.serving.api.PROCESS_STACK_CACHE`, and every replayed
  request log parsed (:func:`~repro.serving.trace_io.load_trace_log`),
  before any worker forks.  Workers receive resolved scenarios, inherit
  the tables and logs copy-on-write and only simulate; each serve key
  builds and each log parses once per process, so a later sweep in the
  same process builds and parses nothing.
* **Sequential fallback** — ``workers <= 1``, a single cell, or a platform
  without ``fork`` (spawn would need every backend picklable) all run the
  cells in-process, in grid order, producing the identical artifact.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from repro.serving.api import (
    PROCESS_STACK_CACHE,
    build_tables,
    cached_stack,
    run_scenario,
)
from repro.serving.engine import SimulationResult
from repro.serving.spec import JsonSpec, ScenarioSpec
from repro.serving.stack import SushiStack, SushiStackConfig
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
    "template_stack",
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
#: Module-level functions only: forked workers receive it pickled.
Measure = Callable[[ScenarioSpec, SimulationResult], Any]

_Payload = tuple[Measure, ScenarioSpec]
_CellOutput = tuple[str | None, Any]


def template_stack(config: SushiStackConfig) -> SushiStack:
    """The process's cached template stack for ``config`` (clone, never serve)."""
    return cached_stack(config, PROCESS_STACK_CACHE)


def _failure(exc: Exception) -> str:
    """An error cell's text."""
    return f"{type(exc).__name__}: {exc}"


def _prepared(scenario: ScenarioSpec) -> ScenarioSpec | str:
    """``scenario`` with its tables built and its request log parsed, or the
    error text of either."""
    try:
        build_tables(scenario, stack_cache=PROCESS_STACK_CACHE)
        scenario.arrivals.trace_log()
    except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
        return _failure(exc)
    return scenario


def _run_cell(payload: _Payload) -> _CellOutput:
    """Run and measure one prepared cell; failures become errors, never raise."""
    measure, scenario = payload
    try:
        return None, measure(scenario, run_scenario(scenario, stack_cache=PROCESS_STACK_CACHE))
    except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
        return _failure(exc), None


def _map_cells(payloads: list[_Payload], workers: int | None) -> list[_CellOutput]:
    if workers is None or workers <= 1 or len(payloads) <= 1:
        return [_run_cell(p) for p in payloads]
    import multiprocessing

    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:
        # No fork on this platform; spawn would need every backend
        # importable-picklable.  The sequential path produces the identical
        # artifact, just slower.
        return [_run_cell(p) for p in payloads]
    with ctx.Pool(processes=min(workers, len(payloads))) as pool:
        # chunksize=1 so long cells don't serialize behind short ones; map
        # returns the outputs in grid order whichever worker ran them.
        return pool.map(_run_cell, payloads, chunksize=1)


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
        _map_cells([(measure, c) for c in prepared if not isinstance(c, str)], workers)
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
