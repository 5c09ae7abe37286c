"""Declarative scenario sweeps: grid specs, parallel execution, merged artifacts.

One reproducible runner replacing N ad-hoc sweep scripts: a
:class:`SweepSpec` (base scenario × override axes) expands into grid cells,
:func:`run_grid` builds every serve table they read, then runs and
measures them — optionally across forked worker processes that inherit
those tables.  :func:`run_sweep` merges the fixed metric set into a
:class:`SweepResult` that serializes to JSON/CSV artifacts byte-identical
regardless of the worker count (the CLI front end is ``python -m repro
sweep``); the serving experiments measure their own points over a
:class:`Grid` of labelled sweeps.
"""

from repro.sweep.spec import SweepAxis, SweepSpec
from repro.sweep.runner import (
    METRIC_FIELDS,
    CellResult,
    Grid,
    SweepResult,
    format_sweep_summary,
    result_metrics,
    run_grid,
    run_sweep,
)

__all__ = [
    "METRIC_FIELDS",
    "CellResult",
    "Grid",
    "SweepAxis",
    "SweepResult",
    "SweepSpec",
    "format_sweep_summary",
    "result_metrics",
    "run_grid",
    "run_sweep",
]
