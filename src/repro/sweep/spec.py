"""Declarative sweep grids: one base scenario × override axes.

A :class:`SweepSpec` names a base :class:`~repro.serving.spec.ScenarioSpec`
and a list of :class:`SweepAxis` entries, each a dotted override path (the
same paths ``repro serve --override`` takes) and the values to try.  The
grid is the cartesian product of the axes, expanded in declaration order
with the *last* axis varying fastest — cell ``i`` is a pure function of the
spec, independent of how (or on how many workers) the sweep runs.

Like every spec in the repo, the sweep grid round-trips exactly through
plain JSON (``from_dict(to_dict(spec)) == spec``, via the shared
:class:`~repro.serving.spec.JsonSpec` codec), so grids live in
version-controlled files (``examples/sweeps/``) and run from the command
line with ``python -m repro sweep --spec <file>``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Mapping

from repro.serving.spec import JsonSpec, ScenarioSpec, _as_tuple, _require

__all__ = ["SweepAxis", "SweepSpec"]


@dataclass(frozen=True)
class SweepAxis(JsonSpec):
    """One override axis of a sweep grid.

    Attributes
    ----------
    path:
        Dotted path into the serialized scenario (exactly the
        ``--override`` syntax), e.g. ``"arrivals.rate_scale"`` or
        ``"replica_groups.0.count"``.
    values:
        The values this axis tries, in order.  Values may themselves be
        JSON structures (lists arrive as tuples after parsing).
    """

    path: str
    values: tuple[Any, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _as_tuple(self.values))
        _require(
            isinstance(self.path, str) and bool(self.path),
            f"axis path must be a non-empty string, got {self.path!r}",
        )
        _require(
            bool(self.values),
            f"axis {self.path!r} needs at least one value",
        )


@dataclass(frozen=True, kw_only=True)
class SweepSpec(JsonSpec):
    """A declarative grid of scenarios: base spec × override axes.

    Attributes
    ----------
    name:
        Sweep name (labels the merged artifact).
    base:
        The scenario every grid cell starts from.
    axes:
        Override axes; the grid is their cartesian product, last axis
        varying fastest.  An empty tuple is a one-cell sweep (just the
        base scenario).
    """

    # ``name`` leads the serialized form, as committed sweep files spell
    # it; keyword-only so the required ``base`` may follow it.
    name: str = "sweep"
    base: ScenarioSpec
    axes: tuple[SweepAxis, ...] = ()

    def __post_init__(self) -> None:
        if isinstance(self.base, Mapping):
            object.__setattr__(self, "base", ScenarioSpec.from_dict(self.base))
        object.__setattr__(
            self,
            "axes",
            tuple(
                SweepAxis.from_dict(a) if isinstance(a, Mapping) else a
                for a in self.axes
            ),
        )
        paths = [a.path for a in self.axes]
        _require(
            len(set(paths)) == len(paths),
            f"axis paths must be unique, got {paths}",
        )

    # --------------------------------------------------------------- derived
    @property
    def num_cells(self) -> int:
        count = 1
        for axis in self.axes:
            count *= len(axis.values)
        return count

    def cells(self) -> tuple[tuple[tuple[str, Any], ...], ...]:
        """Every grid cell's override list, in deterministic order.

        Cell ``i`` pairs each axis path with one of its values; the last
        axis varies fastest (row-major order).  This ordering is the
        contract the merged artifact's byte-identity across worker counts
        rests on.
        """
        per_axis = [
            [(axis.path, value) for value in axis.values] for axis in self.axes
        ]
        return tuple(itertools.product(*per_axis))

    def scenario(self, cell: tuple[tuple[str, Any], ...]) -> ScenarioSpec:
        """The concrete scenario of one grid cell: its overrides, then its
        ``name`` label, applied and validated in one pass."""
        labels = ",".join(f"{path}={value}" for path, value in cell)
        named = [("name", f"{self.base.name}[{labels}]")] if labels else []
        return self.base.override_many([*cell, *named])
