"""Plain-text report formatting for experiment outputs.

Every experiment driver prints its reproduced table/figure data through these
helpers so the benchmark harness output is easy to diff against the paper.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Any, Mapping, Sequence


def _format_value(value: object, precision: int) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


def format_table(
    rows: Mapping[str, Mapping[str, object]],
    *,
    title: str | None = None,
    precision: int = 3,
) -> str:
    """Render a nested dict ``{row: {column: value}}`` as an aligned text table."""
    if not rows:
        return title or ""
    columns: list[str] = []
    for row in rows.values():
        for col in row:
            if col not in columns:
                columns.append(col)
    header = ["", *columns]
    body = [
        [name, *(_format_value(row.get(col, ""), precision) for col in columns)]
        for name, row in rows.items()
    ]
    widths = [
        max(len(line[i]) for line in [header, *body]) for i in range(len(header))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for line in body:
        lines.append("  ".join(c.ljust(w) for c, w in zip(line, widths)))
    return "\n".join(lines)


def format_series(
    x: Sequence[object],
    y: Sequence[object],
    *,
    x_label: str = "x",
    y_label: str = "y",
    title: str | None = None,
    precision: int = 3,
) -> str:
    """Render paired series as two aligned columns (figure data dumps)."""
    if len(x) != len(y):
        raise ValueError("series must have equal length")
    rows = {
        f"{x_label}={_format_value(xi, precision)}": {y_label: yi}
        for xi, yi in zip(x, y)
    }
    return format_table(rows, title=title, precision=precision)


def format_kv(values: Mapping[str, object], *, title: str | None = None, precision: int = 3) -> str:
    """Render a flat key/value mapping, one pair per line."""
    width = max((len(k) for k in values), default=0)
    lines = [title] if title else []
    for key, value in values.items():
        lines.append(f"{key.ljust(width)}  {_format_value(value, precision)}")
    return "\n".join(lines)


def jsonable(value: object) -> Any:
    """An experiment result in JSON-safe types, dataclass fields in order."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if hasattr(value, "tolist"):  # numpy arrays and scalars
        return value.tolist()
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)
