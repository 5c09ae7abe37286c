"""Request-log I/O for trace-replay arrivals (``ArrivalSpec(kind="trace")``).

Production-shaped workloads enter the simulator here: a request log is a
sequence of arrival timestamps (milliseconds), optionally annotated with a
per-request SLO (``slo_ms``) and/or accuracy floor (``accuracy_floor``).
Two on-disk formats are supported, chosen by file extension:

* **CSV** — a header row naming the columns, one request per data row.
* **JSONL** — one JSON object per line, keyed by the same column names.

Contracts:

* **Lossless round-trip** — :func:`write_csv_log` / :func:`write_jsonl_log`
  serialize every float through ``repr`` / ``json.dumps``, which round-trip
  IEEE doubles exactly, so ``read(write(log)) == log`` bit for bit.
* **Canonical order** — logs sort stably by timestamp on load (annotation
  columns travel with their row), so row ``i`` of a loaded log is always
  the ``i``-th arrival.
* **All-or-nothing columns** — an optional column is either present for
  every request or absent entirely; a partially filled column is a data
  error, reported at load time.

The **fitter** (:func:`fit_piecewise_poisson`) estimates a piecewise-Poisson
model plus burstiness statistics from a log's timestamps and emits a
shareable synthetic :class:`~repro.serving.spec.ArrivalSpec` recipe
(``kind="time_varying"``), so a measured trace can be published as a small
parametric workload instead of raw data — the ``repro trace fit`` command.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np
import numpy.typing as npt

from repro.serving.spec import ArrivalSpec, JsonSpec

__all__ = [
    "ACCURACY_FIELD",
    "SLO_FIELD",
    "TIMESTAMP_FIELD",
    "TraceFit",
    "TraceLog",
    "fit_piecewise_poisson",
    "load_trace_log",
    "read_csv_log",
    "read_jsonl_log",
    "write_csv_log",
    "write_jsonl_log",
]

#: Required column: arrival timestamp in milliseconds.
TIMESTAMP_FIELD = "timestamp_ms"
#: Optional column: per-request latency SLO in milliseconds.
SLO_FIELD = "slo_ms"
#: Optional column: per-request accuracy floor, as a fraction in (0, 1).
ACCURACY_FIELD = "accuracy_floor"

_OPTIONAL_FIELDS = (SLO_FIELD, ACCURACY_FIELD)

#: Column name -> TraceLog attribute (only the timestamp column differs).
_ATTR_BY_FIELD = {
    TIMESTAMP_FIELD: "timestamps_ms",
    SLO_FIELD: "slo_ms",
    ACCURACY_FIELD: "accuracy_floor",
}


def _as_float64(values: Sequence[float] | npt.NDArray[np.float64]) -> npt.NDArray[np.float64]:
    return np.asarray(values, dtype=np.float64)


@dataclass(frozen=True, eq=False)
class TraceLog:
    """An in-memory request log: timestamps plus optional annotations.

    Rows are canonicalized on construction: sorted stably by timestamp
    (annotations travel with their row) and validated — timestamps finite
    and non-negative, SLOs positive, accuracy floors in (0, 1).
    """

    timestamps_ms: npt.NDArray[np.float64]
    slo_ms: npt.NDArray[np.float64] | None = None
    accuracy_floor: npt.NDArray[np.float64] | None = None

    def __post_init__(self) -> None:
        ts = _as_float64(self.timestamps_ms)
        if ts.ndim != 1 or ts.size == 0:
            raise ValueError("a trace log needs at least one timestamp")
        if not np.all(np.isfinite(ts)):
            raise ValueError("trace timestamps must be finite")
        if float(ts.min()) < 0.0:
            raise ValueError("trace timestamps must be non-negative")
        order = np.argsort(ts, kind="stable")
        object.__setattr__(self, "timestamps_ms", ts[order])
        for name in _OPTIONAL_FIELDS:
            column = getattr(self, name)
            if column is None:
                continue
            col = _as_float64(column)
            if col.shape != ts.shape:
                raise ValueError(
                    f"{name} column has {col.size} values for {ts.size} "
                    "timestamps"
                )
            if not np.all(np.isfinite(col)):
                raise ValueError(f"{name} values must be finite")
            object.__setattr__(self, name, col[order])
        if self.slo_ms is not None and float(self.slo_ms.min()) <= 0.0:
            raise ValueError("slo_ms values must be positive")
        if self.accuracy_floor is not None:
            lo = float(self.accuracy_floor.min())
            hi = float(self.accuracy_floor.max())
            if not (0.0 < lo and hi < 1.0):
                raise ValueError("accuracy_floor values must lie in (0, 1)")

    def __len__(self) -> int:
        return int(self.timestamps_ms.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceLog):
            return NotImplemented
        for name in ("timestamps_ms",) + _OPTIONAL_FIELDS:
            mine, theirs = getattr(self, name), getattr(other, name)
            if (mine is None) != (theirs is None):
                return False
            if mine is not None and not np.array_equal(mine, theirs):
                return False
        return True

    def head(self, limit: int | None) -> "TraceLog":
        """The first ``limit`` arrivals (``None`` keeps the whole log)."""
        if limit is None or limit >= len(self):
            return self
        if limit <= 0:
            raise ValueError(f"limit must be positive, got {limit}")
        return TraceLog(
            timestamps_ms=self.timestamps_ms[:limit],
            slo_ms=None if self.slo_ms is None else self.slo_ms[:limit],
            accuracy_floor=(
                None
                if self.accuracy_floor is None
                else self.accuracy_floor[:limit]
            ),
        )

    def columns(self) -> tuple[str, ...]:
        """The column names present, in canonical order."""
        names = [TIMESTAMP_FIELD]
        names.extend(f for f in _OPTIONAL_FIELDS if getattr(self, f) is not None)
        return tuple(names)

    def rows(self) -> list[dict[str, float]]:
        """One plain-float dict per request, in arrival order."""
        columns = self.columns()
        arrays = [
            getattr(self, _ATTR_BY_FIELD[name]).tolist() for name in columns
        ]
        return [dict(zip(columns, values)) for values in zip(*arrays)]


# ------------------------------------------------------------------ readers
def _log_from_rows(
    rows: list[Mapping[str, Any]], *, source: str
) -> TraceLog:
    if not rows:
        raise ValueError(f"{source}: empty trace log")
    first = rows[0]
    if TIMESTAMP_FIELD not in first:
        raise ValueError(
            f"{source}: trace logs need a {TIMESTAMP_FIELD!r} column, "
            f"got {sorted(first)}"
        )
    present = [f for f in _OPTIONAL_FIELDS if f in first]
    columns: dict[str, list[float]] = {
        name: [] for name in [TIMESTAMP_FIELD, *present]
    }
    for i, row in enumerate(rows):
        for name, values in columns.items():
            if name not in row or row[name] in (None, ""):
                raise ValueError(
                    f"{source}: row {i} is missing {name!r} (optional "
                    "columns must be present for every request or absent "
                    "entirely)"
                )
            try:
                values.append(float(row[name]))
            except (TypeError, ValueError) as exc:
                raise ValueError(
                    f"{source}: row {i} field {name!r}: {row[name]!r} is "
                    "not a number"
                ) from exc
        extra = [
            f
            for f in _OPTIONAL_FIELDS
            if f in row and f not in columns
        ]
        if extra:
            raise ValueError(
                f"{source}: row {i} introduces {extra} midway (optional "
                "columns must be present for every request or absent "
                "entirely)"
            )
    return TraceLog(
        timestamps_ms=_as_float64(columns[TIMESTAMP_FIELD]),
        slo_ms=(
            _as_float64(columns[SLO_FIELD]) if SLO_FIELD in columns else None
        ),
        accuracy_floor=(
            _as_float64(columns[ACCURACY_FIELD])
            if ACCURACY_FIELD in columns
            else None
        ),
    )


def read_csv_log(path: str) -> TraceLog:
    """Load a CSV request log (header row + one request per data row)."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: empty trace log")
        unknown = [
            name
            for name in reader.fieldnames
            if name not in (TIMESTAMP_FIELD, *_OPTIONAL_FIELDS)
        ]
        if unknown:
            raise ValueError(
                f"{path}: unknown trace log columns {unknown}; expected a "
                f"subset of {[TIMESTAMP_FIELD, *_OPTIONAL_FIELDS]}"
            )
        rows: list[Mapping[str, Any]] = list(reader)
    return _log_from_rows(rows, source=path)


def read_jsonl_log(path: str) -> TraceLog:
    """Load a JSONL request log (one JSON object per line)."""
    rows: list[Mapping[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            if not isinstance(row, dict):
                raise ValueError(
                    f"{path}:{lineno}: each line must be a JSON object, "
                    f"got {type(row).__name__}"
                )
            rows.append(row)
    return _log_from_rows(rows, source=path)


def load_trace_log(
    path: str | os.PathLike[str], *, limit: int | None = None
) -> TraceLog:
    """Load a request log, dispatching on extension (.csv / .jsonl).

    ``limit`` keeps only the first ``limit`` arrivals *after* the canonical
    timestamp sort, matching ``ArrivalSpec.limit`` semantics.
    """
    path = os.fspath(path)
    lower = path.lower()
    if lower.endswith(".csv"):
        log = read_csv_log(path)
    elif lower.endswith((".jsonl", ".ndjson")):
        log = read_jsonl_log(path)
    else:
        raise ValueError(
            f"cannot infer trace log format of {path!r}; expected a "
            ".csv, .jsonl or .ndjson extension"
        )
    return log.head(limit)


# ------------------------------------------------------------------ writers
def write_csv_log(path: str, log: TraceLog) -> None:
    """Write a CSV request log that :func:`read_csv_log` inverts exactly."""
    columns = log.columns()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in log.rows():
            # repr round-trips IEEE doubles exactly, so the written text
            # parses back to the same bits.
            writer.writerow([repr(row[name]) for name in columns])


def write_jsonl_log(path: str, log: TraceLog) -> None:
    """Write a JSONL request log that :func:`read_jsonl_log` inverts exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in log.rows():
            fh.write(json.dumps(row) + "\n")


# ------------------------------------------------------------------- fitter
@dataclass(frozen=True)
class TraceFit(JsonSpec):
    """A piecewise-Poisson model fitted to a request log's timestamps.

    Attributes
    ----------
    num_events:
        Arrivals the fit was estimated from.
    span_ms:
        Time between the first and last arrival.
    nominal_rate_per_ms:
        Long-run mean rate, ``(num_events - 1) / span_ms`` (the inverse
        mean inter-arrival gap).
    cv_interarrival:
        Coefficient of variation of the inter-arrival gaps — the
        burstiness statistic (1.0 for a Poisson process, larger for
        bursty traffic, smaller for pacing).
    peak_to_mean:
        Peak fitted segment rate over the nominal rate.
    num_burst_windows:
        Estimation windows whose empirical rate exceeded twice the
        nominal rate (before adjacent-window merging).
    segments:
        ``(duration_ms, rate_per_ms)`` pairs — the recipe's piecewise
        rates, in time order, covering exactly ``span_ms``.
    """

    num_events: int
    span_ms: float
    nominal_rate_per_ms: float
    cv_interarrival: float
    peak_to_mean: float
    num_burst_windows: int
    segments: tuple[tuple[float, float], ...]

    def arrival_spec(self, *, seed: int = 0) -> ArrivalSpec:
        """The shareable synthetic recipe: a ``time_varying`` ArrivalSpec."""
        return ArrivalSpec(kind="time_varying", segments=self.segments, seed=seed)


def fit_piecewise_poisson(
    timestamps_ms: Sequence[float] | npt.NDArray[np.float64],
    *,
    max_segments: int = 8,
    merge_tolerance: float = 0.25,
) -> TraceFit:
    """Estimate a piecewise-Poisson arrival model from raw timestamps.

    The span between the first and last arrival is divided into up to
    ``max_segments`` equal windows; each window's empirical rate (with a
    half-count floor so empty windows stay positive) becomes a candidate
    segment, and adjacent windows whose rates agree within
    ``merge_tolerance`` (relative) are pooled — a constant-rate log
    collapses to a single segment, a flash crowd keeps its spike.
    """
    ts = _as_float64(timestamps_ms)
    if ts.ndim != 1 or ts.size < 2:
        raise ValueError("fitting needs at least two timestamps")
    if not np.all(np.isfinite(ts)):
        raise ValueError("trace timestamps must be finite")
    ts = np.sort(ts, kind="stable")
    rel = ts - ts[0]
    span = float(rel[-1])
    if span <= 0.0:
        raise ValueError("fitting needs a positive time span between arrivals")
    if max_segments < 1:
        raise ValueError(f"max_segments must be >= 1, got {max_segments}")
    if merge_tolerance < 0.0:
        raise ValueError(
            f"merge_tolerance must be non-negative, got {merge_tolerance}"
        )
    # Enough windows to see shape, enough arrivals per window to trust the
    # rate: ~25 expected arrivals per window, capped at max_segments.
    windows = int(min(max_segments, max(1, ts.size // 25)))
    counts, _ = np.histogram(rel, bins=windows, range=(0.0, span))
    width = span / windows
    nominal = (ts.size - 1) / span
    raw_rates = [max(float(c), 0.5) / width for c in counts]
    num_burst_windows = sum(1 for r in raw_rates if r > 2.0 * nominal)
    merged: list[list[float]] = []
    for rate in raw_rates:
        if merged:
            duration0, rate0 = merged[-1]
            if abs(rate - rate0) <= merge_tolerance * max(rate, rate0):
                pooled = (duration0 * rate0 + width * rate) / (duration0 + width)
                merged[-1] = [duration0 + width, pooled]
                continue
        merged.append([width, rate])
    segments = tuple((float(d), float(r)) for d, r in merged)
    gaps = np.diff(ts)
    mean_gap = float(gaps.mean())
    cv = float(gaps.std() / mean_gap) if mean_gap > 0.0 else 0.0
    peak = max(r for _, r in segments)
    return TraceFit(
        num_events=int(ts.size),
        span_ms=span,
        nominal_rate_per_ms=float(nominal),
        cv_interarrival=cv,
        peak_to_mean=float(peak / nominal),
        num_burst_windows=int(num_burst_windows),
        segments=segments,
    )
