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
* **One parse per content** — see :func:`load_trace_log`.

The **fitter** (:func:`fit_piecewise_poisson`) estimates a piecewise-Poisson
model plus burstiness statistics from a log's timestamps and emits a
shareable synthetic :class:`~repro.serving.spec.ArrivalSpec` recipe
(``kind="time_varying"``), so a measured trace can be published as a small
parametric workload instead of raw data — the ``repro trace fit`` command.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Callable, Sequence

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

#: Column name -> TraceLog attribute, in canonical column order.
_ATTR_BY_FIELD = {
    TIMESTAMP_FIELD: "timestamps_ms",
    SLO_FIELD: "slo_ms",
    ACCURACY_FIELD: "accuracy_floor",
}


#: Column name -> (row test, what a failing row must be).
_RANGES: dict[str, tuple[Callable[[Any], Any], str]] = {
    TIMESTAMP_FIELD: (lambda c: c >= 0.0, "must be non-negative"),
    SLO_FIELD: (lambda c: c > 0.0, "must be positive"),
    ACCURACY_FIELD: (lambda c: (c > 0.0) & (c < 1.0), "must lie in (0, 1)"),
}


def _check_rows(
    name: str, column: npt.NDArray[np.float64], ok: npt.NDArray[np.bool_], rule: str
) -> None:
    """Raise naming the first row of ``column`` that ``ok`` rejects."""
    if not ok.all():
        i = int(np.argmin(ok))
        raise ValueError(f"row {i} field {name!r}: {float(column[i])!r} {rule}")


@dataclass(frozen=True, eq=False)
class TraceLog:
    """An in-memory request log: timestamps plus optional annotations.

    Rows are canonicalized on construction: validated — timestamps finite
    and non-negative, SLOs positive, accuracy floors in (0, 1), an error
    naming the first bad row in the order given — then sorted stably by
    timestamp (annotations travel with their row).  The sorted arrays are
    read-only copies.
    """

    timestamps_ms: npt.NDArray[np.float64]
    slo_ms: npt.NDArray[np.float64] | None = None
    accuracy_floor: npt.NDArray[np.float64] | None = None

    def __post_init__(self) -> None:
        ts = np.asarray(self.timestamps_ms, dtype=np.float64)
        if ts.ndim != 1 or ts.size == 0:
            raise ValueError("a trace log needs at least one timestamp")
        order = np.argsort(ts, kind="stable")
        for (name, attr), column in zip(_ATTR_BY_FIELD.items(), self._arrays()):
            if column is None:
                continue
            col = np.asarray(column, dtype=np.float64)
            if col.shape != ts.shape:
                raise ValueError(
                    f"{attr} column has {col.size} values for {ts.size} timestamps"
                )
            _check_rows(name, col, np.isfinite(col), "is not finite")
            in_range, rule = _RANGES[name]
            _check_rows(name, col, in_range(col), rule)
            col = col[order]
            col.flags.writeable = False
            object.__setattr__(self, attr, col)

    def _arrays(self) -> list[npt.NDArray[np.float64] | None]:
        return [getattr(self, attr) for attr in _ATTR_BY_FIELD.values()]

    def __len__(self) -> int:
        return int(self.timestamps_ms.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceLog):
            return NotImplemented
        return self.columns() == other.columns() and all(
            map(np.array_equal, self._arrays(), other._arrays())
        )

    def head(self, limit: int | None) -> "TraceLog":
        """The first ``limit`` arrivals (``None`` keeps the whole log)."""
        if limit is None or limit >= len(self):
            return self
        if limit <= 0:
            raise ValueError(f"limit must be positive, got {limit}")
        return TraceLog(*(None if a is None else a[:limit] for a in self._arrays()))

    def columns(self) -> tuple[str, ...]:
        """The column names present, in canonical order."""
        return tuple(f for f, a in zip(_ATTR_BY_FIELD, self._arrays()) if a is not None)

    def rows(self) -> list[dict[str, float]]:
        """One plain-float dict per request, in arrival order."""
        arrays = [a.tolist() for a in self._arrays() if a is not None]
        return [dict(zip(self.columns(), values)) for values in zip(*arrays)]


# ------------------------------------------------------------------ readers
#: Parsed logs by (row reader, sha256 of the file's bytes).
_PARSED: dict[tuple[Any, bytes], TraceLog] = {}

_PARTIAL = "(optional columns must be present for every request or absent entirely)"


def _check_names(source: str, names: Sequence[str]) -> None:
    unknown = [name for name in names if name not in _ATTR_BY_FIELD]
    if unknown:
        raise ValueError(
            f"{source}: unknown trace log columns {unknown}; expected a "
            f"subset of {list(_ATTR_BY_FIELD)}"
        )
    if len(set(names)) != len(names):
        raise ValueError(f"{source}: repeated trace log columns {list(names)}")


def _csv_rows(path: str, text: str) -> tuple[list[str] | None, list[tuple]]:
    """A CSV log's header and non-blank data rows."""
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader, None)
    _check_names(path, header or ())
    # Tuples of strings drop out of GC tracking; a million row lists would not.
    return header, list(map(tuple, filter(None, reader)))


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """A JSON object whose keys are distinct (``json`` keeps the last of
    repeated keys)."""
    row = dict(pairs)
    if len(row) != len(pairs):
        raise ValueError(f"repeated trace log columns {[key for key, _ in pairs]}")
    return row


_JSONL_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def _jsonl_rows(path: str, text: str) -> tuple[list[str] | None, list[tuple]]:
    """A JSONL log's first keys, and each object's values under them."""
    header: list[str] | None = None
    rows: list[tuple] = []
    decode = _JSONL_DECODER.decode
    for lineno, line in enumerate(io.StringIO(text, newline=None), start=1):
        if not line.strip():
            continue
        try:
            row = decode(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        if not isinstance(row, dict):
            raise ValueError(
                f"{path}:{lineno}: each line must be a JSON object, "
                f"got {type(row).__name__}"
            )
        if header is None:
            header, keys = list(row), row.keys()
            _check_names(f"{path}:{lineno}", header)
        elif row.keys() != keys:
            _check_names(f"{path}:{lineno}", [k for k in row if k not in keys])
            extra = [f for f in _ATTR_BY_FIELD if f in row and f not in keys]
            if extra:
                raise ValueError(
                    f"{path}: row {len(rows)} introduces {extra} midway {_PARTIAL}"
                )
        rows.append(tuple(map(row.get, header)))
    return header, rows


def _floats(
    source: str, name: str, cells: Sequence[Any], number: frozenset[type]
) -> npt.NDArray[np.float64]:
    """One column as float64, given the types ``number`` its format writes
    numbers as; the per-row scan runs only to word an error."""
    try:
        if set(map(type, cells)) <= number:
            return np.fromiter(map(float, cells), np.float64, len(cells))
    except (ValueError, OverflowError):
        pass
    i, cell = next((i, c) for i, c in enumerate(cells) if not _is_number(c, number))
    if cell is None or cell == "":
        raise ValueError(f"{source}: row {i} is missing {name!r} {_PARTIAL}")
    raise ValueError(f"{source}: row {i} field {name!r}: {cell!r} is not a number")


def _is_number(cell: Any, number: frozenset[type]) -> bool:
    try:
        float(cell)
    except (TypeError, ValueError, OverflowError):
        return False
    return type(cell) in number


def _log_from_rows(
    source: str, header: list[str] | None, rows: list[tuple], number: frozenset[type]
) -> TraceLog:
    """A log's rows as float columns, converted one column at a time."""
    if header is None or not rows:
        raise ValueError(f"{source}: empty trace log")
    if TIMESTAMP_FIELD not in header:
        raise ValueError(
            f"{source}: trace logs need a {TIMESTAMP_FIELD!r} column, "
            f"got {sorted(header)}"
        )
    width = len(header)
    if set(map(len, rows)) != {width}:
        i = next((i for i, row in enumerate(rows) if len(row) > width), None)
        if i is not None:
            raise ValueError(f"{source}: row {i} is wider than the header {header}")
        rows = [row + (None,) * (width - len(row)) for row in rows]
    columns = {name: list(map(itemgetter(j), rows)) for j, name in enumerate(header)}
    arrays = {
        attr: _floats(source, name, columns[name], number)
        for name, attr in _ATTR_BY_FIELD.items() if name in columns
    }
    try:
        return TraceLog(**arrays)
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None


def _parsed(
    path: str | os.PathLike[str], rows_of: Any, number: frozenset[type]
) -> TraceLog:
    """The log at ``path`` as ``rows_of`` reads it, parsed once per content."""
    with open(path, "rb") as fh:
        data = fh.read()
    key = (rows_of, hashlib.sha256(data).digest())
    if key not in _PARSED:
        source = os.fspath(path)
        _PARSED[key] = _log_from_rows(source, *rows_of(source, data.decode()), number)
    return _PARSED[key]


def read_csv_log(path: str | os.PathLike[str]) -> TraceLog:
    """Load a CSV request log (header row + one request per data row)."""
    return _parsed(path, _csv_rows, frozenset({str}))


def read_jsonl_log(path: str | os.PathLike[str]) -> TraceLog:
    """Load a JSONL request log (one JSON object per line)."""
    return _parsed(path, _jsonl_rows, frozenset({int, float}))


def load_trace_log(
    path: str | os.PathLike[str], *, limit: int | None = None
) -> TraceLog:
    """Load a request log, dispatching on extension (.csv / .jsonl).

    A content is read, checked and sorted once per process: the log is kept,
    read-only, under a digest of the file's bytes (an edited file is a new
    key).  ``limit`` keeps the first ``limit`` arrivals *after* the timestamp
    sort (``ArrivalSpec.limit``), which reads the whole file: any later line
    may carry an earlier timestamp.
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
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(log.columns())
        # repr round-trips IEEE doubles exactly, so the written text parses
        # back to the same bits.
        writer.writerows(map(repr, row.values()) for row in log.rows())


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
    ts = np.asarray(timestamps_ms, dtype=np.float64)
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
