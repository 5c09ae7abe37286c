"""Unit tests for trace-log I/O (`repro.serving.trace_io`).

The property file (`tests/properties/test_property_trace.py`) proves the
round-trip laws; these tests pin the loader's edge cases and error
messages — malformed logs must fail loudly at load time, never mid-run.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.serving import trace_io
from repro.serving.api import run_scenario
from repro.serving.spec import ScenarioSpec
from repro.serving.trace_io import (
    TraceLog,
    fit_piecewise_poisson,
    load_trace_log,
    read_csv_log,
    read_jsonl_log,
    write_csv_log,
    write_jsonl_log,
)
from repro.sweep import SweepSpec, run_grid


REPO_ROOT = Path(__file__).resolve().parents[2]
REPLAYED_POOL = REPO_ROOT / "examples" / "scenarios" / "replayed_pool.json"
REPLAY_GRID = REPO_ROOT / "examples" / "sweeps" / "replay_grid.json"

_PARSES: list[int] = []
"""The pid of every log parse since the ``parses`` fixture began."""


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestTraceLogValidation:
    def test_sorts_by_timestamp_carrying_columns(self):
        log = TraceLog(
            timestamps_ms=np.array([3.0, 1.0, 2.0]),
            slo_ms=np.array([30.0, 10.0, 20.0]),
            accuracy_floor=np.array([0.3, 0.1, 0.2]),
        )
        assert log.timestamps_ms.tolist() == [1.0, 2.0, 3.0]
        assert log.slo_ms.tolist() == [10.0, 20.0, 30.0]
        assert log.accuracy_floor.tolist() == [0.1, 0.2, 0.3]

    def test_head_limits_after_sorting(self):
        log = TraceLog(timestamps_ms=np.array([5.0, 1.0, 3.0]))
        assert log.head(2).timestamps_ms.tolist() == [1.0, 3.0]
        assert len(log.head(99)) == 3

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"timestamps_ms": np.array([])}, "at least one"),
            ({"timestamps_ms": np.array([np.nan])}, "finite"),
            ({"timestamps_ms": np.array([-1.0])}, "non-negative"),
            (
                {"timestamps_ms": np.array([1.0]), "slo_ms": np.array([0.0])},
                "positive",
            ),
            (
                {
                    "timestamps_ms": np.array([1.0]),
                    "accuracy_floor": np.array([1.0]),
                },
                r"\(0, 1\)",
            ),
            (
                {"timestamps_ms": np.array([1.0, 2.0]), "slo_ms": np.array([1.0])},
                "1 values for 2 timestamps",
            ),
        ],
    )
    def test_invalid_logs_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            TraceLog(**kwargs)

    def test_rows_and_columns_agree(self):
        log = TraceLog(
            timestamps_ms=np.array([1.0, 2.0]), slo_ms=np.array([5.0, 6.0])
        )
        assert log.columns() == ("timestamp_ms", "slo_ms")
        assert log.rows() == [
            {"timestamp_ms": 1.0, "slo_ms": 5.0},
            {"timestamp_ms": 2.0, "slo_ms": 6.0},
        ]


class TestReaders:
    def test_unknown_csv_column_rejected(self, tmp_path):
        path = write(tmp_path / "log.csv", "timestamp_ms,priority\n1.0,2\n")
        with pytest.raises(ValueError, match="unknown trace log columns"):
            read_csv_log(path)

    def test_missing_timestamp_column_rejected(self, tmp_path):
        path = write(tmp_path / "log.jsonl", '{"slo_ms": 1.0}\n')
        with pytest.raises(ValueError, match="timestamp_ms"):
            read_jsonl_log(path)

    def test_empty_log_rejected(self, tmp_path):
        path = write(tmp_path / "log.csv", "timestamp_ms\n")
        with pytest.raises(ValueError, match="empty trace log"):
            read_csv_log(path)

    def test_optional_column_missing_midway_rejected(self, tmp_path):
        path = write(
            tmp_path / "log.csv", "timestamp_ms,slo_ms\n1.0,2.0\n2.0,\n"
        )
        with pytest.raises(ValueError, match="row 1 is missing 'slo_ms'"):
            read_csv_log(path)

    def test_optional_column_introduced_midway_rejected(self, tmp_path):
        path = write(
            tmp_path / "log.jsonl",
            '{"timestamp_ms": 1.0}\n{"timestamp_ms": 2.0, "slo_ms": 3.0}\n',
        )
        with pytest.raises(ValueError, match="midway"):
            read_jsonl_log(path)

    def test_non_numeric_value_rejected(self, tmp_path):
        path = write(tmp_path / "log.csv", "timestamp_ms\nfast\n")
        with pytest.raises(ValueError, match="not a number"):
            read_csv_log(path)

    def test_invalid_json_line_rejected(self, tmp_path):
        path = write(tmp_path / "log.jsonl", '{"timestamp_ms": 1.0}\n{oops\n')
        with pytest.raises(ValueError, match="invalid JSON"):
            read_jsonl_log(path)

    def test_non_object_json_line_rejected(self, tmp_path):
        path = write(tmp_path / "log.jsonl", "[1.0]\n")
        with pytest.raises(ValueError):
            read_jsonl_log(path)

    @pytest.mark.parametrize(
        "name, text, match",
        [
            # JSONL keys obey the CSV header's column schema.
            (
                "log.jsonl",
                '{"timestamp_ms": 1, "foo": 2}\n',
                r"log\.jsonl:1: unknown trace log columns \['foo'\]",
            ),
            (
                "log.jsonl",
                '{"timestamp_ms": 1}\n{"timestamp_ms": 2, "foo": 3}\n',
                r"log\.jsonl:2: unknown trace log columns \['foo'\]",
            ),
            # A JSON bool or string is not a number, as in the spec codec.
            (
                "log.jsonl",
                '{"timestamp_ms": true}\n',
                r"log\.jsonl: row 0 field 'timestamp_ms': True is not a number",
            ),
            (
                "log.jsonl",
                '{"timestamp_ms": 1}\n{"timestamp_ms": "5"}\n',
                r"log\.jsonl: row 1 field 'timestamp_ms': '5' is not a number",
            ),
            # A CSV value past the header is not silently dropped ...
            (
                "log.csv",
                "timestamp_ms\n0.5\n1,2\n",
                r"log\.csv: row 1 is wider than the header \['timestamp_ms'\]",
            ),
            # ... and a repeated header column does not silently win,
            (
                "log.csv",
                "timestamp_ms,timestamp_ms\n1,2\n",
                r"log\.csv: repeated trace log columns",
            ),
            # ... nor does a repeated JSONL key.
            (
                "log.jsonl",
                '{"timestamp_ms": 0}\n{"timestamp_ms": 1, "timestamp_ms": 2}\n',
                r"log\.jsonl:2: repeated trace log columns "
                r"\['timestamp_ms', 'timestamp_ms'\]",
            ),
            # Values out of range name the row, in the file's order.
            (
                "log.csv",
                "timestamp_ms\n2\n-1\n",
                r"log\.csv: row 1 field 'timestamp_ms': -1\.0 must be non-negative",
            ),
            (
                "log.csv",
                "timestamp_ms,slo_ms\n2,1\n1,0\n",
                r"log\.csv: row 1 field 'slo_ms': 0\.0 must be positive",
            ),
            (
                "log.jsonl",
                '{"timestamp_ms": 1, "accuracy_floor": 1.5}\n',
                r"log\.jsonl: row 0 field 'accuracy_floor': 1\.5 must lie in \(0, 1\)",
            ),
            (
                "log.csv",
                "timestamp_ms,accuracy_floor\n1,0.5\n2,0\n",
                r"log\.csv: row 1 field 'accuracy_floor': 0\.0 must lie in \(0, 1\)",
            ),
            (
                "log.csv",
                "timestamp_ms\n1\nnan\n",
                r"log\.csv: row 1 field 'timestamp_ms': nan is not finite",
            ),
        ],
    )
    def test_malformed_log_names_file_and_row(self, tmp_path, name, text, match):
        path = write(tmp_path / name, text)
        with pytest.raises(ValueError, match=match) as raised:
            load_trace_log(path)
        assert str(path) in str(raised.value)

    def test_short_csv_row_is_a_missing_value(self, tmp_path):
        path = write(tmp_path / "log.csv", "timestamp_ms,slo_ms\n1.0,2.0\n2.0\n")
        with pytest.raises(ValueError, match="row 1 is missing 'slo_ms'"):
            read_csv_log(path)


class TestOneParse:
    """A log is parsed once per process and content, into read-only arrays."""

    @pytest.fixture
    def parses(self, monkeypatch):
        """A cold log cache, every parse's pid logged in ``_PARSES``."""
        real = trace_io._log_from_rows

        def counting(*args):
            _PARSES.append(os.getpid())
            return real(*args)

        monkeypatch.setattr(trace_io, "_PARSED", {})
        monkeypatch.setattr(trace_io, "_log_from_rows", counting)
        _PARSES.clear()
        return _PARSES

    def test_content_is_parsed_once_and_kept_read_only(self, tmp_path, parses):
        path = write(tmp_path / "log.csv", "timestamp_ms,slo_ms\n2.0,5.0\n1.0,4.0\n")
        log = load_trace_log(path)
        assert load_trace_log(path, limit=1).timestamps_ms.tolist() == [1.0]
        copy = write(tmp_path / "copy.csv", path.read_text())
        assert read_csv_log(copy) is log
        assert len(parses) == 1
        with pytest.raises(ValueError, match="read-only"):
            log.timestamps_ms[0] = 7.0
        # An edited file is a new content: it is parsed, never served stale.
        write(path, "timestamp_ms\n3.0\n")
        assert load_trace_log(path).timestamps_ms.tolist() == [3.0]
        assert len(parses) == 2

    @pytest.fixture
    def reads(self, monkeypatch):
        """Every file ``trace_io`` opens, in order."""
        opened: list[str] = []

        def counting_open(path, *args, **kwargs):
            opened.append(os.fspath(path))
            return open(path, *args, **kwargs)

        monkeypatch.setattr(trace_io, "open", counting_open, raising=False)
        return opened

    def test_one_parse_per_replayed_run(self, parses, reads, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        spec = ScenarioSpec.from_dict(json.loads(REPLAYED_POOL.read_text()))
        # The trace, the arrivals and the nominal rate read one copy of the
        # log: its file is read (and hashed) once per run, not per reader.
        result = run_scenario(spec)
        assert result.num_offered == 60
        assert parses == [os.getpid()]
        assert reads == [spec.arrivals.path]
        run_scenario(spec)
        assert parses == [os.getpid()]
        assert reads == [spec.arrivals.path] * 2

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_parse_per_replayed_sweep(self, parses, reads, monkeypatch, workers):
        monkeypatch.chdir(REPO_ROOT)
        spec = SweepSpec.from_dict(json.loads(REPLAY_GRID.read_text()))
        outputs = run_grid(spec, own_parses, workers=workers)
        assert parses == [os.getpid()]
        # The caller reads each cell's log once, before any worker forks,
        # and the cell's run serves that copy: no second read per cell.
        assert len(reads) == spec.num_cells == 12
        # In-process cells see the caller's one parse; a forked worker
        # inherits it and parses nothing.
        assert outputs == [(None, 1 if workers == 1 else 0)] * spec.num_cells


def own_parses(spec, result) -> int:
    """A sweep cell's measurement: the log parses its own process made."""
    return _PARSES.count(os.getpid())


class TestLoadDispatch:
    def test_dispatches_by_extension(self, tmp_path):
        log = TraceLog(
            timestamps_ms=np.array([0.5, 1.5, 2.5]), slo_ms=np.array([1.0, 2.0, 3.0])
        )
        csv_path = tmp_path / "log.csv"
        jsonl_path = tmp_path / "log.jsonl"
        write_csv_log(csv_path, log)
        write_jsonl_log(jsonl_path, log)
        assert load_trace_log(csv_path) == log
        assert load_trace_log(jsonl_path) == log

    def test_limit_applies_after_sorting(self, tmp_path):
        path = write(tmp_path / "log.csv", "timestamp_ms\n5.0\n1.0\n3.0\n")
        limited = load_trace_log(path, limit=2)
        assert limited.timestamps_ms.tolist() == [1.0, 3.0]

    def test_unknown_extension_rejected(self, tmp_path):
        path = write(tmp_path / "log.parquet", "timestamp_ms\n1.0\n")
        with pytest.raises(ValueError):
            load_trace_log(path)


class TestFitterEdgeCases:
    def test_needs_two_timestamps(self):
        with pytest.raises(ValueError, match="at least two"):
            fit_piecewise_poisson(np.array([1.0]))

    def test_needs_positive_span(self):
        with pytest.raises(ValueError, match="positive time span"):
            fit_piecewise_poisson(np.array([2.0, 2.0, 2.0]))

    def test_bursty_log_yields_multiple_segments_and_bursts(self):
        quiet = np.arange(50, dtype=np.float64) * 10.0
        burst = quiet[-1] + 1.0 + np.arange(50, dtype=np.float64) * 0.1
        fit = fit_piecewise_poisson(np.concatenate([quiet, burst]))
        assert len(fit.segments) >= 2
        assert fit.num_burst_windows >= 1
        assert fit.peak_to_mean > 1.0
