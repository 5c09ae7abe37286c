"""Property-based tests of trace replay: log I/O, spec identity, the fitter.

Three families of properties:

* **Lossless log round-trips** — for *every* hypothesis-generated request
  log (timestamps plus optional SLO / accuracy-floor columns), writing to
  CSV or JSONL and reading it back reproduces the exact IEEE doubles —
  ``repr``/``json.dumps`` round-trip floats losslessly, so equality here
  is bit-equality, not approximate.

* **Replay identity** — a ``kind="trace"`` arrival spec whose inline
  events are the timestamps a deterministic spec would generate produces
  **record-identical** simulation results on both the engine's event loop
  and the reference loop (``engine_oracle.reference_run``).  Replay is a
  pure arrival source, never a behavioral fork.

* **Malformed logs fail as data errors** — a valid CSV or JSONL log with
  cells dropped, duplicated, blanked or replaced by junk, columns or keys
  added, the header edited or a line truncated either loads or raises one
  ``ValueError``: never a ``KeyError``, ``TypeError`` or ``IndexError``
  from inside the reader.

* **Fitter recovery** — on an evenly spaced log the piecewise-Poisson
  fitter recovers the exact nominal rate, near-zero interarrival CV, and
  a synthetic ``ArrivalSpec`` recipe that parses and round-trips.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from engine_oracle import reference_run
from hypothesis import assume, given, settings, strategies as st

from repro.serving import (
    ArrivalSpec,
    ReplicaGroupSpec,
    ScenarioSpec,
    TraceLog,
    WorkloadSpec,
    fit_piecewise_poisson,
)
from repro.serving.api import build_engine, build_trace, run_scenario
from repro.serving.trace_io import (
    TraceFit,
    load_trace_log,
    read_csv_log,
    read_jsonl_log,
    write_csv_log,
    write_jsonl_log,
)

SUPERNET = "ofa_mobilenetv3"

finite_ts = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
)
slo_values = st.floats(
    min_value=1e-3, max_value=1e4, allow_nan=False, allow_infinity=False
)
accuracy_values = st.floats(
    min_value=0.001, max_value=0.999, allow_nan=False, allow_infinity=False
)


@st.composite
def trace_logs(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    timestamps = draw(st.lists(finite_ts, min_size=n, max_size=n))
    with_columns = draw(st.booleans())
    slo = acc = None
    if with_columns:
        slo = draw(st.lists(slo_values, min_size=n, max_size=n))
        acc = draw(st.lists(accuracy_values, min_size=n, max_size=n))
    return TraceLog(
        timestamps_ms=np.asarray(timestamps, dtype=np.float64),
        slo_ms=None if slo is None else np.asarray(slo, dtype=np.float64),
        accuracy_floor=None if acc is None else np.asarray(acc, dtype=np.float64),
    )


class TestLogRoundTrip:
    @given(log=trace_logs())
    @settings(max_examples=80, deadline=None)
    def test_csv_round_trip_is_lossless(self, log, tmp_path_factory):
        path = tmp_path_factory.mktemp("csv") / "log.csv"
        write_csv_log(path, log)
        assert read_csv_log(path) == log

    @given(log=trace_logs())
    @settings(max_examples=80, deadline=None)
    def test_jsonl_round_trip_is_lossless(self, log, tmp_path_factory):
        path = tmp_path_factory.mktemp("jsonl") / "log.jsonl"
        write_jsonl_log(path, log)
        assert read_jsonl_log(path) == log

    @given(log=trace_logs())
    @settings(max_examples=40, deadline=None)
    def test_csv_and_jsonl_agree(self, log, tmp_path_factory):
        root = tmp_path_factory.mktemp("both")
        write_csv_log(root / "log.csv", log)
        write_jsonl_log(root / "log.jsonl", log)
        assert read_csv_log(root / "log.csv") == read_jsonl_log(root / "log.jsonl")


#: What a mutation writes into a cell, a column name or a key.
junk = st.sampled_from(
    ["", " ", "x", "nan", "inf", "-1", "1e999", "0", "true", "null", '"5"', "[1]",
     "{}", "1,2", '"', "timestamp_ms", "slo_ms", "accuracy_floor", "foo"]
) | st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=6)

#: Keys a JSONL row wider than its header gets, in order.
EXTRA_KEYS = ("slo_ms", "accuracy_floor", "foo", "timestamp_ms")


def _jsonl_line(header: list[str], cells: list[str]) -> str:
    keys = header + list(EXTRA_KEYS)[: max(0, len(cells) - len(header))]
    pairs = [f"{json.dumps(k)}: {c or json.dumps(c)}" for k, c in zip(keys, cells)]
    return "{" + ", ".join(pairs) + "}"


@st.composite
def mutated_logs(draw):
    """``(extension, text)``: a written log, then one to three mutations."""
    log = draw(trace_logs())
    table = [list(log.columns())] + [list(map(repr, r.values())) for r in log.rows()]
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["drop", "duplicate", "blank", "put", "add", "header"]))
        row = table[0 if op == "header" else draw(st.integers(0, len(table) - 1))]
        j = draw(st.integers(0, len(row)))
        if op == "add":
            row.append(draw(junk))
        elif j < len(row):
            if op == "drop":
                del row[j]
            elif op == "duplicate":
                row.insert(j, row[j])
            else:
                row[j] = "" if op == "blank" else draw(junk)
    extension = draw(st.sampled_from([".csv", ".jsonl"]))
    if extension == ".csv":
        lines = [",".join(row) for row in table]
    else:
        lines = [_jsonl_line(table[0], row) for row in table[1:]]
    if lines and draw(st.booleans()):
        k = draw(st.integers(0, len(lines) - 1))
        lines[k] = lines[k][: draw(st.integers(0, len(lines[k])))]
    return extension, "\n".join(lines) + "\n"


class TestMalformedLogs:
    @given(case=mutated_logs())
    @settings(max_examples=300, deadline=None)
    def test_a_mutated_log_loads_or_raises_one_value_error(self, case, tmp_path_factory):
        extension, text = case
        path = tmp_path_factory.mktemp("fuzz") / f"log{extension}"
        path.write_text(text, encoding="utf-8")
        try:
            log = load_trace_log(path)
        except ValueError:
            return
        assert isinstance(log, TraceLog)
        assert len(log) >= 1


nondecreasing_events = st.lists(
    st.floats(min_value=0.0, max_value=1e5, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=30,
).map(lambda xs: tuple(sorted(xs)))


class TestTraceSpecRoundTrip:
    @given(
        nondecreasing_events,
        st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
        st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
        st.one_of(st.none(), st.integers(min_value=1, max_value=50)),
    )
    @settings(max_examples=80, deadline=None)
    def test_inline_trace_spec_round_trips_exactly(
        self, events, rate_scale, time_scale, limit
    ):
        assume(events[:limit][-1] > 0.0)  # a replay must span positive time
        spec = ArrivalSpec(
            kind="trace",
            events=events,
            rate_scale=rate_scale,
            time_scale=time_scale,
            limit=limit,
        )
        assert ArrivalSpec.from_dict(spec.to_dict()) == spec
        assert ArrivalSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    def test_path_trace_spec_round_trips_exactly(self):
        spec = ArrivalSpec(
            kind="trace", path="examples/traces/replay_sample.csv", limit=10
        )
        assert ArrivalSpec.from_dict(spec.to_dict()) == spec


def _scenario(arrivals: ArrivalSpec, *, n: int) -> ScenarioSpec:
    return ScenarioSpec(
        name="trace-identity",
        supernet_name=SUPERNET,
        policy="strict_latency",
        replica_groups=(ReplicaGroupSpec(count=2, discipline="fifo"),),
        router="round_robin",
        admission="drop_expired",
        workload=WorkloadSpec(
            num_queries=n, accuracy_range=None, latency_range_ms=None
        ),
        arrivals=arrivals,
        seed=3,
    )


def _run(spec: ScenarioSpec, *, oracle: bool):
    """``run_scenario(spec)``, or the same run through the reference loop."""
    if not oracle:
        return run_scenario(spec)
    trace = build_trace(spec)
    engine = build_engine(spec)
    return reference_run(
        engine,
        trace,
        spec.arrivals.generate(len(trace)),
        arrival_rate_per_ms=spec.arrivals.nominal_rate_per_ms(),
    )


def _assert_identical(a, b):
    assert a.outcomes == b.outcomes
    assert a.dropped == b.dropped
    assert a.replica_stats == b.replica_stats
    assert a.duration_ms == b.duration_ms


class TestReplayIdentity:
    @given(
        st.floats(min_value=0.2, max_value=5.0, allow_nan=False),
        st.integers(min_value=2, max_value=10),
        st.booleans(),
    )
    @settings(max_examples=12, deadline=None)
    def test_trace_kind_matches_deterministic_spec(self, rate, n, oracle):
        det = ArrivalSpec(kind="deterministic", rate_per_ms=rate)
        events = tuple(float(t) for t in det.generate(n))
        trace = ArrivalSpec(kind="trace", events=events)
        assert np.array_equal(trace.generate(n), det.generate(n))

        ref = _run(_scenario(det, n=n), oracle=oracle)
        replayed = _run(_scenario(trace, n=n), oracle=oracle)
        _assert_identical(replayed, ref)

    def test_reference_and_fast_path_agree_on_trace_kind(self):
        trace = ArrivalSpec(kind="trace", events=(0.4, 0.9, 1.7, 2.0, 3.5, 6.0))
        ref = _run(_scenario(trace, n=6), oracle=True)
        fast = _run(_scenario(trace, n=6), oracle=False)
        _assert_identical(fast, ref)


class TestFitterRecovery:
    @given(
        st.floats(min_value=0.05, max_value=20.0, allow_nan=False),
        st.integers(min_value=10, max_value=200),
    )
    @settings(max_examples=60, deadline=None)
    def test_constant_rate_recovered_exactly(self, rate, n):
        timestamps = np.arange(1, n + 1, dtype=np.float64) / rate
        fit = fit_piecewise_poisson(timestamps)
        assert math.isclose(fit.nominal_rate_per_ms, rate, rel_tol=1e-9)
        assert fit.cv_interarrival < 1e-6
        assert fit.num_burst_windows == 0

        spec = fit.arrival_spec(seed=5)
        assert spec.kind == "time_varying"
        assert ArrivalSpec.from_dict(spec.to_dict()) == spec
        assert TraceFit.from_dict(fit.to_dict()) == fit

    def test_fit_of_committed_sample_log(self):
        sample = (
            Path(__file__).resolve().parents[2]
            / "examples"
            / "traces"
            / "replay_sample.csv"
        )
        log = read_csv_log(sample)
        fit = fit_piecewise_poisson(log.timestamps_ms)
        assert fit.num_events == len(log)
        assert fit.nominal_rate_per_ms > 0
        assert len(fit.segments) >= 1
