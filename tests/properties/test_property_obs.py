"""Property-based tests of the flight recorder (``serving/obs``).

Two families of properties, over hypothesis-generated workloads:

* **Observation identity** — attaching a :class:`TraceRecorder` must not
  change the simulation: outcomes, drops, replica stats and duration are
  bit-identical to an unobserved run, on the engine's event loop and the
  reference loop (``engine_oracle.reference_run``) alike, and both loops
  must record the same trace.  Equality is structural equality of frozen
  dataclasses over raw floats, so a 1-ulp divergence fails.

* **Span well-formedness** — the recorded trace accounts for every query
  exactly once (one span per outcome, one per drop), its spans equal the
  ones the recorder's former per-object builder (``obs_oracle``) makes
  from the run's outcomes and drops, span timestamps are monotone
  (arrival ≤ dispatch ≤ completion), and the Chrome trace export opens
  and closes every async span exactly once with non-decreasing event
  timestamps.
"""

from __future__ import annotations

import numpy as np
from engine_oracle import reference_run
from obs_oracle import oracle_spans
from hypothesis import given, settings, strategies as st

from repro.serving.engine import AcceleratorReplica, ServingEngine
from repro.serving.obs import TraceRecorder, chrome_trace
from repro.serving.query import QueryTrace


class IndexedServer:
    """Synthetic backend whose service time is fixed per query index."""

    def __init__(self, services_ms):
        self.services_ms = list(services_ms)

    def serve_query(self, query, budget_ms, accuracy_floor):
        return ("synthetic", 0.78, self.services_ms[query.index], 0.0, 0.0, 0.0)


positive = st.floats(min_value=0.01, max_value=20.0, allow_nan=False)

workload = st.integers(min_value=2, max_value=25).flatmap(
    lambda n: st.tuples(
        st.lists(positive, min_size=n, max_size=n),  # arrival gaps
        st.lists(positive, min_size=n, max_size=n),  # service times
        st.lists(positive, min_size=n, max_size=n),  # latency constraints
    )
)

disciplines = st.sampled_from(["fifo", "edf", "priority_by_slack"])
routers = st.sampled_from(["round_robin", "jsq", "least_loaded"])
admissions = st.sampled_from(["admit_all", "drop_expired"])


def run_pair(
    wl, *, num_replicas, discipline, router, admission, run=ServingEngine.run
):
    """(unobserved result, observed result) on identical fresh engines."""
    gaps, services, constraints = wl
    trace = QueryTrace([0.77] * len(gaps), list(constraints))
    arrivals = np.cumsum(gaps)

    def engine():
        return ServingEngine(
            [
                AcceleratorReplica(IndexedServer(services), discipline=discipline)
                for _ in range(num_replicas)
            ],
            router=router,
            admission=admission,
        )

    plain = run(engine(), trace, arrivals)
    observed_engine = engine()
    observed_engine.recorder = TraceRecorder()
    observed = run(observed_engine, trace, arrivals)
    return plain, observed


def assert_identical(observed, plain):
    assert observed.outcomes == plain.outcomes
    assert observed.dropped == plain.dropped
    assert observed.replica_stats == plain.replica_stats
    assert observed.duration_ms == plain.duration_ms


def assert_well_formed(result):
    trace = result.trace
    assert trace is not None
    assert len(trace.spans) == len(result.outcomes) + len(result.dropped)
    assert trace.spans == oracle_spans(result.outcomes, result.dropped)
    served = {s.query_index: s for s in trace.spans if s.status == "served"}
    dropped = {s.query_index: s for s in trace.spans if s.status == "dropped"}
    # Every dispatched query closes exactly one span, every drop likewise.
    assert sorted(served) == sorted(o.query_index for o in result.outcomes)
    assert sorted(dropped) == sorted(d.query_index for d in result.dropped)
    for span in trace.spans:
        assert span.completion_ms >= span.arrival_ms
        if span.status == "served":
            assert span.start_ms is not None
            assert span.arrival_ms <= span.start_ms <= span.completion_ms
            assert span.batch_size >= 1
        else:
            assert span.start_ms is None and span.drop_reason is not None

    payload = chrome_trace(trace)
    opens: dict[object, int] = {}
    closes: dict[object, int] = {}
    last_ts = 0.0
    for event in payload["traceEvents"]:
        if event["ph"] == "M":
            continue
        assert event["ts"] >= last_ts  # exported events are time-sorted
        last_ts = event["ts"]
        if event["ph"] == "b":
            opens[event["id"]] = opens.get(event["id"], 0) + 1
        elif event["ph"] == "e":
            closes[event["id"]] = closes.get(event["id"], 0) + 1
    assert opens == closes
    assert all(n == 1 for n in opens.values())
    assert len(opens) == len(trace.spans)


class TestObservationIdentity:
    @given(workload, disciplines, routers, admissions, st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_reference_loop_unchanged_by_recording(
        self, wl, discipline, router, admission, num_replicas
    ):
        plain, observed = run_pair(
            wl, num_replicas=num_replicas, discipline=discipline,
            router=router, admission=admission, run=reference_run,
        )
        assert_identical(observed, plain)
        assert plain.trace is None and observed.trace is not None
        assert_well_formed(observed)

    @given(workload, disciplines, routers, admissions, st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_fast_path_unchanged_by_recording(
        self, wl, discipline, router, admission, num_replicas
    ):
        plain, observed = run_pair(
            wl, num_replicas=num_replicas, discipline=discipline,
            router=router, admission=admission,
        )
        assert_identical(observed, plain)
        assert_well_formed(observed)
        _, reference = run_pair(
            wl, num_replicas=num_replicas, discipline=discipline,
            router=router, admission=admission, run=reference_run,
        )
        assert observed.trace == reference.trace
