"""Unit tests for Query, QueryTrace and the in-flight QueuedQuery."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.serving.api import build_engine, build_trace
from repro.serving.engine.disciplines import EDFQueue, SlackPriorityQueue
from repro.serving.query import Query, QueryTrace, QueuedQuery
from repro.serving.spec import ScenarioSpec

SCENARIOS = Path(__file__).resolve().parents[2] / "examples" / "scenarios"


class TestQuery:
    def test_valid_query(self):
        q = Query(index=0, accuracy_constraint=0.78, latency_constraint_ms=10.0)
        assert q.accuracy_constraint == 0.78

    def test_invalid_accuracy_rejected(self):
        with pytest.raises(ValueError):
            Query(index=0, accuracy_constraint=1.5, latency_constraint_ms=10.0)
        with pytest.raises(ValueError):
            Query(index=0, accuracy_constraint=0.0, latency_constraint_ms=10.0)

    def test_invalid_latency_rejected(self):
        with pytest.raises(ValueError):
            Query(index=0, accuracy_constraint=0.78, latency_constraint_ms=0.0)


class TestQueryTrace:
    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            QueryTrace([], [])

    def test_constructor(self):
        trace = QueryTrace([0.76, 0.79], [5.0, 8.0])
        assert len(trace) == 2
        assert trace[1].latency_constraint_ms == 8.0
        assert [q.accuracy_constraint for q in trace] == [0.76, 0.79]
        assert [q.latency_constraint_ms for q in trace] == [5.0, 8.0]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            QueryTrace([0.76], [5.0, 8.0])

    def test_iteration_order(self):
        trace = QueryTrace([0.76, 0.77, 0.78], [5.0, 6.0, 7.0])
        assert [q.index for q in trace] == [0, 1, 2]

    def test_queries_equal_checked_construction(self):
        trace = QueryTrace([0.76, 0.77], [5.0, 6.0])
        assert list(trace) == [
            Query(index=0, accuracy_constraint=0.76, latency_constraint_ms=5.0),
            Query(index=1, accuracy_constraint=0.77, latency_constraint_ms=6.0),
        ]
        assert all(type(q.accuracy_constraint) is float for q in trace)

    def test_negative_index_counts_from_the_end(self):
        trace = QueryTrace([0.76, 0.77, 0.78], [5.0, 6.0, 7.0])
        assert trace[-1] == trace[2]
        assert trace[-1].index == 2
        assert trace[-3].index == 0

    @pytest.mark.parametrize("idx", [3, -4, 100])
    def test_out_of_range_index_raises(self, idx):
        trace = QueryTrace([0.76, 0.77, 0.78], [5.0, 6.0, 7.0])
        with pytest.raises(IndexError):
            trace[idx]

    @pytest.mark.parametrize("idx", [slice(0, 2), 1.0, "0"])
    def test_non_integer_index_raises(self, idx):
        trace = QueryTrace([0.76, 0.77, 0.78], [5.0, 6.0, 7.0])
        with pytest.raises(TypeError):
            trace[idx]


class TestQueryTraceValidation:
    def test_two_dimensional_input_rejected(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            QueryTrace([[0.76, 0.77]], [[5.0, 6.0]])

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            QueryTrace([0.76, 0.77, 0.78], [5.0, 6.0])

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="at least one query"):
            QueryTrace([], [])

    @pytest.mark.parametrize("bad", [0.0, 1.0, math.nan])
    def test_invalid_accuracy_rejected(self, bad):
        with pytest.raises(ValueError, match=r"query 1: accuracy constraint"):
            QueryTrace([0.76, bad, 0.78], [5.0, 6.0, 7.0])

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    def test_invalid_latency_rejected(self, bad):
        with pytest.raises(ValueError, match=r"query 2: latency constraint"):
            QueryTrace([0.76, 0.77, 0.78], [5.0, 6.0, bad])


class TestQueuedQuery:
    def test_query_equals_the_trace_query(self):
        rng = np.random.default_rng(0)
        trace = QueryTrace(rng.uniform(0.7, 0.8, 50), rng.uniform(1.0, 90.0, 50))
        arrivals = np.cumsum(rng.exponential(1.0, 50)).tolist()
        acc, lat = trace.columns()
        for i, arrival in enumerate(arrivals):
            # Built from the columns, as the engine builds it.
            item = QueuedQuery(i, acc[i], lat[i], arrival)
            assert item.query == trace[i]
            assert (item.index, item.accuracy_constraint, item.latency_constraint_ms) == (
                trace[i].index, trace[i].accuracy_constraint, trace[i].latency_constraint_ms
            )

    def test_deadline_is_bit_equal_to_arrival_plus_constraint(self):
        rng = np.random.default_rng(1)
        arrivals = [0.1, 0.7, 1e-300, 3.0000000000000004, *rng.uniform(0, 1e6, 200)]
        latencies = [0.2, 0.1, 5e-324, 1e16, *rng.uniform(1e-3, 1e3, 200)]
        for i, (arrival, latency) in enumerate(zip(arrivals, latencies)):
            item = QueuedQuery(i, 0.77, latency, arrival)
            assert item.deadline_ms.hex() == (arrival + latency).hex()
            assert item.arrival_ms == arrival

    @pytest.mark.parametrize("discipline", [EDFQueue, SlackPriorityQueue])
    def test_equal_keys_pop_in_index_order(self, discipline):
        queue = discipline()
        order = [5, 2, 7, 0, 3, 6, 1, 4]
        for i in order:
            # Deadline 10 for all; slack key 10 - 2 = 8 for all.
            queue.push(QueuedQuery(i, 0.77, 10.0 - i, float(i), service_estimate_ms=2.0))
        assert [queue.pop().index for _ in order] == sorted(order)
        assert queue.pop() is None

    def test_a_retried_item_keeps_its_arrival_and_deadline(self):
        spec = ScenarioSpec.from_dict(
            json.loads((SCENARIOS / "faulty_pool.json").read_text())
        ).override("num_queries", 1500)
        trace = build_trace(spec)
        arrivals = spec.arrivals.generate(len(trace))
        acc, lat = trace.columns()
        engine = build_engine(spec)
        routed: dict[int, list] = {}
        select = engine.router.select

        def watching_select(replicas, item, now_ms):
            routed.setdefault(item.index, []).append(
                (item, item.arrival_ms, item.deadline_ms)
            )
            return select(replicas, item, now_ms)

        engine.router.select = watching_select
        result = engine.run(trace, arrivals)
        # A retry re-enters routing: those queries were routed again.
        retried = {i: seen for i, seen in routed.items() if len(seen) > 1}
        assert retried, "the faulty pool retried no query"
        for i, seen in retried.items():
            arrival = float(arrivals[i])
            for item, arrival_ms, deadline_ms in seen:
                # The same item at every attempt, with its first arrival.
                assert item is seen[0][0]
                assert (arrival_ms, deadline_ms) == (arrival, arrival + lat[i])
                assert (item.index, item.accuracy_constraint) == (i, acc[i])
        rows = {o.query_index: o.arrival_ms for o in result.outcomes}
        rows.update({d.query_index: d.arrival_ms for d in result.dropped})
        assert all(rows[i] == float(arrivals[i]) for i in retried)
