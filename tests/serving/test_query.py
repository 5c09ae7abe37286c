"""Unit tests for Query and QueryTrace."""

import math

import pytest

from repro.serving.query import Query, QueryTrace


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
