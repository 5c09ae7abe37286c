"""Property-based tests of the serving engine's queueing invariants.

Synthetic servers with hypothesis-generated arrival gaps, service times and
latency constraints exercise the discrete-event core across disciplines,
routers and admission policies; the invariants are classical queueing facts
that must hold for *every* trace, not just the seeded ones.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.serving.engine import AcceleratorReplica, ServingEngine
from repro.serving.query import QueryTrace

EPS = 1e-9


class IndexedServer:
    """Synthetic backend whose service time is fixed per query index."""

    def __init__(self, services_ms):
        self.services_ms = list(services_ms)

    def serve_query(self, query, budget_ms, accuracy_floor):
        return ("synthetic", 0.78, self.services_ms[query.index], 0.0, 0.0, 0.0)


def build_trace(constraints):
    return QueryTrace([0.77] * len(constraints), list(constraints))


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


def run_engine(gaps, services, constraints, *, num_replicas=1, discipline="fifo",
               router="round_robin", admission="admit_all"):
    trace = build_trace(constraints)
    arrivals = np.cumsum(gaps)
    replicas = [
        AcceleratorReplica(IndexedServer(services), discipline=discipline, index=i)
        for i in range(num_replicas)
    ]
    engine = ServingEngine(replicas, router=router, admission=admission)
    return engine.run(trace, arrivals), arrivals


class TestQueueingInvariants:
    @given(workload, disciplines, routers, admissions, st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_start_never_precedes_arrival(
        self, wl, discipline, router, admission, num_replicas
    ):
        gaps, services, constraints = wl
        result, _ = run_engine(
            gaps, services, constraints,
            num_replicas=num_replicas, discipline=discipline,
            router=router, admission=admission,
        )
        for o in result.outcomes:
            assert o.start_ms >= o.arrival_ms - EPS

    @given(workload, disciplines, routers, st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_completions_never_overlap_per_replica(
        self, wl, discipline, router, num_replicas
    ):
        gaps, services, constraints = wl
        result, _ = run_engine(
            gaps, services, constraints,
            num_replicas=num_replicas, discipline=discipline, router=router,
        )
        for r in range(num_replicas):
            mine = sorted(
                (o for o in result.outcomes if o.replica_index == r),
                key=lambda o: o.start_ms,
            )
            for prev, nxt in zip(mine, mine[1:]):
                assert nxt.start_ms >= prev.completion_ms - EPS

    @given(workload, disciplines)
    @settings(max_examples=60, deadline=None)
    def test_single_replica_work_conservation(self, wl, discipline):
        """The server never idles while work waits: start = max(arrival, prev completion)."""
        gaps, services, constraints = wl
        result, _ = run_engine(gaps, services, constraints, discipline=discipline)
        ordered = sorted(result.outcomes, key=lambda o: o.start_ms)
        prev_completion = 0.0
        for o in ordered:
            assert o.start_ms == pytest.approx(
                max(o.arrival_ms, prev_completion), abs=1e-6
            )
            prev_completion = o.completion_ms
        # Everything offered was served (admit_all) exactly once.
        assert sorted(o.query_index for o in result.outcomes) == list(
            range(len(gaps))
        )

    @given(workload)
    @settings(max_examples=40, deadline=None)
    def test_slo_attainment_monotone_in_load(self, wl):
        """Scaling all arrival gaps down (more load) never improves any response.

        Per-query response times weakly increase with load (Lindley
        recursion), hence SLO attainment is monotone non-increasing.  The
        attainment comparison allows a tiny tolerance on the deadline so
        exact constraint-equals-response boundaries don't flip on 1-ulp
        float noise.
        """
        gaps, services, constraints = wl
        gaps = np.asarray(gaps)
        responses = []
        attainments = []
        for squeeze in (1.0, 2.0, 4.0):
            trace = build_trace(constraints)
            arrivals = np.cumsum(gaps / squeeze)
            engine = ServingEngine([AcceleratorReplica(IndexedServer(services))])
            result = engine.run(trace, arrivals)
            by_index = {o.query_index: o for o in result.outcomes}
            responses.append([by_index[i].response_ms for i in range(len(gaps))])
            attainments.append(
                np.mean(
                    [
                        by_index[i].response_ms <= constraints[i] + 1e-6
                        for i in range(len(gaps))
                    ]
                )
            )
        for light, heavy in zip(responses, responses[1:]):
            for a, b in zip(light, heavy):
                assert b >= a - 1e-6
        assert all(a >= b - EPS for a, b in zip(attainments, attainments[1:]))

    @given(workload, st.integers(2, 3))
    @settings(max_examples=60, deadline=None)
    def test_jsq_never_queues_while_a_replica_idles(self, wl, num_replicas):
        """Under JSQ, a query only waits if every replica was busy at its arrival."""
        gaps, services, constraints = wl
        result, _ = run_engine(
            gaps, services, constraints, num_replicas=num_replicas, router="jsq"
        )
        busy = {
            r: [
                (o.start_ms, o.completion_ms)
                for o in result.outcomes
                if o.replica_index == r
            ]
            for r in range(num_replicas)
        }
        for o in result.outcomes:
            if o.queueing_ms <= EPS:
                continue
            t = o.arrival_ms
            for r in range(num_replicas):
                assert any(
                    start <= t + EPS and t < end - EPS for start, end in busy[r]
                ), f"query {o.query_index} waited while replica {r} idled"

    @given(workload, st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_drop_accounting_partitions_the_trace(self, wl, num_replicas):
        gaps, services, constraints = wl
        result, _ = run_engine(
            gaps, services, constraints,
            num_replicas=num_replicas, admission="drop_expired",
        )
        served = {o.query_index for o in result.outcomes}
        dropped = {d.query_index for d in result.dropped}
        assert served | dropped == set(range(len(gaps)))
        assert not served & dropped
        assert sum(s.num_served for s in result.replica_stats) == len(served)
        assert sum(s.num_dropped for s in result.replica_stats) == len(dropped)
        # A dropped query's deadline had indeed expired when it was shed.
        for d in result.dropped:
            assert d.dropped_at_ms >= d.arrival_ms + d.latency_constraint_ms - EPS
