"""Property-based identity tests of the engine's event loop and event queue.

Two families of properties:

* **Loop identity** — for *every* hypothesis-generated workload (arrival
  gaps, service times, latency constraints) and policy combination,
  ``ServingEngine.run`` must produce results bit-identical to the
  reference Event/EventHeap loop (``engine_oracle.reference_run``).
  Equality here is structural equality of frozen dataclasses over raw
  floats, so even a 1-ulp reordering of arithmetic would fail.

* **Queue-ordering contracts** — same-timestamp pops follow kind then
  insertion order, and :class:`ArrayEventQueue` (arrival cursor +
  dynamic-event heap) must pop in exactly the order :class:`EventHeap`
  would when everything is pushed into one heap.  Times are drawn from a
  coarse grid so equal timestamps — where the (time, kind, insertion
  order) tie-break actually matters — are common rather than measure-zero.
"""

from __future__ import annotations

import numpy as np
from engine_oracle import EventHeap, reference_run
from hypothesis import given, settings, strategies as st

from repro.serving.autoscale import AutoscaleController, ScaledGroup
from repro.serving.engine import AcceleratorReplica, ServingEngine
from repro.serving.engine.events import ArrayEventQueue, EventKind
from repro.serving.query import Query, QueryTrace
from repro.serving.spec import AutoscalerSpec


class IndexedServer:
    """Synthetic backend whose service time is fixed per query index."""

    def __init__(self, services_ms):
        self.services_ms = list(services_ms)

    def serve_query(self, query, budget_ms, accuracy_floor):
        return ("synthetic", 0.78, self.services_ms[query.index], 0.0, 0.0, 0.0)


class BatchIndexedServer(IndexedServer):
    """Adds a shared-SubNet batch dispatch: one evaluation for the batch."""

    def serve_dispatch_batch(self, queries, budgets_ms, accuracy_floor):
        service = max(self.services_ms[q.index] for q in queries)
        return [("synthetic-batch", 0.76, service, 0.0, 0.0, 0.0)] * len(queries)


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
#: (max_batch, batch policy): the single-query dispatch and both pickups.
batchings = st.sampled_from(
    [(1, "shared_subnet"), (3, "shared_subnet"), (3, "per_query")]
)


def run_pair(
    wl, *, num_replicas, discipline, router, admission, batching=(1, "shared_subnet"),
    scaling=None,
):
    """(reference result, engine result) on identical fresh engines."""
    gaps, services, constraints = wl
    trace = QueryTrace([0.77] * len(gaps), list(constraints))
    arrivals = np.cumsum(gaps)
    max_batch, policy = batching

    def replica(position=None):
        return AcceleratorReplica(
            BatchIndexedServer(services),
            discipline=discipline,
            max_batch=max_batch,
            batch_policy=policy,
        )

    def engine():
        autoscaler = None
        if scaling is not None:
            # Short ticks and a cold start sized to the hypothesis gaps, so
            # scale-ups, provisioning hand-overs and drains all happen; the
            # oscillating plan drains replicas while they are still busy.
            plan = (
                dict(policy="scheduled", schedule=((0.0, 3), (6.0, 1)), period_ms=12.0)
                if scaling == "oscillating"
                else dict(policy=scaling)
            )
            autoscaler = AutoscaleController(
                AutoscalerSpec(
                    control_interval_ms=4.0, min_replicas=1, max_replicas=4, **plan
                ),
                [
                    ScaledGroup(
                        None, replica, tuple(range(num_replicas)), startup_delay_ms=3.0
                    )
                ],
            )
        return ServingEngine(
            [replica() for _ in range(num_replicas)],
            router=router,
            admission=admission,
            autoscaler=autoscaler,
        )

    return reference_run(engine(), trace, arrivals), engine().run(trace, arrivals)


def assert_identical(fast, ref):
    assert fast.outcomes == ref.outcomes
    assert fast.dropped == ref.dropped
    assert fast.replica_stats == ref.replica_stats
    assert fast.duration_ms == ref.duration_ms
    assert fast.autoscale == ref.autoscale


class TestExecutionStrategyIdentity:
    @given(workload, disciplines, routers, admissions, batchings, st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_fast_path_is_bit_identical(
        self, wl, discipline, router, admission, batching, num_replicas
    ):
        ref, fast = run_pair(
            wl, num_replicas=num_replicas, discipline=discipline,
            router=router, admission=admission, batching=batching,
        )
        assert_identical(fast, ref)

    @given(
        workload,
        disciplines,
        routers,
        admissions,
        batchings,
        st.integers(1, 2),
        st.sampled_from(["reactive", "oscillating"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_autoscaled_pool_is_bit_identical(
        self, wl, discipline, router, admission, batching, num_replicas, scaling
    ):
        ref, fast = run_pair(
            wl, num_replicas=num_replicas, discipline=discipline,
            router=router, admission=admission, batching=batching,
            scaling=scaling,
        )
        assert_identical(fast, ref)


class TestTraceQueries:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=1e-9, max_value=1.0, exclude_max=True),
                st.floats(min_value=1e-9, max_value=1e9),
            ),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_trace_query_is_the_checked_construction(self, constraints):
        """``trace[i] == Query(i, acc[i], lat[i])`` for the input floats:
        the columns round-trip every double and indexing validates."""
        acc = [a for a, _ in constraints]
        lat = [latency for _, latency in constraints]
        trace = QueryTrace(acc, lat)
        expected = [Query(i, acc[i], lat[i]) for i in range(len(acc))]
        assert [trace[i] for i in range(len(acc))] == expected
        assert list(trace) == expected
        assert trace.columns() == (acc, lat)


# Coarse grids make equal timestamps common, so the tie-break contract —
# kind order then insertion order — is exercised on nearly every example.
grid_times = st.integers(min_value=0, max_value=4).map(float)
kinds = st.sampled_from(list(EventKind))
events = st.lists(st.tuples(grid_times, kinds), min_size=1, max_size=30)


class TestEventHeapContract:
    @given(events)
    @settings(max_examples=100, deadline=None)
    def test_same_timestamp_pops_follow_kind_then_insertion(self, items):
        heap = EventHeap()
        for i, (t, kind) in enumerate(items):
            heap.push(t, kind, i)
        popped = [heap.pop() for _ in range(len(items))]
        keys = [(e.time_ms, int(e.kind), e.payload) for e in popped]
        assert keys == sorted(keys)  # payload is insertion order


dynamic_kinds = st.sampled_from(
    [EventKind.COMPLETION, EventKind.PROVISIONING, EventKind.CONTROL]
)


class TestArrayEventQueueContract:
    @given(
        st.lists(grid_times, min_size=0, max_size=15),  # arrival gaps
        st.lists(st.tuples(grid_times, dynamic_kinds), max_size=15),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_event_heap_order(self, gaps, dynamic):
        """The cursor+heap queue pops in EventHeap's exact global order.

        The reference heap receives arrivals first, then the dynamic
        events, mirroring ``run()``'s seeding order; the array queue holds
        the same arrivals as its buffer and only the dynamic events in its
        heap.  Both must drain identically, payload included (the array
        queue reports an arrival as its buffer index).
        """
        arrivals = np.cumsum(gaps).tolist()
        heap = EventHeap()
        for i, t in enumerate(arrivals):
            heap.push(t, EventKind.ARRIVAL, i)
        queue = ArrayEventQueue(arrivals)
        for j, (t, kind) in enumerate(dynamic):
            heap.push(t, kind, ("dyn", j))
            queue.push(t, kind, ("dyn", j))

        assert bool(queue) == bool(arrivals or dynamic)
        expected = [heap.pop() for _ in range(len(arrivals) + len(dynamic))]
        got = list(queue)
        assert got == [(e.time_ms, int(e.kind), e.payload) for e in expected]
        assert not queue
        assert list(queue) == []

    @given(
        st.lists(grid_times, min_size=1, max_size=10),  # arrival gaps
        st.lists(st.tuples(grid_times, dynamic_kinds), max_size=10),
        st.lists(st.tuples(grid_times, dynamic_kinds), max_size=10),
    )
    @settings(max_examples=100, deadline=None)
    def test_pushes_while_iterating_keep_heap_order(self, gaps, first, later):
        """Events pushed mid-iteration (the engine schedules completions,
        retries and control ticks as it goes) land in EventHeap order."""
        arrivals = np.cumsum(gaps).tolist()
        heap = EventHeap()
        for i, t in enumerate(arrivals):
            heap.push(t, EventKind.ARRIVAL, i)
        queue = ArrayEventQueue(arrivals)
        for j, (t, kind) in enumerate(first):
            heap.push(t, kind, ("first", j))
            queue.push(t, kind, ("first", j))
        got = []
        expected = []
        for event in queue:
            got.append(event)
            reference = heap.pop()
            expected.append((reference.time_ms, int(reference.kind), reference.payload))
            if len(got) == 1:
                # Push the later events relative to the first popped time,
                # so none of them lies in the already-popped past.
                for j, (dt, kind) in enumerate(later):
                    heap.push(event[0] + dt, kind, ("later", j))
                    queue.push(event[0] + dt, kind, ("later", j))
        assert got == expected
        assert not heap
