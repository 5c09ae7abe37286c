"""Property-based tests of batched dispatch.

Two families of invariants:

* **B=1 identity** — an engine with ``max_batch=1`` must be record-identical
  to the pre-batching engine.  The reference below re-implements the seed's
  one-query-at-a-time dispatch loop (pop, admit, serve, one COMPLETION per
  query) against the same discipline/router/admission modules, so the
  batch-capable engine is checked against the original algorithm, not
  against itself.

* **Batch invariants** — whatever the trace: pickups never exceed
  ``max_batch``; members of a shared batch start together, complete
  together, and were routed to the same replica; outcomes partition into
  exactly the recorded batch sizes.
"""

import heapq

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.serving.engine import AcceleratorReplica, ServingEngine
from repro.serving.engine.admission import make_admission
from repro.serving.engine.disciplines import make_discipline
from repro.serving.engine.routing import make_router
from repro.serving.query import QueryTrace, QueuedQuery

EPS = 1e-9


class IndexedServer:
    """Synthetic backend whose service time is fixed per query index."""

    def __init__(self, services_ms):
        self.services_ms = list(services_ms)

    def serve_query(self, query, budget_ms, accuracy_floor):
        return ("synthetic", 0.78, self.services_ms[query.index], 0.0, 0.0, 0.0)


class SharedBatchServer(IndexedServer):
    """Synthetic backend with the shared-SubNet batch interface.

    A batch of k queries costs ``weight_ms`` once (the shared fetch) plus
    the sum of the members' per-query times — the same amortization shape
    as the SUSHI stack's batch evaluation.
    """

    def __init__(self, services_ms, weight_ms=1.0):
        super().__init__(services_ms)
        self.weight_ms = weight_ms

    def serve_query(self, query, budget_ms, accuracy_floor):
        service_ms = self.weight_ms + self.services_ms[query.index]
        return ("synthetic", 0.78, service_ms, 0.0, 0.0, 0.0)

    def serve_dispatch_batch(self, queries, budgets_ms, accuracy_floor):
        batch_ms = self.weight_ms + sum(self.services_ms[q.index] for q in queries)
        return [("synthetic-batch", 0.78, batch_ms, 0.0, 0.0, 0.0)] * len(queries)


def build_trace(constraints):
    return QueryTrace([0.77] * len(constraints), list(constraints))


def reference_run(trace, arrivals, services, *, num_replicas, discipline, router,
                  admission):
    """The seed's one-query-at-a-time dispatch loop, re-implemented.

    Same modules for discipline ordering, routing and admission; its own
    event loop with the engine's tie-breaking (completions before arrivals,
    then insertion order).  Returns (outcomes, dropped) as plain tuples.
    """
    replicas = [
        {
            "server": IndexedServer(services),
            "queue": make_discipline(discipline),
            "busy": None,  # (item, start, served, completion) when serving
        }
        for _ in range(num_replicas)
    ]
    route = make_router(router)
    admit = make_admission(admission)
    needs_estimates = route.needs_service_estimates or any(
        make_discipline(discipline).needs_service_estimates for _ in range(1)
    )

    ARRIVAL, COMPLETION = 1, 0  # completions first at equal times
    heap = []
    counter = 0
    for query, arrival in zip(trace, arrivals):
        heapq.heappush(heap, (float(arrival), ARRIVAL, counter, query))
        counter += 1
    outcomes = []
    dropped = []

    class _Shim:
        """Adapter giving the router the replica surface it reads
        (round_robin needs nothing, jsq reads num_in_system, counted here
        from the queue and the query in service)."""

        def __init__(self, state, index):
            self.state = state
            self.index = index

        @property
        def num_in_system(self):
            return len(self.state["queue"]) + (1 if self.state["busy"] else 0)

    def dispatch(r, ridx, now):
        while True:
            item = r["queue"].pop()
            if item is None:
                return
            if not admit.admit(item, now):
                dropped.append(
                    (item.query.index, item.arrival_ms, now,
                     item.query.latency_constraint_ms, ridx)
                )
                continue
            remaining = item.query.latency_constraint_ms - (now - item.arrival_ms)
            effective = max(remaining, 1e-9)
            served = r["server"].serve_query(
                item.query, effective, item.query.accuracy_constraint
            )
            service = float(served[2])
            nonlocal counter
            r["busy"] = (item, now, served, now + service)
            heapq.heappush(heap, (now + service, COMPLETION, counter, ridx))
            counter += 1
            return

    while heap:
        now, kind, _, payload = heapq.heappop(heap)
        if kind == ARRIVAL:
            query = payload
            shims = [_Shim(r, i) for i, r in enumerate(replicas)]
            item = QueuedQuery(
                query.index, query.accuracy_constraint, query.latency_constraint_ms, now
            )
            ridx = route.select(shims, item, now)
            if needs_estimates:
                item.service_estimate_ms = float(query.latency_constraint_ms)
            r = replicas[ridx]
            r["queue"].push(item)
            if r["busy"] is None:
                dispatch(r, ridx, now)
        else:
            ridx = payload
            r = replicas[ridx]
            item, start, served, _ = r["busy"]
            outcomes.append(
                (item.query.index, item.arrival_ms, start, float(served[2]), ridx)
            )
            r["busy"] = None
            dispatch(r, ridx, now)
    outcomes.sort()
    dropped.sort()
    return outcomes, dropped


positive = st.floats(min_value=0.01, max_value=20.0, allow_nan=False)

workload = st.integers(min_value=2, max_value=25).flatmap(
    lambda n: st.tuples(
        st.lists(positive, min_size=n, max_size=n),  # arrival gaps
        st.lists(positive, min_size=n, max_size=n),  # service times
        st.lists(positive, min_size=n, max_size=n),  # latency constraints
    )
)

disciplines = st.sampled_from(["fifo", "edf", "priority_by_slack"])
routers = st.sampled_from(["round_robin", "jsq"])
admissions = st.sampled_from(["admit_all", "drop_expired"])


class TestBatchOneIdentity:
    @given(workload, disciplines, routers, admissions, st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_max_batch_one_matches_the_seed_dispatch_loop(
        self, wl, discipline, router, admission, num_replicas
    ):
        """max_batch=1 reproduces the pre-batching engine, outcome for outcome."""
        gaps, services, constraints = wl
        trace = build_trace(constraints)
        arrivals = np.cumsum(gaps)
        engine = ServingEngine(
            [
                AcceleratorReplica(
                    IndexedServer(services), discipline=discipline, max_batch=1
                )
                for _ in range(num_replicas)
            ],
            router=router,
            admission=admission,
        )
        result = engine.run(trace, arrivals)
        got_outcomes = [
            (o.query_index, o.arrival_ms, o.start_ms, o.service_ms, o.replica_index)
            for o in result.outcomes
        ]
        got_dropped = [
            (d.query_index, d.arrival_ms, d.dropped_at_ms,
             d.latency_constraint_ms, d.replica_index)
            for d in result.dropped
        ]
        want_outcomes, want_dropped = reference_run(
            trace, arrivals, services,
            num_replicas=num_replicas, discipline=discipline,
            router=router, admission=admission,
        )
        assert got_outcomes == want_outcomes
        assert got_dropped == want_dropped
        assert all(o.batch_size == 1 for o in result.outcomes)

    @given(workload, disciplines, st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_explicit_and_default_batching_agree(self, wl, discipline, num_replicas):
        """Constructing replicas without batching args equals max_batch=1."""
        gaps, services, constraints = wl
        trace = build_trace(constraints)
        arrivals = np.cumsum(gaps)

        def run(**kwargs):
            engine = ServingEngine(
                [
                    AcceleratorReplica(
                        IndexedServer(services), discipline=discipline, **kwargs
                    )
                    for _ in range(num_replicas)
                ]
            )
            return engine.run(trace, arrivals)

        assert run().outcomes == run(max_batch=1).outcomes


class TestBatchInvariants:
    @given(workload, st.integers(2, 8), st.integers(1, 3), admissions)
    @settings(max_examples=60, deadline=None)
    def test_shared_batches_form_and_complete_as_units(
        self, wl, max_batch, num_replicas, admission
    ):
        gaps, services, constraints = wl
        trace = build_trace(constraints)
        arrivals = np.cumsum(gaps)
        engine = ServingEngine(
            [
                AcceleratorReplica(
                    SharedBatchServer(services),
                    max_batch=max_batch,
                    batch_policy="shared_subnet",
                )
                for _ in range(num_replicas)
            ],
            router="jsq",
            admission=admission,
        )
        result = engine.run(trace, arrivals)
        # Outcomes partition into pickups of the recorded sizes.
        batches = {}
        for o in result.outcomes:
            assert 1 <= o.batch_size <= max_batch
            assert o.start_ms >= o.arrival_ms - EPS
            batches.setdefault((o.replica_index, o.start_ms), []).append(o)
        for members in batches.values():
            sizes = {o.batch_size for o in members}
            assert sizes == {len(members)}
            # Shared batches complete together with one shared service time.
            assert len({o.completion_ms for o in members}) == 1
            assert len({o.service_ms for o in members}) == 1
        # Per-replica stats agree with the partition.
        by_replica = {}
        for (ridx, _), members in batches.items():
            by_replica[ridx] = by_replica.get(ridx, 0) + 1
        for stats in result.replica_stats:
            assert stats.num_batches == by_replica.get(stats.replica_index, 0)
        assert result.num_batches == len(batches)
        if result.outcomes:
            assert result.mean_batch_occupancy == pytest.approx(
                result.num_served / len(batches)
            )

    @given(workload, st.integers(2, 8))
    @settings(max_examples=40, deadline=None)
    def test_batched_pool_never_idles_while_work_waits(self, wl, max_batch):
        """Work conservation survives batching on a single replica."""
        gaps, services, constraints = wl
        trace = build_trace(constraints)
        arrivals = np.cumsum(gaps)
        engine = ServingEngine(
            [AcceleratorReplica(SharedBatchServer(services), max_batch=max_batch)]
        )
        result = engine.run(trace, arrivals)
        picked = sorted({(o.start_ms, o.completion_ms) for o in result.outcomes})
        prev_end = 0.0
        for start, end in picked:
            assert start >= prev_end - EPS  # pickups never overlap
            prev_end = end
        assert sorted(o.query_index for o in result.outcomes) == list(range(len(gaps)))
