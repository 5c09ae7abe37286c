"""The reference event loop, kept as a test oracle for ``ServingEngine.run``.

``reference_run(engine, trace, arrivals)`` simulates what ``engine.run``
simulates, the slow and literal way:

* every arrival is an :class:`Event` in one :class:`EventHeap` ordered by
  (time, kind, insertion order) — no arrival cursor;
* every query is enqueued before it is dispatched — no direct serve;
* every dispatch, ``max_batch == 1`` included, goes through the batched
  pickup (``_serve_pickup``) — no single-query path;
* every served and dropped query is first an object: completions build
  :class:`SimulatedQueryOutcome` the literal way (keyword construction,
  the record restamped with ``dataclasses.replace``) and the engine's
  shared drop paths write into an :class:`ObjectWriter`, which builds a
  :class:`DroppedQuery` per drop; each object then goes through the
  engine's one result writer, ``ResultTable.put``.

``reference_objects`` also returns those objects, in query-index order, so
a test can hold the result views against what was written.

Routing is the literal scan ``[r for r in engine.replicas if r.is_routable]``
over every replica ever created, and every arrival asserts that the engine's
maintained routable list (``engine._routable()``) equals it.  The control
plane, fault plane and provisioning hand-over are the engine's own handlers:
they are shared code, not what the one loop changed.  Property tests run
both on identical fresh engines and require bit-identical results.

``build_stack_engine(stack, ...)`` is the hand-wired SUSHI pool — one
replica per stack clone, seeded ``stack seed + i`` — that a homogeneous
Poisson :class:`~repro.serving.spec.ScenarioSpec` must reproduce record for
record through ``run_scenario``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from repro.serving.engine import (
    AcceleratorReplica,
    DroppedQuery,
    ServingEngine,
    SimulatedQueryOutcome,
)
from repro.serving.engine.core import _serve_pickup
from repro.serving.engine.disciplines import QueuedQuery
from repro.serving.engine.events import EventKind
from repro.serving.engine.results import ResultTable


@dataclass(frozen=True, slots=True)
class Event:
    """One timestamped event in the reference heap."""

    time_ms: float
    kind: EventKind
    payload: Any


class EventHeap:
    """Min-heap of events ordered by (time, kind, insertion order).

    ``push`` takes the engine queue's ``(time_ms, kind, payload)`` so the
    engine's handlers can schedule into it.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Event]] = []
        self._counter = 0

    def push(self, time_ms: float, kind: int, payload: Any) -> None:
        event = Event(time_ms, EventKind(kind), payload)
        heapq.heappush(self._heap, (time_ms, int(kind), self._counter, event))
        self._counter += 1

    def pop(self) -> Event:
        if not self._heap:
            raise IndexError("pop from an empty event heap")
        return heapq.heappop(self._heap)[3]

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


class ObjectWriter:
    """The table interface the engine's drop paths write to, object first.

    ``drop`` builds the :class:`DroppedQuery` and hands it to
    :meth:`put`, which keeps every object by row and writes it through
    ``ResultTable.put``.
    """

    def __init__(self, num_rows: int) -> None:
        self.table = ResultTable(num_rows)
        self.objects: dict[int, Any] = {}

    def put(self, row: int, obj) -> None:
        self.objects[row] = obj
        self.table.put(row, obj)

    def drop(self, row, arrival_ms, dropped_at_ms,
             latency_constraint_ms, replica_index, reason) -> None:
        self.put(
            row,
            DroppedQuery(
                query_index=row,
                arrival_ms=arrival_ms,
                dropped_at_ms=dropped_at_ms,
                latency_constraint_ms=latency_constraint_ms,
                replica_index=replica_index,
                reason=reason,
            ),
        )

    def dropped_query(self, row: int) -> DroppedQuery:
        return self.objects[row]


def reference_run(engine, trace, arrivals, *, arrival_rate_per_ms=None, reset=True):
    """``engine.run(trace, arrivals, ...)`` through the reference loop."""
    return reference_objects(
        engine, trace, arrivals, arrival_rate_per_ms=arrival_rate_per_ms, reset=reset
    )[0]


def reference_objects(
    engine, trace, arrivals, *, arrival_rate_per_ms=None, reset=True
):
    """``(result, outcomes, dropped)`` of the reference loop.

    ``outcomes`` and ``dropped`` are the objects the loop built, each in
    query-index (row) order.
    """
    arrivals = np.asarray(arrivals, dtype=np.float64)
    if reset:
        engine.reset()
    recorder = engine.recorder
    if recorder is not None:
        recorder.begin_run((r.index, r.name) for r in engine.replicas)
    if engine.autoscaler is not None:
        engine.autoscaler.recorder = recorder
    heap = EventHeap()
    for query, arrival in zip(trace, arrivals):
        heap.push(float(arrival), EventKind.ARRIVAL, query)
    if engine.autoscaler is not None:
        heap.push(engine.autoscaler.control_interval_ms, EventKind.CONTROL, None)
    if engine.faults is not None:
        engine._arm_faults(arrivals, heap.push)
    writer = ObjectWriter(len(arrivals))
    _drain(engine, heap, writer)
    result = engine._build_result(
        writer.table, arrival_rate_per_ms=arrival_rate_per_ms
    )
    ordered = [obj for _, obj in sorted(writer.objects.items())]
    return (
        result,
        tuple(o for o in ordered if isinstance(o, SimulatedQueryOutcome)),
        tuple(d for d in ordered if isinstance(d, DroppedQuery)),
    )


def _drain(engine, heap: EventHeap, table: ObjectWriter) -> None:
    bus = None if engine.autoscaler is None else engine.autoscaler.bus
    fi = engine.faults

    def dispatch(replica, now):
        _dispatch(engine, replica, now, heap, table)

    seq = 0
    while heap:
        event = heap.pop()
        now = event.time_ms
        kind = event.kind
        if kind == EventKind.ARRIVAL:
            engine._run_end_ms = now
            query = event.payload
            item = QueuedQuery(query=query, arrival_ms=now, seq=seq)
            seq += 1
            candidates = [r for r in engine.replicas if r.is_routable]
            maintained = engine._routable()
            assert maintained == candidates, (
                f"maintained routable {[r.index for r in maintained]} != "
                f"scan {[r.index for r in candidates]} at t={now}"
            )
            if fi is not None and not candidates:
                engine._shed_arrival(item, now, table, bus)
                continue
            replica = candidates[engine.router.select(candidates, item, now)]
            if bus is not None and replica.index in engine._group_of:
                bus.on_arrival(now)
            if engine._needs_estimates:
                item = QueuedQuery(
                    query=query,
                    arrival_ms=now,
                    seq=item.seq,
                    service_estimate_ms=float(replica.service_estimator(query)),
                )
            replica.enqueue(item)
            if replica.in_service is None:
                dispatch(replica, now)
        elif kind == EventKind.COMPLETION:
            replica = engine.replicas[event.payload]
            if fi is not None and replica.failed:
                continue
            engine._run_end_ms = now
            _complete(engine, replica, table, now)
            dispatch(replica, now)
        elif kind == EventKind.FAULT:
            engine._handle_fault(now, event.payload, heap, table)
        elif kind == EventKind.RECOVERY:
            engine._handle_recovery(now, event.payload, heap, table, dispatch)
        elif kind == EventKind.PROVISIONING:
            engine._finish_provisioning(event.payload)
        else:  # CONTROL
            engine._control(now, heap)


def _dispatch(engine, replica, now, heap, table):
    bus = None if engine.autoscaler is None else engine.autoscaler.bus
    if bus is not None and replica.index not in engine._group_of:
        bus = None
    sink: list = []
    while True:
        completion_ms = _serve_pickup(
            replica,
            now,
            table,
            admission=engine.admission,
            bus=bus,
            recorder=engine.recorder,
            faults=engine.faults,
            fault_sink=sink,
        )
        if not sink:
            break
        if engine.recorder is not None:
            engine.recorder.on_fault(now, "dispatch_failure", replica.index)
        for item in sink:
            engine._retry_or_fail(item, replica, now, heap, table)
        sink.clear()
    if completion_ms is None:
        if engine.autoscaler is not None:
            engine._maybe_retire(replica, now)
        return
    heap.push(completion_ms, EventKind.COMPLETION, replica.index)


def _complete(engine, replica, table, now):
    current = replica.in_service
    if engine.autoscaler is not None and replica.index in engine._group_of:
        engine.autoscaler.bus.on_completion(
            now, replica_index=replica.index, service_ms=current.total_ms
        )
    ridx = replica.index
    stats = replica.stats
    for item, record, start, service in zip(
        current.items, current.records, current.starts, current.services
    ):
        outcome = SimulatedQueryOutcome(
            query_index=item.query.index,
            arrival_ms=item.arrival_ms,
            start_ms=start,
            service_ms=service,
            latency_constraint_ms=item.query.latency_constraint_ms,
            served_accuracy=record.served_accuracy,
            replica_index=ridx,
            record=replace(record, replica_index=ridx),
            batch_size=current.size,
        )
        table.put(item.seq, outcome)
        if engine.recorder is not None:
            engine.recorder.on_served(outcome)
        stats.queueing_ms_total += start - item.arrival_ms
    stats.num_served += current.size
    stats.busy_ms += current.total_ms
    replica.in_service = None


def build_stack_engine(
    stack,
    *,
    num_replicas=1,
    discipline="fifo",
    router="round_robin",
    admission="admit_all",
):
    """An engine over ``num_replicas`` independent clones of a SUSHI stack.

    Each replica gets its own scheduler and Persistent Buffer state (cloned
    via :meth:`~repro.serving.stack.SushiStack.clone`, sharing the immutable
    SuperNet/table) so replicas evolve their caches independently; the
    passed stack itself is left untouched.
    """
    replicas = [
        AcceleratorReplica(stack.clone(seed=stack.config.seed + i), discipline=discipline)
        for i in range(num_replicas)
    ]
    return ServingEngine(replicas, router=router, admission=admission)
