"""The reference event loop, kept as a test oracle for ``ServingEngine.run``.

``reference_run(engine, trace, arrivals)`` simulates what ``engine.run``
simulates, the slow and literal way:

* every arrival is an :class:`Event` in one :class:`EventHeap` ordered by
  (time, kind, insertion order) — no arrival cursor;
* every query is enqueued before it is dispatched — no direct serve;
* every dispatch, ``max_batch == 1`` included, goes through this module's
  own copy of the engine's batched pickup as it stood before the
  single-query dispatch became a pickup of one: :func:`_serve_pickup`,
  :func:`_drop_item` and :class:`_InService`, verbatim.  The engine's
  ``start``/``dispatch`` share no code with them, so "``_simulate`` ≡
  reference loop" compares two independent implementations.  The copy
  leaves an :class:`_InService` on the replica; ``_dispatch`` keeps it for
  the completion and hands the replica the engine's member list, which the
  engine's shared handlers (crash, queue length, retirement) read;
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

from repro.core.metrics import QueryRecord
from repro.serving.engine import (
    AcceleratorReplica,
    DroppedQuery,
    ServingEngine,
    SimulatedQueryOutcome,
)
from repro.serving.engine.admission import AdmissionPolicy
from repro.serving.engine.core import _MIN_EFFECTIVE_LATENCY_MS
from repro.serving.engine.events import EventKind
from repro.serving.engine.results import ResultTable
from repro.serving.query import QueuedQuery


def _relaxed(accuracy_constraint: float, relax: float) -> float:
    """Brownout: ``accuracy_constraint`` lowered by ``relax``, floored at 1e-9."""
    floor = accuracy_constraint - relax
    return floor if floor > 1e-9 else 1e-9


@dataclass(slots=True)
class _InService:
    """The batch a replica is currently serving (a ``max_batch > 1`` pickup).

    Parallel tuples (member ``i`` of the batch is ``items[i]`` / ``records[i]``
    / ``starts[i]`` / ``services[i]``): under the ``shared_subnet`` batching
    policy every member starts at the pickup time and spans the whole batch
    evaluation; under ``per_query`` members run back to back, so their starts
    are cumulative.  ``slots=True``: one of these lives per in-flight batch.
    """

    items: tuple[QueuedQuery, ...]
    records: tuple[QueryRecord, ...]
    starts: tuple[float, ...]
    services: tuple[float, ...]
    total_ms: float
    """Busy time of the whole pickup (one evaluation under ``shared_subnet``,
    the members' sum under ``per_query``)."""

    @property
    def start_ms(self) -> float:
        """When the batch pickup happened (the first member's start)."""
        return self.starts[0]

    @property
    def size(self) -> int:
        return len(self.items)


def _drop_item(
    table: ResultTable, item: QueuedQuery, replica: AcceleratorReplica, now: float
) -> None:
    """Write ``item`` as shed by admission control at dispatch on ``replica``."""
    replica.stats.num_dropped += 1
    table.drop(
        item.index, item.arrival_ms, now,
        item.query.latency_constraint_ms, replica.index, "deadline_expired",
    )


def _serve_pickup(
    replica: AcceleratorReplica,
    now: float,
    table: ResultTable,
    *,
    admission: AdmissionPolicy,
    bus,
    faults=None,
    fault_sink: list[QueuedQuery] | None = None,
) -> float | None:
    """Pull the replica's next admissible batch and start serving it.

    The batched dispatch (``max_batch > 1``): returns the pickup's
    completion time (``None`` when the queue yields no admissible batch)
    and leaves scheduling of the COMPLETION to the caller.  Up to
    ``max_batch`` admissible queries leave the queue in one pickup and are
    served as a unit: under ``shared_subnet`` the backend makes a single
    shared SubNet decision and one accelerator evaluation for the whole
    batch; under ``per_query`` (and for backends without
    ``serve_dispatch_batch``) members keep their own decisions and run back
    to back.  A one-member pickup is served exactly like the engine's
    single-query dispatch.  Admission sheds are written to ``table``.

    With ``faults`` set (a :class:`~repro.serving.engine.faults.FaultInjector`)
    the pickup additionally runs the dispatch-time fault behaviours: one
    Bernoulli transient-failure draw per pickup (on failure the whole batch
    moves to ``fault_sink`` for the caller's retry policy and the replica
    stays idle), straggle scaling of the batch's service time by the
    replica's current ``straggle_factor`` (records keep their nominal
    ``served_latency_ms``; outcomes and busy accounting carry the scaled
    time), and brownout degradation (:func:`_relaxed`), steering dispatch
    toward smaller SubNets while capacity is lost.  ``faults=None`` is a
    dead check.

    The backend returns a served tuple per member; this copy builds each
    member's :class:`QueryRecord` from it, with the query's index and
    nominal latency constraint and the accuracy floor the backend was given.
    Every query leaving the replica's system here is taken off its
    ``num_in_system`` count.
    """
    batch, shed = replica.pop_batch(replica.max_batch, now_ms=now, admission=admission)
    for item in shed:
        _drop_item(table, item, replica, now)
        if bus is not None:
            bus.on_drop(now)
    if not batch:
        return None
    straggle = 1.0
    relax = 0.0
    if faults is not None:
        if faults.dispatch_fails():
            # Transient dispatch failure: the whole pickup errors before
            # any work starts; the caller retries (or fails) each member.
            replica.num_in_system -= len(batch)
            fault_sink.extend(batch)
            return None
        straggle = replica.straggle_factor
        relax = faults.accuracy_relax

    ridx = replica.index
    size = len(batch)
    batch_serve = (
        getattr(replica.server, "serve_dispatch_batch", None)
        if size > 1 and replica.batch_policy == "shared_subnet"
        else None
    )
    if batch_serve is None:
        # One decision and one evaluation per member, back to back in a
        # single pickup (size == 1 is exactly the seed dispatch).  Each
        # member's remaining budget and admission are evaluated at its
        # *actual* start — the prior members' service time has already
        # eaten into its slack, exactly as the seed loop would see it.
        serve = replica.server.serve_query
        admit = admission.admit
        records: list = []
        started: list = []
        starts: list[float] = []
        services: list[float] = []
        t = now
        for item in batch:
            if t > now and not admit(item, t):
                # The deadline expired while earlier members ran.
                replica.num_in_system -= 1
                _drop_item(table, item, replica, t)
                if bus is not None:
                    bus.on_drop(t)
                continue
            remaining = item.query.latency_constraint_ms - (t - item.arrival_ms)
            effective = (
                remaining
                if remaining > _MIN_EFFECTIVE_LATENCY_MS
                else _MIN_EFFECTIVE_LATENCY_MS
            )
            query = item.query
            floor = query.accuracy_constraint
            if relax > 0.0:
                floor = _relaxed(floor, relax)
            record = QueryRecord(
                query.index,
                floor,
                query.latency_constraint_ms,
                *serve(query, effective, floor),
            )
            service = float(record.served_latency_ms)
            if straggle != 1.0:
                # A straggling replica runs the whole pickup slower; the
                # record keeps the backend's nominal latency, the simulated
                # clock (and busy accounting) carries the scaled time.
                service *= straggle
            records.append(record)
            started.append(item)
            starts.append(t)
            services.append(service)
            t += service
        # The first member is admitted at t == now, so the pickup always
        # serves at least one query; later members may have been shed.
        batch = started
        size = len(batch)
        # Summed (not t - now) so a one-query batch is bit-identical to
        # the seed's per-query busy accounting.
        total = sum(services)
        completion_ms = t
    else:
        # One shared SubNet decision, one accelerator evaluation, at
        # most one cache load for the whole batch; members complete
        # together after the batch evaluation.
        effective_batch = [
            max(
                item.query.latency_constraint_ms - (now - item.arrival_ms),
                _MIN_EFFECTIVE_LATENCY_MS,
            )
            for item in batch
        ]
        queries = [item.query for item in batch]
        floors = [
            _relaxed(q.accuracy_constraint, relax) if relax > 0.0
            else q.accuracy_constraint
            for q in queries
        ]
        records = [
            QueryRecord(q.index, floor, q.latency_constraint_ms, *served)
            for q, floor, served in zip(
                queries, floors, batch_serve(queries, effective_batch, max(floors))
            )
        ]
        total = max(float(r.served_latency_ms) for r in records)
        if straggle != 1.0:
            total *= straggle
        starts = [now] * size
        services = [total] * size
        completion_ms = now + total

    replica.in_service = _InService(
        items=tuple(batch),
        records=tuple(records),
        starts=tuple(starts),
        services=tuple(services),
        total_ms=total,
    )
    replica.busy_until_ms = completion_ms
    replica.stats.num_batches += 1
    if bus is not None:
        # The bus reads each member's item (its first field) for the wait.
        bus.on_pickup(now, ridx, [(item,) for item in batch])
    return completion_ms


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
        engine.autoscaler.begin_run(recorder)
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
    pickups: dict[int, _InService] = {}  # replica index -> pickup in service

    def dispatch(replica, now):
        _dispatch(engine, replica, now, heap, table, pickups)

    while heap:
        event = heap.pop()
        now = event.time_ms
        kind = event.kind
        if kind == EventKind.ARRIVAL:
            engine._run_end_ms = now
            query = event.payload
            item = QueuedQuery(
                query.index, query.accuracy_constraint, query.latency_constraint_ms, now
            )
            for r in engine.replicas:
                assert r.num_in_system == r.queue_length(), (
                    f"{r.name}: count {r.num_in_system} != "
                    f"queue length {r.queue_length()} at t={now}"
                )
            candidates = [r for r in engine.replicas if r.is_routable]
            maintained = engine._routable()
            assert maintained == candidates, (
                f"maintained routable {[r.index for r in maintained]} != "
                f"scan {[r.index for r in candidates]} at t={now}"
            )
            if fi is not None and not candidates:
                engine._shed_arrival(item, now, table)
                continue
            replica = candidates[engine.router.select(candidates, item, now)]
            if bus is not None and replica.index in engine._scaled:
                bus.on_arrival(now)
            if engine._needs_estimates:
                item.service_estimate_ms = float(replica.service_estimator(query))
            replica.enqueue(item)
            if replica.in_service is None:
                dispatch(replica, now)
        elif kind == EventKind.COMPLETION:
            replica = engine.replicas[event.payload]
            if fi is not None and replica.failed:
                continue
            engine._run_end_ms = now
            _complete(engine, replica, table, now, pickups.pop(replica.index))
            dispatch(replica, now)
        elif kind == EventKind.FAULT:
            engine._handle_fault(now, event.payload, heap, table)
        elif kind == EventKind.RECOVERY:
            engine._handle_recovery(now, event.payload, heap, table, dispatch)
        elif kind == EventKind.PROVISIONING:
            engine._finish_provisioning(event.payload)
        else:  # CONTROL
            engine._control(now, heap)


def _dispatch(engine, replica, now, heap, table, pickups):
    bus = None if engine.autoscaler is None else engine.autoscaler.bus
    if bus is not None and replica.index not in engine._scaled:
        bus = None
    sink: list = []
    while True:
        completion_ms = _serve_pickup(
            replica,
            now,
            table,
            admission=engine.admission,
            bus=bus,
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
    # The copied pickup left its _InService on the replica: keep it for the
    # completion, and show the engine's handlers their member list.
    current = pickups[replica.index] = replica.in_service
    replica.in_service = list(
        zip(current.items, current.records, current.starts, current.services)
    )
    replica.in_service_ms = current.total_ms
    heap.push(completion_ms, EventKind.COMPLETION, replica.index)


def _complete(engine, replica, table, now, current):
    if engine.autoscaler is not None and replica.index in engine._scaled:
        engine.autoscaler.bus.on_completion(now, replica.index, current.total_ms)
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
        table.put(item.index, outcome)
        stats.queueing_ms_total += start - item.arrival_ms
    stats.num_served += current.size
    stats.busy_ms += current.total_ms
    replica.num_in_system -= current.size
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
