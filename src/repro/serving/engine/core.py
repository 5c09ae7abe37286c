"""The discrete-event multi-replica serving engine.

One dispatch-time core behind both serving views of the paper's evaluation:

* **Open loop** — queries arrive on a Poisson process, are routed to one of
  N replicas, wait under a queue discipline, and are scheduled *at dispatch
  time*, when the actual arrival order and remaining slack are known.
* **Closed loop** — the paper's Fig. 15/16 serving semantics (the next
  query starts when the previous one completes, zero queueing) is the
  rho → 0 limit of the open loop: one replica whose arrivals are spaced
  beyond its longest service (:func:`~repro.experiments.serving_pool.
  closed_loop_grid`) starts every query at its arrival, with its budget.

The engine is deliberately model-agnostic: a replica's backend is anything
with a ``serve_query`` method, so the SUSHI stack, the paper's baselines and
synthetic test servers all plug in unchanged.

Invariants the rest of the system builds on:

* **Determinism** — the run is a pure function of (replicas, trace,
  arrival timestamps): the event queue breaks timestamp ties by kind
  (completions → arrivals → faults → recoveries → provisioning hand-overs
  → control ticks) and then insertion order, every
  routing/discipline/policy decision is deterministic, fault sampling
  draws from its own seeded generator, and repeated runs (after
  ``reset()``) produce identical records, drops, scaling events and cost
  accounting.
* **Record identity across feature gates** — each optional layer is
  bit-exact inert at its neutral setting: ``autoscaler=None`` matches the
  pre-autoscaling event path, ``max_batch=1`` matches the pre-batching
  dispatch, ``startup_delay_ms=0`` matches the instant-scale-up control
  plane (no PROVISIONING events are ever scheduled), a single scaled
  group with ``cost_weight=1.0`` matches the pre-tier controller, and
  ``faults=None`` keeps every fault hook a dead check (no FAULT/RECOVERY
  event is ever scheduled) so the fault-free paths are untouched.
* **Conservation** — every offered query is exactly once served or
  dropped; draining replicas finish their queues before retiring; retired
  replicas hold no work.  Fault injection preserves this: a crashed
  replica's lost queries re-enter routing through the retry policy or
  drop with the ``failed`` reason, and arrivals with no routable replica
  left drop with the ``shed`` reason.
* **Cost accounting** — a replica accrues ``active_ms`` from creation
  (scale-up request, *including* its cold-start window) to retirement or
  the run's last data-plane event; control ticks and provisioning
  hand-overs never extend the billed duration.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.serving.autoscale.controller import AutoscaleController
from repro.serving.autoscale.policies import GroupStatus
from repro.serving.autoscale.telemetry import (
    ARRIVALS,
    DROPS,
    FAILURES,
    PICKUPS,
    SERVICES,
    TelemetryBus,
)
from repro.serving.engine.admission import AdmissionPolicy, make_admission
from repro.serving.engine.events import ArrayEventQueue, EventKind
from repro.serving.engine.faults import FAILED, SHED
from repro.serving.engine.replica import AcceleratorReplica
from repro.serving.engine.results import (
    ResultTable,
    SimulationResult,
    makespan_ms,
)
from repro.serving.engine.routing import RoutingPolicy, make_router
from repro.serving.query import QueryTrace, QueuedQuery

_MIN_EFFECTIVE_LATENCY_MS = 1e-9
"""Floor for the remaining-slack latency budget passed to schedulers."""

_MIN_ACCURACY_FLOOR = 1e-9
"""Floor for a brownout-relaxed accuracy constraint."""


def poisson_arrivals(
    num_queries: int, rate_per_ms: float, *, rng: np.random.Generator
) -> np.ndarray:
    """Cumulative arrival timestamps (ms) of a Poisson process."""
    if num_queries <= 0:
        raise ValueError("num_queries must be positive")
    if rate_per_ms <= 0:
        raise ValueError("rate_per_ms must be positive")
    gaps = rng.exponential(scale=1.0 / rate_per_ms, size=num_queries)
    return np.cumsum(gaps)


class ServingEngine:
    """Event-driven simulation of N accelerator replicas serving a stream.

    Parameters
    ----------
    replicas:
        The serving endpoints (each owns its queue discipline and backend).
    router:
        Routing policy name or instance (``round_robin`` / ``jsq`` /
        ``least_loaded``) applied at arrival time.
    admission:
        Admission policy name or instance (``admit_all`` / ``drop_expired``)
        applied at dispatch time.
    autoscaler:
        Optional :class:`~repro.serving.autoscale.AutoscaleController`.
        When set, the engine feeds its telemetry bus the events of the
        signals it tracks (:attr:`TelemetryBus.signals`) and fires a
        CONTROL event every control interval: scale-up appends replicas from
        the controller's per-group factories (cold ones provision for the
        group's ``startup_delay_ms`` before joining routing), scale-down
        cancels provisioning replicas first and then drains a serving one
        (it finishes its queue, then retires).  Each
        :class:`~repro.serving.autoscale.ScaledGroup` names its members of
        ``replicas`` by position; the positions must lie in the pool and no
        replica may belong to two groups.  ``None`` keeps the pool fixed
        and the event path bit-identical to the pre-autoscaling engine.
    group_names:
        The replica group name of each of ``replicas``, by position (``None``:
        unnamed), which ``FaultSpec.groups`` scopes fault injection by.  A
        scaled group's positions take that group's name.
    """

    def __init__(
        self,
        replicas: Sequence[AcceleratorReplica],
        *,
        router: str | RoutingPolicy = "round_robin",
        admission: str | AdmissionPolicy = "admit_all",
        autoscaler: AutoscaleController | None = None,
        group_names: Sequence[str | None] | None = None,
    ) -> None:
        if not replicas:
            raise ValueError("the engine needs at least one replica")
        if group_names is not None and len(group_names) != len(replicas):
            raise ValueError(
                f"{len(group_names)} group names for {len(replicas)} replicas"
            )
        self.replicas = list(replicas)
        for i, replica in enumerate(self.replicas):
            if replica.index is None:
                # The engine owns replica identity: unassigned replicas get
                # their position, so callers never hand-number a pool.
                replica.assign_index(i)
            elif replica.index != i:
                # An explicit index that disagrees with the position would
                # misattribute per-replica stats and completion events.
                raise ValueError(
                    f"replica at position {i} was explicitly given index "
                    f"{replica.index}; leave index unset to let the engine "
                    "assign it, or make explicit indices match positions"
                )
        self.router = make_router(router)
        self.admission = make_admission(admission)
        self.autoscaler = autoscaler
        self._initial_membership = self._membership()
        self._initial_group_of = (
            [None] * len(self.replicas) if group_names is None else list(group_names)
        )
        for name, indices in self._initial_membership.items():
            for i in indices:
                self._initial_group_of[i] = name
        # The initial pool is restored on reset() so repeated runs of an
        # autoscaled engine start from the spec's replica groups, not from
        # wherever the previous run's scaling left the pool.
        self._initial_replicas = list(self.replicas)
        self._reset_membership()
        self._needs_estimates = self.router.needs_service_estimates or any(
            r.queue.needs_service_estimates for r in self.replicas
        )
        self._estimate_after_routing = (
            self._needs_estimates and not self.router.sets_service_estimate
        )
        self._run_end_ms = 0.0
        self.recorder = None
        """Optional flight recorder (a duck-typed
        :class:`~repro.serving.obs.TraceRecorder`).  ``None`` — the default
        — keeps every hot loop's hook a dead ``is not None`` check, so an
        unobserved run is bit-identical to a build without observability."""
        self.faults = None
        """Optional fault injector (a
        :class:`~repro.serving.engine.faults.FaultInjector`).  ``None`` —
        the default — schedules no FAULT/RECOVERY event and keeps every
        fault hook a dead check, so a fault-free run is bit-identical to a
        build without fault injection (the same ladder rung contract as
        :attr:`recorder`)."""
        self._failed_pressure = 0
        """Crashed replicas not yet replaced — the brownout pressure
        numerator.  Incremented per crash, decremented when a scale-up
        replica joins routing."""

    def _membership(self) -> dict[str | None, tuple[int, ...]]:
        """``{scaled group name: initial replica positions}``, validated."""
        if self.autoscaler is None:
            return {}
        membership = {g.name: tuple(g.positions) for g in self.autoscaler.groups}
        seen: set[int] = set()
        for indices in membership.values():
            for i in indices:
                if not (0 <= i < len(self.replicas)):
                    raise ValueError(
                        f"scaled replica position {i} outside the initial pool "
                        f"[0, {len(self.replicas)})"
                    )
                if i in seen:
                    raise ValueError(
                        f"replica position {i} belongs to two scaled groups"
                    )
                seen.add(i)
        return membership

    @property
    def num_replicas(self) -> int:
        return len(self.replicas)

    def _routable(self) -> list[AcceleratorReplica]:
        """Replicas the router may choose from (everything, if static).

        Re-derived from the live pool only after a lifecycle transition
        (:meth:`_transition`), in ascending index order — the order of the
        full ``self.replicas`` scan, so router tie-breaks are unchanged.
        Callers must not mutate the returned list.
        """
        if self.autoscaler is None and self.faults is None:
            return self.replicas
        routable = self._routable_cache
        if routable is None:
            routable = self._routable_cache = [r for r in self._live if r.is_routable]
        return routable

    # ----------------------------------------------------------- membership
    def _reset_membership(self) -> None:
        """Membership of the current ``self.replicas``, derived by one scan.

        The engine then keeps it at lifecycle transitions only — scale-up
        creation, provisioning hand-over, drain, undrain, retirement and
        crash — so per-event readers (routing, control ticks, brownout)
        cost O(live pool), not O(replicas ever created):

        * ``_live`` — the non-retired replicas, ascending by index;
        * ``_group_live`` — each scaled group's non-retired replicas, in
          membership order (initial positions, then scale-ups);
        * ``_group_crashes`` — each scaled group's crashed replicas;
        * ``_group_of`` — replica index -> group name, for every replica
          (the initial pool's ``group_names``, then each scale-up's group);
        * ``_scaled`` — the indices of the scaled groups' replicas.
          Telemetry describes only the scaled groups: feeding the bus events
          from static groups would inflate utilization/queue signals with
          load the policy cannot shed, thrashing the controller.
        """
        replicas = self.replicas
        self._group_of = list(self._initial_group_of)
        self._scaled = {
            i for indices in self._initial_membership.values() for i in indices
        }
        self._live = [r for r in replicas if not r.is_retired]
        self._group_live = {
            name: [replicas[i] for i in indices if not replicas[i].is_retired]
            for name, indices in self._initial_membership.items()
        }
        self._group_crashes = {
            name: sum(1 for i in indices if replicas[i].failed)
            for name, indices in self._initial_membership.items()
        }
        self._routable_cache: list[AcceleratorReplica] | None = None

    def _transition(self) -> None:
        """A replica changed routability: re-derive the routable list."""
        self._routable_cache = None

    def _leave(self, replica: AcceleratorReplica) -> None:
        """``replica`` just retired (drained, cancelled or crashed)."""
        self._live.remove(replica)
        if replica.index in self._scaled:
            name = self._group_of[replica.index]
            self._group_live[name].remove(replica)
            if replica.failed:
                self._group_crashes[name] += 1
        self._transition()

    def _finish_provisioning(self, index: int) -> None:
        """PROVISIONING hand-over: the cold replica ``index`` joins routing."""
        replica = self.replicas[index]
        # A scale-down (or a crash) during the cold start retired the
        # replica; its stale hand-over event is a no-op.
        if not replica.is_retired and replica.provisioning:
            replica.finish_provisioning()
            self._transition()
            if self.faults is not None:
                self._on_capacity_joined()

    # ------------------------------------------------------------ lifecycle
    def reset(self) -> None:
        """Fresh replica, router and backend state for a new run.

        Replicas created by a previous run's scale-ups are discarded — a
        provisioning replica pending at the end of one run never leaks into
        the next — and the pool returns to its construction-time
        composition.
        """
        self.replicas = list(self._initial_replicas)
        for replica in self.replicas:
            replica.reset()
        self.router.reset()
        if self.autoscaler is not None:
            self.autoscaler.reset()
        if self.faults is not None:
            self.faults.reset()
        self._failed_pressure = 0
        self._reset_membership()
        self._run_end_ms = 0.0

    # ------------------------------------------------------------- open loop
    def run(
        self,
        trace: QueryTrace,
        arrivals: np.ndarray,
        *,
        arrival_rate_per_ms: float | None = None,
        reset: bool = True,
    ) -> SimulationResult:
        """Simulate ``trace`` with explicit per-query arrival times.

        ``arrivals`` must be finite, >= 0 and non-decreasing (what every
        ``ArrivalSpec.generate`` and trace replay produce): the event clock
        would otherwise run backwards.
        """
        arrivals = np.asarray(arrivals, dtype=np.float64)
        if arrivals.shape != (len(trace),):
            raise ValueError(
                f"arrivals shape {arrivals.shape} does not match trace length "
                f"({len(trace)},)"
            )
        bad = ~np.isfinite(arrivals) | (arrivals < 0.0)
        bad[1:] |= arrivals[1:] < arrivals[:-1]
        if bad.any():
            i = int(bad.argmax())
            raise ValueError(
                f"arrivals[{i}] = {float(arrivals[i])!r}: arrival times must be "
                "finite, >= 0 and non-decreasing"
            )
        if reset:
            self.reset()
        recorder = self.recorder
        if recorder is not None:
            recorder.begin_run((r.index, r.name) for r in self.replicas)
        if self.autoscaler is not None:
            self.autoscaler.begin_run(recorder)
        table = self._simulate(trace, arrivals)
        return self._build_result(table, arrival_rate_per_ms=arrival_rate_per_ms)

    def run_open_loop(
        self,
        trace: QueryTrace,
        *,
        arrival_rate_per_ms: float,
        seed: int = 0,
        reset: bool = True,
    ) -> SimulationResult:
        """Simulate ``trace`` arriving on a Poisson process (queries/ms)."""
        rng = np.random.default_rng(seed)
        arrivals = poisson_arrivals(len(trace), arrival_rate_per_ms, rng=rng)
        return self.run(
            trace, arrivals, arrival_rate_per_ms=arrival_rate_per_ms, reset=reset
        )

    # ------------------------------------------------------------ event loop
    def _simulate(self, trace: QueryTrace, arrivals: np.ndarray) -> ResultTable:
        """Process every event of one run; every query's row in one table.

        The one event loop, for every pool: static or autoscaled, with or
        without fault injection, any ``max_batch``.  Events come from an
        :class:`ArrayEventQueue` (arrivals never become objects; each query
        becomes one :class:`QueuedQuery`, built from the trace's columns when
        it arrives, which routing, the queue, admission, the backend and
        every retry share).  The optional
        layers — autoscaler telemetry, fault injection, the flight recorder
        — are hoisted to locals, so a fixed pool pays one ``is not None``
        check per hook.

        Every dispatch is a pickup: ``dispatch`` pulls up to ``max_batch``
        admissible queries through :meth:`AcceleratorReplica.pop_batch`
        (admission at pop, when each query's actual wait is known; sheds are
        written as ``deadline_expired`` drops) and ``start`` serves them as
        one unit.  A single query is a pickup of one, and an idle replica
        with an empty queue serves an admitted arrival directly as one,
        skipping the enqueue/pop round-trip.  ``start`` serves a pickup in
        one of two ways:

        * **shared SubNet** (``shared_subnet`` with more than one member and
          a backend with ``serve_dispatch_batch``): one shared SubNet
          decision, one accelerator evaluation and at most one cache load
          for the whole batch; every member starts at the pickup and spans
          the batch's evaluation, so they complete together.
        * **members back to back** (``per_query``, a backend without
          ``serve_dispatch_batch``, and every pickup of one): each member
          gets its own decision.  Its remaining budget and its admission
          are evaluated at its *actual* start, since the prior members'
          service has already eaten into its slack; a member whose
          deadline expired while earlier ones ran is shed there.  The
          first member starts at the pickup, so a pickup serves at least
          one query.  The pickup's busy time is the *sum* of the members'
          services, not ``t - now``, which rounds: a pickup of one is busy
          for exactly its service, as the single-query dispatch always was.

        With fault injection each pickup draws one Bernoulli transient
        failure.  A failed pickup errors before any work starts: every
        member enters the retry path and the healthy replica pulls its next
        pickup, so queued work never starves.  A straggling replica runs
        the whole pickup ``straggle_factor`` times slower; records keep the
        backend's nominal ``served_latency_ms``, while outcomes, busy
        accounting and the simulated clock carry the scaled time.  Under
        brownout the backend schedules each member against its accuracy
        floor lowered by the injector's ``accuracy_relax`` (never below
        :data:`_MIN_ACCURACY_FLOOR`), steering dispatch toward smaller
        SubNets while capacity is lost.

        Backends take numbers — the remaining budget and the accuracy floor
        — and return a :data:`~repro.core.metrics.Served` tuple per member;
        the engine writes it into the member's row with what it already
        knows (the row, the floor it passed, the nominal latency), so no
        record object is built.  The pickup in service is
        ``replica.in_service``, a list of ``(item, served, start_ms,
        service_ms, accuracy_floor)`` members, with its busy time in
        ``replica.in_service_ms``.  Its one COMPLETION event writes every
        member's row.  Each replica's ``num_in_system`` (what ``jsq``
        routes on) follows every query into and out of its system.  The
        test suite holds this loop against an Event-heap reference loop that
        keeps its own copy of the previous engine's batched pickup.

        Each query's row of the :class:`ResultTable` (its arrival position)
        is written once: at its completion, or where it is dropped.  No
        outcome object is built, traced or not: a flight recorder reads its
        query spans from the table (:meth:`ResultTable.spans`).
        """
        table = ResultTable(len(arrivals))
        write_served = table.serve
        write_drop = table.drop
        replicas = self.replicas  # scale-ups append to this very list
        ctl = self.autoscaler
        # The bus is fed only the signals it tracks: one hoisted feed per
        # hook, None when no reader needs that hook's events.
        arrival_bus = self._feed(ARRIVALS)
        pickup_bus = self._feed(PICKUPS) or self._feed(SERVICES)
        completion_bus = self._feed(SERVICES)
        drop_bus = self._feed(DROPS)
        fi = self.faults
        recorder = self.recorder
        scalable = self._scaled
        routable = None if ctl is None and fi is None else self._routable
        router_select = self.router.select
        admission = self.admission
        admit = admission.admit
        retry_or_fail = self._retry_or_fail
        min_eff = _MIN_EFFECTIVE_LATENCY_MS
        min_floor = _MIN_ACCURACY_FLOOR
        needs_estimates = self._needs_estimates
        estimate_after_routing = self._estimate_after_routing
        # Direct serve is gated off when service estimates ride on the
        # items: the estimate's float would otherwise enter and leave the
        # discipline's queued-work accumulator, whose exact bits load-aware
        # routers read on later arrivals.
        direct_serve = not needs_estimates
        acc_col, lat_col = trace.columns()
        ARRIVAL, COMPLETION, FAULT, RECOVERY, PROVISIONING = (
            int(EventKind.ARRIVAL),
            int(EventKind.COMPLETION),
            int(EventKind.FAULT),
            int(EventKind.RECOVERY),
            int(EventKind.PROVISIONING),
        )
        queue = ArrayEventQueue(arrivals.tolist())
        push = queue.push
        if ctl is not None:
            push(ctl.control_interval_ms, EventKind.CONTROL, None)
        if fi is not None:
            self._arm_faults(arrivals, push)

        def drop(item: QueuedQuery, replica: AcceleratorReplica, now: float) -> None:
            # Admission shed ``item`` at dispatch on ``replica``.
            replica.stats.num_dropped += 1
            write_drop(
                item.index, item.arrival_ms, now,
                item.latency_constraint_ms, replica.index, "deadline_expired",
            )
            if drop_bus is not None and replica.index in scalable:
                drop_bus.on_drop(now)

        def start(
            replica: AcceleratorReplica, batch: list[QueuedQuery], now: float
        ) -> bool:
            # Start serving an admitted pickup: False when the dispatch
            # failed transiently (every member went to the retry path and
            # the replica stays idle).
            straggle = 1.0
            relax = 0.0
            if fi is not None:
                if fi.dispatch_fails():
                    if recorder is not None:
                        recorder.on_fault(now, "dispatch_failure", replica.index)
                    replica.num_in_system -= len(batch)
                    for item in batch:
                        retry_or_fail(item, replica, now, queue, table)
                    return False
                straggle = replica.straggle_factor
                relax = fi.accuracy_relax
            if (
                len(batch) > 1
                and replica.batch_policy == "shared_subnet"
                and (
                    batch_serve := getattr(replica.server, "serve_dispatch_batch", None)
                )
                is not None
            ):
                floors = [item.accuracy_constraint for item in batch]
                if relax > 0.0:
                    floors = [max(a - relax, min_floor) for a in floors]
                served = batch_serve(
                    batch,
                    [
                        max(item.latency_constraint_ms - (now - item.arrival_ms), min_eff)
                        for item in batch
                    ],
                    max(floors),
                )
                total = max([member[2] for member in served])
                if straggle != 1.0:
                    total *= straggle
                members = [
                    (item, member, now, total, floor)
                    for item, member, floor in zip(batch, served, floors)
                ]
                t = now + total
            else:
                serve = replica.server.serve_query
                members = []
                t = now
                for item in batch:
                    if t > now and not admit(item, t):
                        replica.num_in_system -= 1
                        drop(item, replica, t)
                        continue
                    remaining = item.latency_constraint_ms - (t - item.arrival_ms)
                    floor = item.accuracy_constraint
                    if relax > 0.0:
                        floor = max(floor - relax, min_floor)
                    served = serve(
                        item, remaining if remaining > min_eff else min_eff, floor
                    )
                    service = served[2]
                    if straggle != 1.0:
                        service *= straggle
                    members.append((item, served, t, service, floor))
                    t += service
                # ``service`` is the last served member's.
                total = (
                    service
                    if len(members) == 1
                    else sum([member[3] for member in members])
                )
            replica.in_service = members
            replica.in_service_ms = total
            replica.busy_until_ms = t
            replica.stats.num_batches += 1
            ridx = replica.index
            if pickup_bus is not None and ridx in scalable:
                pickup_bus.on_pickup(now, ridx, members)
            push(t, COMPLETION, replica)
            return True

        def dispatch(replica: AcceleratorReplica, now: float) -> None:
            # The replica is idle: start its next admissible pickup, if any.
            pop_batch = replica.pop_batch
            while True:
                batch, shed = pop_batch(replica.max_batch, now_ms=now, admission=admission)
                for item in shed:
                    drop(item, replica, now)
                if not batch:
                    break
                if start(replica, batch, now):
                    return
            # A draining replica with nothing left to serve leaves the pool
            # here — the natural end of its drain.
            if ctl is not None and replica.draining:
                self._maybe_retire(replica, now)

        run_end = self._run_end_ms
        for now, kind, payload in queue:
            if kind == ARRIVAL:
                # Only data-plane events define the run's duration: a
                # trailing control tick (or provisioning hand-over) after
                # the last completion must not inflate the cost accounting
                # relative to a static run of the same trace.  The payload
                # is the arrival index: the query's index and result row.
                run_end = now
                item = QueuedQuery(payload, acc_col[payload], lat_col[payload], now)
                if routable is None:
                    candidates = replicas
                else:
                    # The routable list, re-derived only after a transition.
                    candidates = self._routable_cache
                    if candidates is None:
                        candidates = routable()
                    if fi is not None and not candidates:
                        # Every replica crashed (and no replacement is
                        # serving yet): the arrival has nowhere to go.
                        self._shed_arrival(item, now, table)
                        continue
                replica = candidates[router_select(candidates, item, now)]
                if arrival_bus is not None and replica.index in scalable:
                    arrival_bus.on_arrival(now)
                if direct_serve and replica.in_service is None and not len(replica.queue):
                    if admit(item, now):
                        replica.num_in_system += 1
                        start(replica, [item], now)
                    else:
                        drop(item, replica, now)
                    continue
                if estimate_after_routing:
                    # The estimate is replica-specific (it consults the
                    # backend's cache state), so it is attached after
                    # routing — and only when a discipline or router will
                    # read it, since it costs a table lookup per arrival.
                    # A router that estimates every candidate has already
                    # left the winner's estimate on the item.
                    item.service_estimate_ms = float(replica.service_estimator(item))
                replica.enqueue(item)
                if replica.in_service is None:
                    dispatch(replica, now)
            elif kind == COMPLETION:
                replica = payload
                if fi is not None and replica.failed:
                    # The crash already swept this pickup into the retry
                    # path; its COMPLETION is stale and defines nothing
                    # (not even the run end — the work never finished).
                    continue
                run_end = now
                ridx = replica.index
                members = replica.in_service
                total = replica.in_service_ms
                if completion_bus is not None and ridx in scalable:
                    # One completion per pickup: the bus pairs it with the
                    # dispatch start, so windowed busy time stays exact.
                    completion_bus.on_completion(now, ridx, total)
                size = len(members)
                replica.num_in_system -= size
                stats = replica.stats
                for item, served, start_ms, service, floor in members:
                    write_served(
                        item.index, item.arrival_ms, start_ms, service,
                        item.latency_constraint_ms, ridx, size, floor, served,
                    )
                    stats.queueing_ms_total += start_ms - item.arrival_ms
                stats.num_served += size
                stats.busy_ms += total
                replica.in_service = None
                # Popping an empty queue is a guaranteed no-op; one len()
                # dodges that call chain on every idle completion.
                if len(replica.queue):
                    dispatch(replica, now)
                elif ctl is not None and replica.draining:
                    self._maybe_retire(replica, now)
            elif kind == FAULT:
                self._handle_fault(now, payload, queue, table)
            elif kind == RECOVERY:
                self._handle_recovery(now, payload, queue, table, dispatch)
            elif kind == PROVISIONING:
                self._finish_provisioning(payload)
            else:  # CONTROL
                self._control(now, queue)
        self._run_end_ms = run_end
        return table

    # --------------------------------------------------------- control plane
    def _control(self, now: float, queue: ArrayEventQueue) -> None:
        """One autoscaler tick: snapshot the pool, enact the policy's delta."""
        ctl = self.autoscaler
        # All signals describe the scaled groups only (matching the event
        # feed); draining replicas still serve their queues, so they count
        # toward the utilization capacity but not toward the policy's
        # notion of the pool size; provisioning replicas cannot serve and
        # are excluded from the capacity denominator.  One pass over each
        # group's live list gathers every count.
        spec = ctl.spec
        statuses: list[GroupStatus] = []
        total_active = total_provisioning = total_draining = 0
        total_depth = total_failed = 0
        for group in ctl.groups:
            active = provisioning = draining = depth = 0
            for r in self._group_live[group.name]:
                if r.provisioning:
                    provisioning += 1
                elif not r.draining:
                    active += 1
                if r.draining:
                    draining += 1
                depth += r.num_in_system  # == r.queue_length(), kept by the engine
            # Crashed replicas left the pool (crash retires), so num_active
            # already excludes them: the min_replicas clamp is what lifts
            # `desired` back up and provisions the replacement.  The failed
            # count is telemetry.
            failed = self._group_crashes[group.name]
            statuses.append(
                GroupStatus(
                    name=group.name,
                    cost_weight=group.cost_weight,
                    startup_delay_ms=group.startup_delay_ms,
                    min_replicas=spec.min_replicas,
                    max_replicas=spec.max_replicas,
                    num_active=active,
                    num_provisioning=provisioning,
                    num_draining=draining,
                    queue_depth=depth,
                    num_failed=failed,
                )
            )
            total_active += active
            total_provisioning += provisioning
            total_draining += draining
            total_depth += depth
            total_failed += failed
        snapshot = ctl.bus.snapshot(
            now,
            num_active=total_active,
            num_draining=total_draining,
            queue_depth=total_depth,
            capacity_replicas=total_active + total_draining,
            num_provisioning=total_provisioning,
            num_failed_replicas=total_failed,
        )
        desired_map = ctl.decide_pool(snapshot, statuses)
        for group, status in zip(ctl.groups, statuses):
            desired = desired_map[group.name]
            if desired != status.num_incoming:  # a holding group has nothing to enact
                self._resize_group(group, status, desired, now, queue)
        # Keep ticking while the simulation still has work in flight; once
        # the queue is empty and every replica is drained the run is over
        # and the control loop stops with it.  Sampled faults still to come
        # count as work: the fault plane pushes a replica's straggles one at
        # a time and drops a dead replica's rest, so ``tail_ms`` keeps the
        # ticks running until the last sampled fault time, as when every
        # sampled event sat in the queue.
        fi = self.faults
        if (
            (fi is not None and fi.tail_ms > now)
            or queue
            or any(r.is_busy or len(r.queue) for r in self._live)
        ):
            queue.push(now + ctl.control_interval_ms, EventKind.CONTROL, None)

    def _resize_group(
        self,
        group,
        status: GroupStatus,
        desired: int,
        now: float,
        queue: ArrayEventQueue,
    ) -> None:
        """Enact one group's desired-size delta against its incoming count.

        Every loop below walks a copy: the group's live list itself changes
        as replicas are created and retired.
        """
        pool = self._group_live[group.name]
        incoming = status.num_incoming
        if desired > incoming:
            # Reclaim draining replicas first (their Persistent Buffers are
            # still warm and they serve instantly), newest drain first; then
            # clone fresh replicas, which provision for the group's
            # startup delay before joining routing.
            needed = desired - incoming
            for replica in reversed([r for r in pool if r.draining]):
                if needed == 0:
                    break
                replica.undrain()
                self._transition()
                needed -= 1
            recorder = self.recorder
            fi = self.faults
            for _ in range(needed):
                index = len(self.replicas)
                replica = group.replica_factory(index)
                replica.assign_index(index)
                replica.activated_ms = now
                if recorder is not None:
                    recorder.on_replica_created(index, replica.name, now)
                if group.startup_delay_ms > 0:
                    replica.start_provisioning(now, now + group.startup_delay_ms)
                    if recorder is not None:
                        recorder.on_provisioning(
                            index, now, now + group.startup_delay_ms
                        )
                    queue.push(
                        now + group.startup_delay_ms, EventKind.PROVISIONING, index
                    )
                self.replicas.append(replica)
                self._live.append(replica)
                pool.append(replica)
                self._group_of.append(group.name)
                self._scaled.add(index)
                self._transition()
                if fi is not None:
                    if fi.covers_group(group.name):
                        # The replacement lives under the same fault
                        # processes as the replica it replaces; its crash
                        # clock starts at its own creation.
                        fi.schedule_replica(index, now, queue.push)
                    if group.startup_delay_ms <= 0:
                        # No cold start: the replica joined routing above,
                        # so failure pressure eases immediately (a delayed
                        # one eases at its PROVISIONING hand-over).
                        self._on_capacity_joined()
        elif desired < incoming:
            # Cancel provisioning replicas first (they never served — the
            # cheapest capacity to shed), newest request first; then drain
            # serving replicas from the end of the pool, keeping the
            # long-lived (warm) ones serving.
            excess = incoming - desired
            recorder = self.recorder
            for replica in reversed([r for r in pool if r.provisioning]):
                if excess == 0:
                    break
                replica.retire(now)
                self._leave(replica)
                if recorder is not None:
                    recorder.on_provisioning_cancelled(replica.index, now)
                    recorder.on_replica_retired(replica.index, now)
                excess -= 1
            # The provisioning replicas cancelled just above already left
            # the live list.
            active = [r for r in pool if not r.draining and not r.provisioning]
            for replica in reversed(active[len(active) - excess:]):
                replica.start_draining()
                self._transition()
                self._maybe_retire(replica, now)

    def _maybe_retire(self, replica: AcceleratorReplica, now: float) -> None:
        """Retire a draining replica once it is idle with an empty queue."""
        if replica.draining and not replica.is_busy and not len(replica.queue):
            replica.retire(now)
            self._leave(replica)
            if self.recorder is not None:
                self.recorder.on_replica_retired(replica.index, now)

    # ------------------------------------------------------------ fault plane
    def _arm_faults(self, arrivals: np.ndarray, push) -> None:
        """Sample and schedule the fault processes for the initial pool.

        Runs once per ``run()``, in replica-index order, before the first
        event pops — the injector's draw sequence is a pure function of the
        pool composition, so repeated runs replay the same faults.
        """
        fi = self.faults
        fi.horizon_ms = float(arrivals[-1]) if len(arrivals) else 0.0
        for index, name in enumerate(self._group_of):
            if fi.covers_group(name):
                fi.schedule_replica(index, 0.0, push)

    def _handle_fault(
        self,
        now: float,
        payload,
        queue: ArrayEventQueue,
        table: ResultTable,
    ) -> None:
        """One FAULT event: a replica crash or a straggle onset."""
        fi = self.faults
        tag = payload[0]
        replica = self.replicas[payload[1]]
        if tag == "straggle":
            # A retired/crashed replica picks nothing up, so a stale
            # straggle onset is inert either way; skipping it keeps the
            # factor from leaking into a later pool state, and the rest of
            # its sampled straggles are dropped unplayed.
            if not replica.is_retired and not replica.failed:
                replica.straggle_factor = payload[2]
                if self.recorder is not None:
                    self.recorder.on_fault(
                        now, "straggle", replica.index, detail=payload[2]
                    )
                fi.straggle_began(replica.index, queue.push)
            else:
                fi.forget(replica.index)
            return
        # tag == "crash"
        if replica.is_retired or replica.failed:
            # Already drained away by a scale-down (or double event):
            # whichever of retire and crash processed first won, the loser
            # sees a retired replica and no-ops — deterministically.
            return
        lost = replica.crash(now)
        self._leave(replica)
        fi.on_crash()
        self._failed_pressure += 1
        if self.recorder is not None:
            self.recorder.on_fault(now, "crash", replica.index)
            self.recorder.on_replica_retired(replica.index, now)
        bus = self._feed(FAILURES)
        if bus is not None and replica.index in self._scaled:
            bus.on_failure(now)
        for item in lost:
            self._retry_or_fail(item, replica, now, queue, table)
        fi.update_brownout(self._failed_pressure, len(self._routable()))

    def _handle_recovery(
        self,
        now: float,
        payload,
        queue: ArrayEventQueue,
        table: ResultTable,
        dispatch: Callable[[AcceleratorReplica, float], None],
    ) -> None:
        """One RECOVERY event: a straggle interval ends, or a retry fires.

        ``dispatch`` starts an idle replica's next pickup (the event loop's
        dispatch routine).
        """
        if payload[0] == "straggle_end":
            replica = self.replicas[payload[1]]
            if not replica.is_retired and not replica.failed:
                replica.straggle_factor = 1.0
                if self.recorder is not None:
                    self.recorder.on_fault(now, "straggle_end", replica.index)
                self.faults.straggle_ended(replica.index, queue.push)
            else:
                self.faults.forget(replica.index)
            return
        # ("retry", item): the backed-off query re-enters routing as the
        # same item.  Its arrival_ms (and deadline) stay original — a retry
        # buys another attempt, not more slack — and it does not feed
        # bus.on_arrival: demand telemetry counted it when it first arrived.
        item = payload[1]
        candidates = self._routable()
        bus = self._feed(DROPS)
        if not candidates:
            table.drop(
                item.index, item.arrival_ms, now, item.latency_constraint_ms, -1, FAILED
            )
            if bus is not None:
                bus.on_drop(now)
            return
        ridx = self.router.select(candidates, item, now)
        replica = candidates[ridx]
        if self._estimate_after_routing:
            item.service_estimate_ms = float(replica.service_estimator(item))
        replica.enqueue(item)
        if replica.in_service is None:
            dispatch(replica, now)

    def _retry_or_fail(
        self,
        item: QueuedQuery,
        replica: AcceleratorReplica,
        now: float,
        queue: ArrayEventQueue,
        table: ResultTable,
    ) -> None:
        """Back off a lost query for a retry, or fail it for good."""
        retry_ms = self.faults.next_retry_ms(item, now)
        if retry_ms is None:
            replica.stats.num_dropped += 1
            table.drop(
                item.index, item.arrival_ms, now, item.latency_constraint_ms,
                replica.index, FAILED,
            )
            bus = self._feed(DROPS)
            if bus is not None and replica.index in self._scaled:
                bus.on_drop(now)
        else:
            queue.push(retry_ms, EventKind.RECOVERY, ("retry", item))

    def _shed_arrival(self, item: QueuedQuery, now: float, table: ResultTable) -> None:
        """Drop an arrival that found no routable replica (fault mode only).

        The demand still feeds the telemetry bus — arrivals shed because
        the whole pool crashed are exactly the signal the self-healing
        controller must see to provision replacements.
        """
        table.drop(
            item.index, item.arrival_ms, now, item.latency_constraint_ms, -1, SHED
        )
        bus = self._feed(ARRIVALS)
        if bus is not None:
            bus.on_arrival(now)
        bus = self._feed(DROPS)
        if bus is not None:
            bus.on_drop(now)

    def _feed(self, signal: str) -> TelemetryBus | None:
        """The autoscaler's bus if it tracks ``signal``; else None (the
        engine feeds that signal's events to nobody)."""
        ctl = self.autoscaler
        if ctl is None or signal not in ctl.bus.signals:
            return None
        return ctl.bus

    def _on_capacity_joined(self) -> None:
        """A scale-up replica joined routing: failure pressure eases."""
        if self._failed_pressure > 0:
            self._failed_pressure -= 1
        self.faults.update_brownout(self._failed_pressure, len(self._routable()))

    def _build_result(
        self,
        table: ResultTable,
        *,
        arrival_rate_per_ms: float | None = None,
    ) -> SimulationResult:
        outcomes, dropped = table.views()
        makespan = makespan_ms(outcomes)
        duration = max(self._run_end_ms, makespan)
        # Per-replica provisioned time: live replicas accrue until the last
        # data-plane event; a retirement decided on a control tick *after*
        # that is capped at the duration, so autoscaled and static runs of
        # the same trace are charged over the same clock.
        pb_hit_bytes = pb_weight_bytes = 0
        for replica in self.replicas:
            end = duration
            if replica.is_retired:
                end = min(replica.retired_at_ms, duration)
            replica.stats.active_ms = max(0.0, end - replica.activated_ms)
            pb = getattr(replica.server, "pb", None)
            if pb is not None:
                pb_hit_bytes += pb.stats.hit_bytes_total
                pb_weight_bytes += pb.stats.served_weight_bytes_total
        mean_active = (
            sum(r.stats.active_ms for r in self.replicas) / duration
            if duration > 0
            else float(self.num_replicas)
        )
        if arrival_rate_per_ms is not None and len(outcomes):
            mean_service = float(np.mean(outcomes.column("service_ms")))
            # rho against the capacity actually provisioned: the static
            # replica count, or the time-weighted mean pool size when the
            # run was autoscaled.
            capacity = (
                self.num_replicas
                if self.autoscaler is None
                else max(mean_active, 1e-12)
            )
            offered_load = arrival_rate_per_ms * mean_service / capacity
        else:
            offered_load = 0.0
        throughput = len(outcomes) / makespan if makespan > 0 else 0.0
        if self.autoscaler is None:
            report = None
        else:
            final_by_group = tuple(
                (name, sum(1 for r in pool if not r.draining and not r.provisioning))
                for name, pool in self._group_live.items()
            )
            report = self.autoscaler.report(
                final_replicas=sum(n for _, n in final_by_group),
                final_by_group=final_by_group,
            )
        trace = None
        if self.recorder is not None:
            trace = self.recorder.finish(
                spans=table.spans(),
                duration_ms=duration,
                scaling_events=() if report is None else report.events,
            )
        metrics = ()
        if self.autoscaler is not None and self.autoscaler.keep_metrics:
            metrics = tuple(self.autoscaler.metrics_history)
        return SimulationResult(
            outcomes=outcomes,
            offered_load=offered_load,
            dropped=dropped,
            replica_stats=tuple(r.stats for r in self.replicas),
            achieved_throughput_per_ms=throughput,
            duration_ms=duration,
            autoscale=report,
            trace=trace,
            metrics=metrics,
            num_crashes=0 if self.faults is None else self.faults.num_crashes,
            pb_hit_bytes=pb_hit_bytes,
            pb_weight_bytes=pb_weight_bytes,
        )

