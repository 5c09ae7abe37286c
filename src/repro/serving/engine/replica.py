"""Accelerator replicas: one serving endpoint each, with its own queue.

An :class:`AcceleratorReplica` wraps any per-query server — a
:class:`~repro.serving.stack.SushiStack` or a baseline server — behind the
engine's dispatch interface.  Each replica owns a queue discipline, its
busy/idle state, its in-system count, and running statistics (served,
dropped, busy time, queueing delay).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol, runtime_checkable

from repro.core.metrics import Served
from repro.serving.engine.disciplines import QueueDiscipline, make_discipline
from repro.serving.query import QueryLike, QueuedQuery


@runtime_checkable
class QueryServer(Protocol):
    """Anything that can serve one query at dispatch time.

    ``serve_query(query, budget_ms, accuracy_floor)`` plans against the
    query's remaining latency budget and its accuracy floor and returns what
    it served.  A backend may also offer ``serve_dispatch_batch(queries,
    budgets_ms, accuracy_floor)``: one shared decision for a pickup, one
    :data:`~repro.core.metrics.Served` tuple per member.  The engine passes
    each query as its :class:`~repro.serving.query.QueuedQuery`, which has a
    :class:`~repro.serving.query.Query`'s fields.  A backend with a
    Persistent Buffer exposes it as ``pb``; the engine reads its byte
    counters once, when it builds the run's result.
    """

    def serve_query(
        self, query: QueryLike, budget_ms: float, accuracy_floor: float
    ) -> Served: ...


InServiceMember = tuple[QueuedQuery, Served, float, float, float]
"""One query of the pickup in service: ``(item, served, start_ms,
service_ms, accuracy_floor)``, the floor being what the backend was given."""


def _constraint_estimate(query: QueryLike) -> float:
    """Default service estimate for servers without ``estimate_service_ms``:
    the query's own latency budget (an upper bound on admissible service)."""
    return query.latency_constraint_ms


@dataclass(slots=True)
class ReplicaStats:
    """Running statistics of one replica over a simulation run."""

    replica_index: int
    name: str
    num_served: int = 0
    num_dropped: int = 0
    num_batches: int = 0
    """Dispatch pickups: ``num_served / num_batches`` is the replica's mean
    batch occupancy (1.0 without batching)."""
    busy_ms: float = 0.0
    queueing_ms_total: float = 0.0
    active_ms: float = 0.0
    """Provisioned time: creation until retirement (or end of run).  The
    unit of the replica-seconds cost metric — a replica costs while it
    exists, busy, idle or still cold-starting."""
    cost_weight: float = 1.0
    """Replica-seconds cost weight of the replica's group (1.0 for
    homogeneous pools): ``active_ms x cost_weight`` is what the replica
    charges against a tier-aware cost budget."""

    @property
    def mean_queueing_ms(self) -> float:
        return self.queueing_ms_total / self.num_served if self.num_served else 0.0

    @property
    def mean_batch_occupancy(self) -> float:
        """Mean queries served per dispatch pickup (1.0 without batching)."""
        return self.num_served / self.num_batches if self.num_batches else 0.0

    def utilization(self, makespan_ms: float) -> float:
        """Fraction of the run the replica spent serving."""
        return self.busy_ms / makespan_ms if makespan_ms > 0 else 0.0


class AcceleratorReplica:
    """One accelerator serving endpoint with its own queue and state.

    Parameters
    ----------
    server:
        The per-query serving backend (``serve_query`` interface).
    discipline:
        Queue discipline name or instance (``fifo`` / ``edf`` /
        ``priority_by_slack``).
    index, name:
        Identity of the replica in engine results.  ``index=None`` (the
        default) means *unassigned*: the :class:`ServingEngine` assigns each
        replica its position at construction time.  Passing an explicit
        index pins it — the engine then rejects a mismatch with its position
        rather than silently misattributing per-replica stats.
    service_estimator:
        Maps a query to an estimated service time (ms), used for slack
        ordering and least-loaded routing.  Defaults to the server's own
        ``estimate_service_ms`` when it has one, else the query's latency
        constraint (a conservative proxy).
    max_batch:
        Maximum queries pulled per dispatch pickup.  ``1`` (the default) is
        the classic one-query-at-a-time dispatch, record-identical to the
        pre-batching engine.
    batch_policy:
        ``shared_subnet`` — the whole batch is served with one shared SubNet
        decision and one accelerator evaluation (weight traffic amortized;
        backends need ``serve_dispatch_batch``, others fall back to
        ``per_query``).  ``per_query`` — members keep their own decisions and
        run back to back within the pickup (amortizes only the dispatch
        overhead).
    cost_weight:
        Replica-seconds cost weight (the group's tier price; 1.0 for
        homogeneous pools), recorded on :class:`ReplicaStats` for weighted
        cost accounting.
    """

    def __init__(
        self,
        server: QueryServer,
        *,
        discipline: str | QueueDiscipline = "fifo",
        index: int | None = None,
        name: str | None = None,
        service_estimator: Callable[[QueryLike], float] | None = None,
        max_batch: int = 1,
        batch_policy: str = "shared_subnet",
        cost_weight: float = 1.0,
    ) -> None:
        if max_batch <= 0:
            raise ValueError(f"max_batch must be positive, got {max_batch}")
        if batch_policy not in ("shared_subnet", "per_query"):
            raise ValueError(
                f"unknown batch_policy {batch_policy!r}; expected "
                "'shared_subnet' or 'per_query'"
            )
        if cost_weight <= 0:
            raise ValueError(f"cost_weight must be positive, got {cost_weight}")
        self.server = server
        self.max_batch = max_batch
        self.batch_policy = batch_policy
        self.cost_weight = cost_weight
        self.queue = make_discipline(discipline)
        self.index = index
        self._explicit_name = name
        self.name = name or f"replica{index if index is not None else '?'}"
        if service_estimator is None:
            estimate = getattr(server, "estimate_service_ms", None)
            # A module-level default (not a lambda) keeps replicas picklable.
            service_estimator = (
                estimate if callable(estimate) else _constraint_estimate
            )
        self.service_estimator = service_estimator
        self.busy_until_ms = 0.0
        self.in_service: list[InServiceMember] | None = None
        """The pickup being served, one ``(item, served, start_ms,
        service_ms, accuracy_floor)`` member per query (``None`` when
        idle).  Under ``shared_subnet`` every member starts at the pickup
        and spans the whole batch evaluation; under ``per_query`` members
        run back to back, so their starts are cumulative."""
        self.in_service_ms = 0.0
        """Busy time of the pickup in service: one evaluation under
        ``shared_subnet``, the members' summed service otherwise."""
        self._queued_work_ms = 0.0
        self.num_in_system = 0
        """Queries waiting or in service: always :meth:`queue_length`, kept
        as a count for the ``jsq`` router.  :meth:`enqueue` adds one and
        :meth:`pop_batch` takes off its sheds; the engine adds a direct
        start and takes off a member's drop, a failed dispatch and a
        completed pickup."""
        self.activated_ms = 0.0
        self.draining = False
        self.provisioning = False
        self.provision_ready_ms: float | None = None
        self.retired_at_ms: float | None = None
        self.failed = False
        self.failed_at_ms: float | None = None
        self.straggle_factor = 1.0
        """Service-time multiplier while a straggle interval is active
        (1.0 = healthy; set and cleared by the fault layer's FAULT/RECOVERY
        events)."""
        self.stats = ReplicaStats(
            replica_index=-1 if index is None else index,
            name=self.name,
            cost_weight=cost_weight,
        )

    def assign_index(self, index: int) -> None:
        """Pin this replica's engine position (called by the engine).

        Updates the default name and the stats identity along with the
        index; an explicitly passed name is preserved.
        """
        self.index = index
        if self._explicit_name is None:
            self.name = f"replica{index}"
        self.stats.replica_index = index
        self.stats.name = self.name

    # ------------------------------------------------------------ queue ops
    def enqueue(self, item: QueuedQuery) -> None:
        self.queue.push(item)
        self._queued_work_ms += item.service_estimate_ms
        self.num_in_system += 1

    def pop_batch(
        self, max_batch: int, *, now_ms: float, admission
    ) -> tuple[list[QueuedQuery], list[QueuedQuery]]:
        """Pull up to ``max_batch`` admissible queries for one dispatch pickup.

        Queries leave the queue in discipline order; each is checked against
        the admission policy at pop time (only then is its actual wait
        known).  Returns ``(admitted, shed)`` — shed queries were popped but
        refused service (their deadline expired).  The engine's one pop
        path: ``max_batch=1`` pulls a pickup of one.
        """
        admitted: list[QueuedQuery] = []
        shed: list[QueuedQuery] = []
        admit = admission.admit
        pop = self.queue.pop
        room = max_batch
        while room > 0:
            item = pop()
            if item is None:
                break
            self._queued_work_ms -= item.service_estimate_ms
            if admit(item, now_ms):
                admitted.append(item)
                room -= 1
            else:
                shed.append(item)
                self.num_in_system -= 1
        return admitted, shed

    # ------------------------------------------------------------ load view
    @property
    def is_busy(self) -> bool:
        return self.in_service is not None

    def queue_length(self) -> int:
        """Waiting queries plus the in-service pickup (what JSQ compares)."""
        current = self.in_service
        return len(self.queue) + (len(current) if current is not None else 0)

    def backlog_ms(self, now_ms: float) -> float:
        """Estimated work in the system: remaining service plus queued work."""
        remaining = max(0.0, self.busy_until_ms - now_ms) if self.is_busy else 0.0
        return remaining + self._queued_work_ms

    # ------------------------------------------------------- scaling lifecycle
    @property
    def is_retired(self) -> bool:
        return self.retired_at_ms is not None

    @property
    def is_routable(self) -> bool:
        """Whether the router may send new arrivals here."""
        return (
            not self.draining
            and not self.is_retired
            and not self.provisioning
            and not self.failed
        )

    def start_provisioning(self, now_ms: float, ready_ms: float) -> None:
        """Begin the cold start: cost accrues now, routing waits for ready.

        Between ``now_ms`` and ``ready_ms`` the replica exists (and is paid
        for) but serves nothing; :meth:`finish_provisioning` hands it to the
        router.  A scale-down during the window cancels it via
        :meth:`retire` — cheapest capacity to shed, it never served.
        """
        self.provisioning = True
        self.provision_ready_ms = ready_ms
        self.activated_ms = now_ms

    def finish_provisioning(self) -> None:
        """The startup delay elapsed: join the routable pool."""
        self.provisioning = False
        self.provision_ready_ms = None

    def start_draining(self) -> None:
        """Stop accepting arrivals; finish the queue, then retire."""
        self.draining = True

    def undrain(self) -> None:
        """Cancel a drain in progress (scale-up reclaims a warm replica)."""
        if self.is_retired:
            raise RuntimeError(f"{self.name} is retired and cannot be reactivated")
        self.draining = False

    def retire(self, now_ms: float) -> None:
        """Leave the pool for good; accrue the final active time.

        Also how a provisioning replica is *cancelled*: retiring before
        ``provision_ready_ms`` charges the cold-start time spent so far and
        leaves the pending hand-over event to find a retired replica.
        """
        if self.is_retired:  # pragma: no cover - engine invariant
            raise RuntimeError(f"{self.name} is already retired")
        self.provisioning = False
        self.provision_ready_ms = None
        self.retired_at_ms = now_ms
        self.stats.active_ms = now_ms - self.activated_ms

    def crash(self, now_ms: float) -> list[QueuedQuery]:
        """The replica dies: every query it held is lost to the caller.

        Returns the lost queries — the in-flight batch first (its pending
        COMPLETION event will find the replica failed and be ignored), then
        the queued backlog in discipline order — for the engine to retry or
        drop.  A crashed replica retires immediately (downtime starts now;
        a draining or provisioning replica that crashes is simply dead, so
        the drain/warm-up is abandoned), which keeps retire-vs-crash races
        deterministic: whichever event processes first wins, the other sees
        a retired replica and stands down.
        """
        lost: list[QueuedQuery] = []
        current = self.in_service
        if current is not None:
            lost.extend(member[0] for member in current)
            self.in_service = None
        pop = self.queue.pop
        while (item := pop()) is not None:
            lost.append(item)
        self._queued_work_ms = 0.0
        self.num_in_system = 0
        self.busy_until_ms = now_ms
        self.failed = True
        self.failed_at_ms = now_ms
        self.straggle_factor = 1.0
        self.draining = False
        if not self.is_retired:
            self.retire(now_ms)
        return lost

    # ------------------------------------------------------------ lifecycle
    def reset(self) -> None:
        """Fresh state for a new run (also resets the wrapped server)."""
        self.queue.clear()
        self._queued_work_ms = 0.0
        self.num_in_system = 0
        self.busy_until_ms = 0.0
        self.in_service = None
        self.in_service_ms = 0.0
        self.activated_ms = 0.0
        self.draining = False
        self.provisioning = False
        self.provision_ready_ms = None
        self.retired_at_ms = None
        self.failed = False
        self.failed_at_ms = None
        self.straggle_factor = 1.0
        self.stats = ReplicaStats(
            replica_index=-1 if self.index is None else self.index,
            name=self.name,
            cost_weight=self.cost_weight,
        )
        reset = getattr(self.server, "reset", None)
        if callable(reset):
            reset()
