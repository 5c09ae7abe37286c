"""Routing policies: which replica an arriving query joins.

* ``round_robin`` — cycle through replicas regardless of state.
* ``jsq`` (join shortest queue) — join the replica with the fewest queries
  in its system (waiting plus in-service); an idle replica always wins, so
  JSQ never queues a query while some replica sits idle.
* ``least_loaded`` — join the replica with the smallest estimated backlog in
  milliseconds (remaining service plus queued work), which beats JSQ when
  service times are heterogeneous.
* ``fastest_expected`` — join the replica with the smallest *expected finish
  time* for this query: backlog plus the query's expected service time on
  that replica, read from its group's latency table at its current cache
  state.  The only router that sees that a small-PB replica serves this
  query slower than a large-PB one, or that a replica's cached SubGraph
  happens to cover the SubNet the query needs.

All ties resolve to the lowest replica index, keeping runs deterministic.
"""

from __future__ import annotations

import abc
from typing import Sequence

from repro.serving.engine.replica import AcceleratorReplica
from repro.serving.query import QueuedQuery


class RoutingPolicy(abc.ABC):
    """Pick the replica an arriving query is routed to."""

    name: str
    needs_service_estimates: bool = False
    """True when routing reads queued-work estimates (engine computes them
    lazily — estimating costs a latency-table lookup per arrival)."""
    sets_service_estimate: bool = False
    """True when :meth:`select` leaves the chosen replica's service
    estimate on the item, so the engine does not estimate it again."""

    @abc.abstractmethod
    def select(
        self,
        replicas: Sequence[AcceleratorReplica],
        item: QueuedQuery,
        now_ms: float,
    ) -> int:
        """Index of the chosen replica."""

    def reset(self) -> None:
        """Clear any routing state between runs."""


class RoundRobinRouter(RoutingPolicy):
    """Cycle through replicas in order."""

    name = "round_robin"

    def __init__(self) -> None:
        self._next = 0

    def select(
        self,
        replicas: Sequence[AcceleratorReplica],
        item: QueuedQuery,
        now_ms: float,
    ) -> int:
        idx = self._next % len(replicas)
        self._next += 1
        return idx

    def reset(self) -> None:
        self._next = 0


class JoinShortestQueueRouter(RoutingPolicy):
    """Join the replica with the fewest queries in its system.

    Reads each replica's maintained ``num_in_system`` count (always its
    ``queue_length()``); ``min`` then ``index`` keep the first, lowest
    index among equal counts.
    """

    name = "jsq"

    def select(
        self,
        replicas: Sequence[AcceleratorReplica],
        item: QueuedQuery,
        now_ms: float,
    ) -> int:
        counts = [replica.num_in_system for replica in replicas]
        return counts.index(min(counts))


class LeastLoadedRouter(RoutingPolicy):
    """Join the replica with the smallest estimated backlog (ms of work)."""

    name = "least_loaded"
    needs_service_estimates = True

    def select(
        self,
        replicas: Sequence[AcceleratorReplica],
        item: QueuedQuery,
        now_ms: float,
    ) -> int:
        return min(
            range(len(replicas)), key=lambda i: (replicas[i].backlog_ms(now_ms), i)
        )


class FastestExpectedRouter(RoutingPolicy):
    """Join the replica expected to *finish* this query soonest.

    The score per replica is its backlog (remaining service plus queued
    work) plus the arriving query's expected service time there, via the
    replica's service estimator — for SUSHI backends a lookup in the
    group's latency table at the replica's current cache state.  This is
    the latency-table-aware router: on heterogeneous pools it sends tight
    queries to the tier that can actually serve them fast, and among equals
    it prefers the replica whose cache already covers the query.
    """

    name = "fastest_expected"
    needs_service_estimates = True
    sets_service_estimate = True

    def select(
        self,
        replicas: Sequence[AcceleratorReplica],
        item: QueuedQuery,
        now_ms: float,
    ) -> int:
        estimates = [float(replica.service_estimator(item)) for replica in replicas]
        best = min(
            range(len(replicas)),
            key=lambda i: (replicas[i].backlog_ms(now_ms) + estimates[i], i),
        )
        item.service_estimate_ms = estimates[best]
        return best


_ROUTERS = {
    RoundRobinRouter.name: RoundRobinRouter,
    JoinShortestQueueRouter.name: JoinShortestQueueRouter,
    LeastLoadedRouter.name: LeastLoadedRouter,
    FastestExpectedRouter.name: FastestExpectedRouter,
}

#: Names of the registered routing policies.
ROUTER_NAMES: tuple[str, ...] = tuple(sorted(_ROUTERS))


def make_router(spec: str | RoutingPolicy) -> RoutingPolicy:
    """Build a routing policy from a name, or pass an instance through."""
    if isinstance(spec, RoutingPolicy):
        return spec
    try:
        return _ROUTERS[spec]()
    except KeyError as exc:
        raise ValueError(
            f"unknown routing policy {spec!r}; available: {sorted(_ROUTERS)}"
        ) from exc
