"""Discrete-event multi-replica serving engine.

One dispatch-time core serves every open-loop scenario and load sweep (the
closed-loop Fig. 15/16 runs are its rho -> 0 limit, served through each
backend's ``serve(trace)``): an event queue advances simulated time, a routing
policy spreads arrivals over N :class:`AcceleratorReplica` instances, each
replica drains its queue under a pluggable discipline, admission control
sheds queries whose deadline already expired, and every dispatch hands the
backend the query's *remaining* latency budget so scheduling and caching
decisions react to real queueing state.

Layering::

    router -> replica queue (discipline + admission) -> replica -> stack
           -> scheduler -> accelerator (+ Persistent Buffer)

An optional autoscaling control plane (:mod:`repro.serving.autoscale`)
rides on CONTROL events: the engine feeds per-event telemetry, a scaling
policy resizes the pool every control interval, and replicas are cloned on
scale-up / drained-then-retired on scale-down, with active-time accounting
per replica (the replica-seconds cost metric).
"""

from repro.serving.engine.admission import (
    AdmissionPolicy,
    AdmitAll,
    DropExpired,
    make_admission,
)
from repro.serving.engine.core import (
    ServingEngine,
    poisson_arrivals,
)
from repro.serving.engine.disciplines import (
    EDFQueue,
    FIFOQueue,
    QueueDiscipline,
    SlackPriorityQueue,
    make_discipline,
)
from repro.serving.engine.events import ArrayEventQueue, EventKind
from repro.serving.engine.faults import FaultInjector
from repro.serving.engine.replica import (
    AcceleratorReplica,
    QueryServer,
    ReplicaStats,
)
from repro.serving.engine.results import (
    DroppedQuery,
    SimulatedQueryOutcome,
    SimulationResult,
)
from repro.serving.engine.routing import (
    FastestExpectedRouter,
    JoinShortestQueueRouter,
    LeastLoadedRouter,
    RoundRobinRouter,
    RoutingPolicy,
    make_router,
)
from repro.serving.query import QueuedQuery

__all__ = [
    "AcceleratorReplica",
    "AdmissionPolicy",
    "ArrayEventQueue",
    "AdmitAll",
    "DropExpired",
    "DroppedQuery",
    "EDFQueue",
    "EventKind",
    "FIFOQueue",
    "FastestExpectedRouter",
    "FaultInjector",
    "JoinShortestQueueRouter",
    "LeastLoadedRouter",
    "QueryServer",
    "QueueDiscipline",
    "QueuedQuery",
    "ReplicaStats",
    "RoundRobinRouter",
    "RoutingPolicy",
    "ServingEngine",
    "SimulatedQueryOutcome",
    "SimulationResult",
    "SlackPriorityQueue",
    "make_admission",
    "make_discipline",
    "make_router",
    "poisson_arrivals",
]
