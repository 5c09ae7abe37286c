"""Engine results: per-query outcomes, drops, and run-level aggregates.

These generalize the original single-server simulator's result types to N
replicas and admission control: an outcome knows which replica served it and
carries the full :class:`~repro.core.metrics.QueryRecord`; a run additionally
accounts for shed queries and exposes offered load, achieved throughput, and
per-replica statistics — the numbers that make overload runs interpretable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.metrics import QueryRecord
from repro.serving.autoscale.controller import AutoscaleReport
from repro.serving.autoscale.telemetry import MetricsSnapshot
from repro.serving.engine.replica import ReplicaStats
from repro.serving.obs.recorder import RecordedTrace


@dataclass(frozen=True)
class SimulatedQueryOutcome:  # repro-lint: disable=RPR002 -- _simulate stamps outcome.__dict__; slots=True would remove the __dict__ the single-query completion fills
    """Timing of one served query in the simulation (all in ms)."""

    query_index: int
    arrival_ms: float
    start_ms: float
    service_ms: float
    latency_constraint_ms: float
    served_accuracy: float
    replica_index: int = 0
    record: QueryRecord | None = None
    """The full serving record, when the backend produced one."""
    batch_size: int = 1
    """Size of the dispatch pickup this query was served in (1 when the
    engine runs without batching)."""

    @property
    def completion_ms(self) -> float:
        return self.start_ms + self.service_ms

    @property
    def queueing_ms(self) -> float:
        return self.start_ms - self.arrival_ms

    @property
    def response_ms(self) -> float:
        """Queueing delay plus service time — what the SLO is judged against."""
        return self.completion_ms - self.arrival_ms

    @property
    def meets_slo(self) -> bool:
        return self.response_ms <= self.latency_constraint_ms


@dataclass(frozen=True, slots=True)
class DroppedQuery:
    """A query dropped instead of served.

    ``reason`` says why: ``deadline_expired`` (admission control shed it at
    dispatch), ``failed`` (the fault layer gave up after a crash or
    transient dispatch failure), or ``shed`` (no routable replica existed
    when it arrived).  ``replica_index`` is the replica the drop is charged
    to, or ``-1`` when no replica was involved (a pool-wide shed, or a
    retry that found the pool empty).
    """

    query_index: int
    arrival_ms: float
    dropped_at_ms: float
    latency_constraint_ms: float
    replica_index: int
    reason: str = "deadline_expired"

    @property
    def waited_ms(self) -> float:
        return self.dropped_at_ms - self.arrival_ms


@dataclass(frozen=True, slots=True)
class SimulationResult:
    """Aggregate outcome of one simulation run.

    ``slo_attainment`` counts dropped queries as SLO violations, so the
    denominator is everything that was *offered*, not just what was served;
    the response-time statistics describe served queries only.
    """

    outcomes: tuple[SimulatedQueryOutcome, ...]
    offered_load: float
    """Mean arrival rate x mean service time / replicas (rho); > 1 is overload.

    The mean service time is estimated from the queries actually *served*,
    so under admission shedding or dispatch-time adaptation (which steer
    overloaded runs toward faster SubNets) this understates the nominal
    demand — compare cells together with ``drop_rate`` and
    ``achieved_throughput_per_ms`` when reading overload sweeps.
    """
    dropped: tuple[DroppedQuery, ...] = ()
    replica_stats: tuple[ReplicaStats, ...] = ()
    achieved_throughput_per_ms: float = 0.0
    """Served queries per ms of makespan (the goodput actually delivered)."""
    duration_ms: float = 0.0
    """Simulated run length (time of the last processed event)."""
    autoscale: AutoscaleReport | None = None
    """Control-plane summary when the run was autoscaled (None otherwise)."""
    trace: RecordedTrace | None = None
    """Flight-recorder trace when the run was observed (None otherwise)."""
    metrics: tuple[MetricsSnapshot, ...] = ()
    """Per-control-tick telemetry snapshots when ``ObservabilitySpec``
    asked to keep them (empty otherwise)."""
    num_crashes: int = 0
    """Replica crashes injected during the run (0 without fault injection)."""

    @property
    def num_served(self) -> int:
        return len(self.outcomes)

    @property
    def num_dropped(self) -> int:
        return len(self.dropped)

    @property
    def drop_reasons(self) -> dict[str, int]:
        """Dropped-query counts keyed by drop reason.

        ``deadline_expired`` is admission shedding; ``failed`` is the fault
        layer giving up on a query (retry budget or deadline slack
        exhausted); ``shed`` is an arrival that found no routable replica.
        """
        counts: dict[str, int] = {}
        for d in self.dropped:
            counts[d.reason] = counts.get(d.reason, 0) + 1
        return counts

    @property
    def num_offered(self) -> int:
        return self.num_served + self.num_dropped

    @property
    def drop_rate(self) -> float:
        return self.num_dropped / self.num_offered if self.num_offered else 0.0

    @property
    def slo_attainment(self) -> float:
        if not self.num_offered:
            return 0.0
        met = sum(o.meets_slo for o in self.outcomes)
        return met / self.num_offered

    @property
    def mean_response_ms(self) -> float:
        if not self.outcomes:
            return 0.0
        return float(np.mean([o.response_ms for o in self.outcomes]))

    @property
    def p99_response_ms(self) -> float:
        if not self.outcomes:
            return 0.0
        return float(np.percentile([o.response_ms for o in self.outcomes], 99))

    @property
    def mean_queueing_ms(self) -> float:
        if not self.outcomes:
            return 0.0
        return float(np.mean([o.queueing_ms for o in self.outcomes]))

    @property
    def goodput_per_ms(self) -> float:
        """Queries served *within their SLO* per ms of run — what batched
        dispatch trades per-query latency for."""
        if self.duration_ms <= 0:
            return 0.0
        return sum(o.meets_slo for o in self.outcomes) / self.duration_ms

    @property
    def num_batches(self) -> int:
        """Dispatch pickups across the run (each served 1..B queries)."""
        # Each pickup of size b contributes b outcomes of batch_size b, so
        # the 1/b shares sum back to one per pickup.
        if not self.outcomes:
            return 0
        return round(sum(1.0 / o.batch_size for o in self.outcomes))

    @property
    def mean_batch_occupancy(self) -> float:
        """Mean queries served per dispatch pickup (1.0 without batching)."""
        batches = self.num_batches
        return self.num_served / batches if batches else 0.0

    @property
    def mean_accuracy(self) -> float:
        if not self.outcomes:
            return 0.0
        return float(np.mean([o.served_accuracy for o in self.outcomes]))

    # ------------------------------------------------------------------ cost
    @property
    def total_replica_active_ms(self) -> float:
        """Summed provisioned time across replicas — the run's capacity cost.

        For a static pool this is ``num_replicas x duration``; under
        autoscaling each replica accrues only between its activation and
        retirement, so bursty traffic served by an elastic pool costs less
        than the static pool sized for its peak.
        """
        return float(sum(s.active_ms for s in self.replica_stats))

    @property
    def replica_seconds(self) -> float:
        """The cost metric of the SLO-vs-cost frontier, in replica-seconds."""
        return self.total_replica_active_ms / 1000.0

    @property
    def weighted_replica_seconds(self) -> float:
        """Replica-seconds weighted by each replica's tier cost weight.

        Heterogeneous pools price tiers differently (a large-PB replica
        costs more per second than a small-PB one); this is the cost the
        tier-aware autoscaler budgets against.  Equal to
        :attr:`replica_seconds` when every weight is 1.0.
        """
        return (
            sum(s.active_ms * s.cost_weight for s in self.replica_stats) / 1000.0
        )

    @property
    def mean_active_replicas(self) -> float:
        """Time-weighted mean pool size over the run."""
        if self.duration_ms <= 0:
            return float(len(self.replica_stats))
        return self.total_replica_active_ms / self.duration_ms

    @property
    def records(self) -> tuple[QueryRecord, ...]:
        """Serving records of the served queries, in query-index order."""
        return tuple(o.record for o in self.outcomes if o.record is not None)
