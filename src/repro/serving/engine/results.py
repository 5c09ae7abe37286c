"""Engine results: one columnar row per offered query, and run aggregates.

A run writes every offered query exactly once into a preallocated
:class:`ResultTable` — at completion when it was served, at the drop when
it was not — at row ``i`` for query ``i``: a query's index is its arrival
position and its row.  :class:`SimulationResult` computes its summaries
from those columns; its ``outcomes``, ``dropped`` and ``records`` are
read-only views in query-index (row) order that build the
:class:`SimulatedQueryOutcome` / :class:`DroppedQuery` /
:class:`~repro.core.metrics.QueryRecord` objects on each access and cache
none of them, so what a run keeps grows by one fixed-size row per query.
:meth:`ResultTable.spans` is the same kind of view over every written row;
a traced run's :class:`RecordedTrace` carries it as its query spans.
A run additionally accounts for shed queries and exposes offered load,
achieved throughput, and per-replica statistics — the numbers that make
overload runs interpretable.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.core.metrics import QueryRecord, Served, percentile
from repro.serving.autoscale.controller import AutoscaleReport
from repro.serving.autoscale.telemetry import MetricsSnapshot
from repro.serving.engine.replica import ReplicaStats
from repro.serving.obs.recorder import QuerySpan, RecordedTrace


@dataclass(frozen=True, slots=True)
class SimulatedQueryOutcome:
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


# ------------------------------------------------------------------ the table
SERVED = 1
"""Status code of a served row; an unwritten row is 0."""

DROP_REASONS = ("deadline_expired", "failed", "shed")
"""Drop reasons; a dropped row's status is ``SERVED + 1 + position``."""

_DROP_CODE = {reason: SERVED + 1 + i for i, reason in enumerate(DROP_REASONS)}

ROW_DTYPE = np.dtype(
    [
        ("status", "i1"),
        ("arrival_ms", "f8"),
        # When the query started service; when a dropped one was dropped.
        ("start_ms", "f8"),
        ("service_ms", "f8"),
        ("latency_constraint_ms", "f8"),
        ("served_accuracy", "f8"),
        ("replica_index", "i4"),
        ("batch_size", "i4"),
        # The record's own fields.  Its query index is the row and its
        # latency constraint the query's; its accuracy constraint is the
        # floor the backend was given (under brownout, the relaxed one).
        # ``served_accuracy`` and ``replica_index`` are the outcome's.
        ("accuracy_constraint", "f8"),
        ("subnet", "i4"),
        ("served_latency_ms", "f8"),
        ("cache_hit_ratio", "f8"),
        ("offchip_energy_mj", "f8"),
        ("cache_load_ms", "f8"),
    ]
)
"""One row per offered query (93 bytes, unaligned); row ``i`` is query ``i``."""

_CHUNK = 4096
"""Rows a view materializes at a time while iterating."""


class ResultTable:
    """The one writer of a run's results: a preallocated row per query.

    ``rows[i]`` belongs to query ``i`` (its arrival position) and is
    written once, by :meth:`serve` or :meth:`drop` (or :meth:`put`, which
    takes the objects the views build).  Subnet names are interned:
    ``subnet_names[rows["subnet"][i]]``.
    """

    __slots__ = ("rows", "subnet_names", "_subnet_codes")

    def __init__(self, num_rows: int) -> None:
        self.rows = np.zeros(num_rows, dtype=ROW_DTYPE)
        self.subnet_names: list[str] = []
        self._subnet_codes: dict[str, int] = {}

    def serve(
        self,
        row: int,
        arrival_ms: float,
        start_ms: float,
        service_ms: float,
        latency_constraint_ms: float,
        replica_index: int,
        batch_size: int,
        accuracy_floor: float,
        served: Served,
    ) -> None:
        """Write a served query: the engine's values and what the backend
        returned for it, given ``accuracy_floor``."""
        name, accuracy, latency, hit, energy, load = served
        code = self._subnet_codes.get(name)
        if code is None:
            code = self._subnet_codes[name] = len(self.subnet_names)
            self.subnet_names.append(name)
        self.rows[row] = (
            SERVED, arrival_ms, start_ms, service_ms, latency_constraint_ms,
            accuracy, replica_index, batch_size, accuracy_floor, code, latency,
            hit, energy, load,
        )

    def drop(
        self,
        row: int,
        arrival_ms: float,
        dropped_at_ms: float,
        latency_constraint_ms: float,
        replica_index: int,
        reason: str,
    ) -> None:
        """Write a dropped query (``reason`` is one of :data:`DROP_REASONS`)."""
        self.rows[row] = (
            _DROP_CODE[reason], arrival_ms, dropped_at_ms, 0.0,
            latency_constraint_ms, 0.0, replica_index, 0, 0.0, -1,
            0.0, 0.0, 0.0, 0.0,
        )

    def put(self, row: int, obj: SimulatedQueryOutcome | DroppedQuery) -> None:
        """Write an outcome or drop object through :meth:`serve` / :meth:`drop`.

        The row is the object's query index; ``obj.query_index`` is not
        written.  A table has no column for a record's query index or
        latency constraint, so an outcome whose record disagrees with
        ``row`` or with the outcome's latency constraint is a
        ``ValueError``.
        """
        if isinstance(obj, DroppedQuery):
            self.drop(
                row, obj.arrival_ms, obj.dropped_at_ms,
                obj.latency_constraint_ms, obj.replica_index, obj.reason,
            )
            return
        r = obj.record
        if r.query_index != row or r.latency_constraint_ms != obj.latency_constraint_ms:
            raise ValueError(
                f"row {row}: the record of query {r.query_index} with latency "
                f"constraint {r.latency_constraint_ms!r} ms does not belong to an "
                f"outcome with latency constraint {obj.latency_constraint_ms!r} ms"
            )
        self.serve(
            row, obj.arrival_ms, obj.start_ms, obj.service_ms,
            obj.latency_constraint_ms, obj.replica_index, obj.batch_size,
            r.accuracy_constraint,
            (r.subnet_name, r.served_accuracy, r.served_latency_ms,
             r.cache_hit_ratio, r.offchip_energy_mj, r.cache_load_ms),
        )

    def views(self) -> tuple[OutcomeView, DropView]:
        """Served and dropped rows, each in row (query-index) order.

        Unwritten rows belong to neither.
        """
        status = self.rows["status"]
        return (
            OutcomeView(self, np.flatnonzero(status == SERVED)),
            DropView(self, np.flatnonzero(status > SERVED)),
        )

    def spans(self) -> SpanView:
        """Every written row as a flight-recorder span, in row order."""
        return SpanView(self, np.flatnonzero(self.rows["status"]))


# ------------------------------------------------------------------- builders
def _records(table: ResultTable, rows: np.ndarray, sel: np.ndarray) -> list[QueryRecord]:
    """The records of table rows ``rows``, whose data is ``sel``."""
    names = table.subnet_names
    return [
        QueryRecord(
            query_index=qi,
            accuracy_constraint=ac,
            latency_constraint_ms=lc,
            subnet_name=names[code],
            served_accuracy=acc,
            served_latency_ms=lat,
            cache_hit_ratio=hit,
            offchip_energy_mj=energy,
            cache_load_ms=load,
            replica_index=ridx,
        )
        for qi, ac, lc, code, acc, lat, hit, energy, load, ridx in zip(
            rows.tolist(),
            sel["accuracy_constraint"].tolist(),
            sel["latency_constraint_ms"].tolist(),
            sel["subnet"].tolist(),
            sel["served_accuracy"].tolist(),
            sel["served_latency_ms"].tolist(),
            sel["cache_hit_ratio"].tolist(),
            sel["offchip_energy_mj"].tolist(),
            sel["cache_load_ms"].tolist(),
            sel["replica_index"].tolist(),
        )
    ]


def _outcomes(table: ResultTable, rows: np.ndarray) -> list[SimulatedQueryOutcome]:
    sel = table.rows[rows]
    return [
        SimulatedQueryOutcome(
            query_index=qi,
            arrival_ms=arrival,
            start_ms=start,
            service_ms=service,
            latency_constraint_ms=lc,
            served_accuracy=record.served_accuracy,
            replica_index=record.replica_index,
            record=record,
            batch_size=size,
        )
        for qi, arrival, start, service, lc, size, record in zip(
            rows.tolist(),
            sel["arrival_ms"].tolist(),
            sel["start_ms"].tolist(),
            sel["service_ms"].tolist(),
            sel["latency_constraint_ms"].tolist(),
            sel["batch_size"].tolist(),
            _records(table, rows, sel),
        )
    ]


def _drops(table: ResultTable, rows: np.ndarray) -> list[DroppedQuery]:
    sel = table.rows[rows]
    return [
        DroppedQuery(
            query_index=qi,
            arrival_ms=arrival,
            dropped_at_ms=at,
            latency_constraint_ms=lc,
            replica_index=ridx,
            reason=DROP_REASONS[code - SERVED - 1],
        )
        for qi, arrival, at, lc, ridx, code in zip(
            rows.tolist(),
            sel["arrival_ms"].tolist(),
            sel["start_ms"].tolist(),
            sel["latency_constraint_ms"].tolist(),
            sel["replica_index"].tolist(),
            sel["status"].tolist(),
        )
    ]


def _spans(table: ResultTable, rows: np.ndarray) -> list[QuerySpan]:
    sel = table.rows[rows]
    names = table.subnet_names
    spans = []
    for qi, status, arrival, start, service, lc, ridx, size, code in zip(
        rows.tolist(),
        sel["status"].tolist(),
        sel["arrival_ms"].tolist(),
        sel["start_ms"].tolist(),
        sel["service_ms"].tolist(),
        sel["latency_constraint_ms"].tolist(),
        sel["replica_index"].tolist(),
        sel["batch_size"].tolist(),
        sel["subnet"].tolist(),
    ):
        if status == SERVED:
            completion = start + service
            spans.append(QuerySpan(
                qi, arrival, start, completion, ridx, lc,
                lc - (completion - arrival), size, names[code], "served",
            ))
        else:
            # A drop's start_ms column holds its drop time.
            spans.append(QuerySpan(
                qi, arrival, None, start, ridx, lc, lc - (start - arrival),
                0, None, "dropped", DROP_REASONS[status - SERVED - 1],
            ))
    return spans


# ---------------------------------------------------------------------- views
class _RowView(Sequence):
    """Read-only sequence over chosen rows of a :class:`ResultTable`.

    Every access builds fresh objects and nothing is cached; iteration
    materializes :data:`_CHUNK` rows at a time.  Slicing gives a view of
    the same kind; a view equals another view or a tuple holding equal
    objects in the same order.
    """

    __slots__ = ("table", "rows")

    def __init__(self, table: ResultTable, rows: np.ndarray) -> None:
        self.table = table
        self.rows = rows
        """Row positions, in view order."""

    def _build(self, rows: np.ndarray) -> list:
        """The objects of table rows ``rows``, in that order."""
        raise NotImplementedError

    def column(self, name: str) -> np.ndarray:
        """Column ``name`` of the viewed rows, in view order (a copy)."""
        return self.table.rows[name][self.rows]

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return type(self)(self.table, self.rows[index])
        return self._build(self.rows[[index]])[0]

    def __iter__(self) -> Iterator:
        rows = self.rows
        for k in range(0, len(rows), _CHUNK):
            yield from self._build(rows[k : k + _CHUNK])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (_RowView, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({len(self)} rows)"


class OutcomeView(_RowView):
    """Served queries as :class:`SimulatedQueryOutcome` objects."""

    __slots__ = ()

    def _build(self, rows: np.ndarray) -> list[SimulatedQueryOutcome]:
        return _outcomes(self.table, rows)


class RecordView(_RowView):
    """Served queries' serving records as :class:`QueryRecord` objects."""

    __slots__ = ()

    def _build(self, rows: np.ndarray) -> list[QueryRecord]:
        return _records(self.table, rows, self.table.rows[rows])


class DropView(_RowView):
    """Dropped queries as :class:`DroppedQuery` objects."""

    __slots__ = ()

    def _build(self, rows: np.ndarray) -> list[DroppedQuery]:
        return _drops(self.table, rows)


class SpanView(_RowView):
    """Written rows as flight-recorder :class:`QuerySpan` objects."""

    __slots__ = ()

    def _build(self, rows: np.ndarray) -> list[QuerySpan]:
        return _spans(self.table, rows)


@dataclass(frozen=True, slots=True)
class SimulationResult:
    """Aggregate outcome of one simulation run.

    ``slo_attainment`` counts dropped queries as SLO violations, so the
    denominator is everything that was *offered*, not just what was served;
    the response-time statistics describe served queries only.  Every
    summary is computed from the columns under ``outcomes`` / ``dropped``,
    over the same values in the same (query-index) order the per-object
    formulas used.
    """

    outcomes: OutcomeView
    """Served queries in query-index order (built on each access)."""
    offered_load: float
    """Mean arrival rate x mean service time / replicas (rho); > 1 is overload.

    The mean service time is estimated from the queries actually *served*,
    so under admission shedding or dispatch-time adaptation (which steer
    overloaded runs toward faster SubNets) this understates the nominal
    demand — compare cells together with ``drop_rate`` and
    ``achieved_throughput_per_ms`` when reading overload sweeps.
    """
    dropped: DropView
    """Dropped queries in query-index order (built on each access)."""
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
    pb_hit_bytes: int = 0
    """Served weight bytes found in a replica's Persistent Buffer."""
    pb_weight_bytes: int = 0
    """Weight bytes the replicas with a PB served."""

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
        for code in self.dropped.column("status").tolist():
            reason = DROP_REASONS[code - SERVED - 1]
            counts[reason] = counts.get(reason, 0) + 1
        return counts

    @property
    def num_offered(self) -> int:
        return self.num_served + self.num_dropped

    @property
    def drop_rate(self) -> float:
        return self.num_dropped / self.num_offered if self.num_offered else 0.0

    def _response_ms(self) -> np.ndarray:
        o = self.outcomes
        return (o.column("start_ms") + o.column("service_ms")) - o.column("arrival_ms")

    def _num_meeting_slo(self) -> int:
        met = self._response_ms() <= self.outcomes.column("latency_constraint_ms")
        return int(np.count_nonzero(met))

    @property
    def slo_attainment(self) -> float:
        if not self.num_offered:
            return 0.0
        return self._num_meeting_slo() / self.num_offered

    @property
    def mean_response_ms(self) -> float:
        if not self.num_served:
            return 0.0
        return float(np.mean(self._response_ms()))

    @property
    def p99_response_ms(self) -> float:
        if not self.num_served:
            return 0.0
        return percentile(self._response_ms(), 99)

    @property
    def mean_queueing_ms(self) -> float:
        if not self.num_served:
            return 0.0
        o = self.outcomes
        return float(np.mean(o.column("start_ms") - o.column("arrival_ms")))

    @property
    def goodput_per_ms(self) -> float:
        """Queries served *within their SLO* per ms of run — what batched
        dispatch trades per-query latency for."""
        if self.duration_ms <= 0:
            return 0.0
        return self._num_meeting_slo() / self.duration_ms

    @property
    def makespan_ms(self) -> float:
        """Completion time of the last served query (0 when none was)."""
        return makespan_ms(self.outcomes)

    @property
    def num_batches(self) -> int:
        """Dispatch pickups across the run (each served 1..B queries)."""
        # Each pickup of size b contributes b outcomes of batch_size b, so
        # the 1/b shares sum back to one per pickup (a Python float sum,
        # in query order).
        if not self.num_served:
            return 0
        return round(sum(1.0 / b for b in self.outcomes.column("batch_size").tolist()))

    @property
    def mean_batch_occupancy(self) -> float:
        """Mean queries served per dispatch pickup (1.0 without batching)."""
        batches = self.num_batches
        return self.num_served / batches if batches else 0.0

    @property
    def mean_accuracy(self) -> float:
        if not self.num_served:
            return 0.0
        return float(np.mean(self.outcomes.column("served_accuracy")))

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
    def pb_byte_hit_ratio(self) -> float:
        """The pool's PB byte hit ratio (0.0 when no PB served)."""
        if not self.pb_weight_bytes:
            return 0.0
        return self.pb_hit_bytes / self.pb_weight_bytes

    @property
    def records(self) -> RecordView:
        """Serving records of the served queries, in query-index order."""
        return RecordView(self.outcomes.table, self.outcomes.rows)


def makespan_ms(outcomes: OutcomeView) -> float:
    """Latest ``start_ms + service_ms`` over ``outcomes`` (0.0 when empty)."""
    if not len(outcomes):
        return 0.0
    return float((outcomes.column("start_ms") + outcomes.column("service_ms")).max())
