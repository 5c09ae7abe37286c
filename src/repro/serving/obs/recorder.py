"""Flight recorder: per-query spans, replica timelines, control decisions.

:class:`TraceRecorder` is the opt-in observability hook the serving engine
and the autoscale controller feed while a run executes.  It records only
what the engine's result table cannot know (replica lifecycles,
provisioning, control decisions, faults); the per-query spans are a lazy
view over that table, which the engine hands to :meth:`TraceRecorder.finish`.
This package imports nothing from ``repro.serving.engine`` — the engine can
attach a recorder without creating an import cycle, and every hook site
stays a single ``recorder is not None`` check off the per-query path: with
no recorder attached the engine's behaviour and records are bit-identical
to a build without this package.

The recorder accumulates raw events during the run; :meth:`TraceRecorder.finish`
freezes them, with the spans, into a :class:`RecordedTrace`.  Every
timestamp is simulated milliseconds from the engine's clock — never
wall-clock — so traces are deterministic and replayable.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any, Iterable


@dataclass(frozen=True, slots=True)
class QuerySpan:
    """Lifecycle of one offered query: arrival -> queued -> served/dropped."""

    query_index: int
    arrival_ms: float
    start_ms: float | None
    """Dispatch time (None for queries dropped before dispatch)."""
    completion_ms: float
    """Service completion for served queries, drop time for dropped ones."""
    replica_index: int
    latency_constraint_ms: float
    deadline_slack_ms: float
    """Constraint minus response time; negative means the deadline was
    missed (always negative for deadline-expired drops)."""
    batch_size: int
    """Dispatch pickup size the query was served in (0 for drops)."""
    subnet_name: str | None
    """SubNet the stack chose, when the backend produced a record."""
    status: str
    """``served`` or ``dropped``."""
    drop_reason: str | None = None

    @property
    def queueing_ms(self) -> float:
        end = self.completion_ms if self.start_ms is None else self.start_ms
        return end - self.arrival_ms

    @property
    def response_ms(self) -> float:
        return self.completion_ms - self.arrival_ms


@dataclass(frozen=True, slots=True)
class ProvisioningSegment:
    """One PROVISIONING interval of a scale-up replica."""

    replica_index: int
    start_ms: float
    ready_ms: float
    """Scheduled readiness time (cold start complete)."""
    cancelled_ms: float | None = None
    """Set when a scale-down reclaimed the replica before it went ready."""

    @property
    def end_ms(self) -> float:
        return self.ready_ms if self.cancelled_ms is None else self.cancelled_ms


@dataclass(frozen=True, slots=True)
class ReplicaTimeline:
    """Creation-to-retirement lifetime of one replica."""

    replica_index: int
    name: str
    created_ms: float
    retired_ms: float | None = None
    """None when the replica was still live at the end of the run."""


@dataclass(frozen=True, slots=True)
class DecisionRecord:
    """Why one control tick did what it did, for one scaled group.

    The desired-size pipeline is recorded stage by stage: what the policy
    asked for raw (``policy_desired``), after the min/max clamp
    (``clamped_desired``), after the cost-budget trim (``budget_desired``),
    and what survived cooldowns (``final_desired``).  ``snapshot`` is the
    :class:`~repro.serving.autoscale.telemetry.MetricsSnapshot` the policy
    saw — the full inputs of the decision.
    """

    time_ms: float
    group: str | None
    policy: str
    reason: str
    num_active: int
    num_provisioning: int
    num_draining: int
    queue_depth: int
    policy_desired: int
    clamped_desired: int
    budget_desired: int
    final_desired: int
    action: str
    """``scale_up`` / ``scale_down`` / ``held`` (cooldown) / ``hold``."""
    snapshot: Any = None


@dataclass(frozen=True, slots=True)
class FaultEvent:
    """One injected fault (or recovery) the fault layer reported.

    ``kind`` is ``crash`` (replica died; it never serves again),
    ``straggle`` / ``straggle_end`` (a slow interval opened / closed;
    ``detail`` carries the service-time multiplier on ``straggle``), or
    ``dispatch_failure`` (one pickup errored transiently).
    """

    time_ms: float
    kind: str
    replica_index: int
    detail: float | None = None


@dataclass(frozen=True, slots=True)
class RecordedTrace:
    """Everything the flight recorder saw during one run, frozen."""

    spans: Sequence[QuerySpan]
    """Per-query lifecycle spans in query-index order: a lazy view over the
    run's result table that builds the spans on each access and equals a
    tuple of the same spans."""
    replicas: tuple[ReplicaTimeline, ...]
    provisioning: tuple[ProvisioningSegment, ...]
    decisions: tuple[DecisionRecord, ...]
    scaling_events: tuple[Any, ...]
    """The controller's :class:`ScalingEvent` log (duck-typed)."""
    duration_ms: float
    faults: tuple[FaultEvent, ...] = ()
    """Injected faults in event order (empty without fault injection)."""


class TraceRecorder:
    """Mutable sink the engine and controller feed during a traced run.

    Hook methods are grouped by caller:

    * engine fault plane: :meth:`on_fault`
    * engine control plane: :meth:`on_replica_created`,
      :meth:`on_provisioning`, :meth:`on_provisioning_cancelled`,
      :meth:`on_replica_retired`
    * autoscale controller: :meth:`on_decision`

    The data plane has no hook.  A recorder records the engine's most
    recent run: :meth:`begin_run` clears any prior state and registers the
    starting pool.
    """

    def __init__(self) -> None:
        self._replicas: dict[int, dict[str, Any]] = {}
        self._provisioning: list[dict[str, Any]] = []
        self._decisions: list[DecisionRecord] = []
        self._faults: list[FaultEvent] = []

    # ------------------------------------------------------------- lifecycle
    def reset(self) -> None:
        self._replicas.clear()
        self._provisioning.clear()
        self._decisions.clear()
        self._faults.clear()

    def begin_run(self, replicas: Iterable[tuple[int, str]]) -> None:
        """Start recording a run whose initial pool is ``(index, name)``s."""
        self.reset()
        for index, name in replicas:
            self._replicas[index] = {
                "name": name, "created_ms": 0.0, "retired_ms": None,
            }

    # ------------------------------------------------------------ fault plane
    def on_fault(
        self,
        time_ms: float,
        kind: str,
        replica_index: int,
        detail: float | None = None,
    ) -> None:
        """Record one injected fault / recovery (the fault layer's feed)."""
        self._faults.append(FaultEvent(time_ms, kind, replica_index, detail))

    # --------------------------------------------------------- control plane
    def on_replica_created(self, index: int, name: str, now_ms: float) -> None:
        self._replicas[index] = {
            "name": name, "created_ms": now_ms, "retired_ms": None,
        }

    def on_provisioning(self, index: int, start_ms: float, ready_ms: float) -> None:
        self._provisioning.append(
            {"index": index, "start_ms": start_ms,
             "ready_ms": ready_ms, "cancelled_ms": None}
        )

    def on_provisioning_cancelled(self, index: int, now_ms: float) -> None:
        # A replica provisions at most once per lifetime; scan from the
        # newest segment (reclaim cancels the most recent provision).
        for seg in reversed(self._provisioning):
            if seg["index"] == index and seg["cancelled_ms"] is None:
                seg["cancelled_ms"] = now_ms
                return

    def on_replica_retired(self, index: int, now_ms: float) -> None:
        entry = self._replicas.get(index)
        if entry is not None:
            entry["retired_ms"] = now_ms

    def on_decision(self, **kwargs: Any) -> None:
        """Record one per-group control-tick explanation (controller hook).

        Keyword-only so the controller never imports :class:`DecisionRecord`
        (which would cycle through this package's typing imports).
        """
        self._decisions.append(DecisionRecord(**kwargs))

    # ---------------------------------------------------------------- finish
    def finish(
        self,
        *,
        spans: Sequence[QuerySpan],
        duration_ms: float,
        scaling_events: Iterable[Any] = (),
    ) -> RecordedTrace:
        """Freeze the recorded run, with its query-index-ordered ``spans``
        (the result table's span view), into a :class:`RecordedTrace`."""
        replicas = tuple(
            ReplicaTimeline(
                replica_index=index,
                name=entry["name"],
                created_ms=entry["created_ms"],
                retired_ms=entry["retired_ms"],
            )
            for index, entry in sorted(self._replicas.items())
        )
        provisioning = tuple(
            ProvisioningSegment(
                replica_index=seg["index"],
                start_ms=seg["start_ms"],
                ready_ms=seg["ready_ms"],
                cancelled_ms=seg["cancelled_ms"],
            )
            for seg in self._provisioning
        )
        return RecordedTrace(
            spans=spans,
            replicas=replicas,
            provisioning=provisioning,
            decisions=tuple(self._decisions),
            scaling_events=tuple(scaling_events),
            duration_ms=float(duration_ms),
            faults=tuple(self._faults),
        )
