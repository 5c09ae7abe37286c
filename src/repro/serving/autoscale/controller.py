"""The autoscale controller: policy + telemetry + actuation bookkeeping.

The controller sits between the serving engine and a scaling policy.  Every
``control_interval_ms`` of simulated time the engine hands it the pool's
per-group load; the controller asks the policy for desired sizes, clamps
each group to ``[min_replicas, max_replicas]``, enforces the pool-wide cost
budget and directional cooldowns, and logs the resulting
:class:`ScalingEvent`\\ s.  The *engine* enacts the decisions — cloning
fresh replicas on scale-up (provisioning them for ``startup_delay_ms``
before they join routing), draining-then-retiring on scale-down — because
replica lifecycle is engine state; the controller only decides and
accounts.

Invariants:

* Decisions are pure functions of the tick's snapshot and group loads:
  repeated runs over the same event feed produce identical
  :class:`ScalingEvent` logs (asserted by the engine's repeat-run tests).
* Desired sizes are judged against *incoming* capacity (active +
  provisioning), so a pending cold start is never re-requested; with
  ``startup_delay_ms = 0`` everywhere this is the active count and the
  controller is decision-identical to the pre-cold-start control plane.
* The cost budget (weighted incoming replicas, weights from
  :class:`ScaledGroup.cost_weight`) is a ceiling on *growth*: decisions
  that would exceed it are trimmed, most expensive group first, but the
  budget never forces a shrink below what is already running.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.serving.autoscale.policies import (
    GroupStatus,
    PredictivePolicy,
    ScalingPolicy,
    make_policy,
)
from repro.serving.autoscale.telemetry import MetricsSnapshot, TelemetryBus


@dataclass(frozen=True, slots=True)
class ScaledGroup:
    """Static configuration of one replica group under autoscaler control.

    ``cost_weight`` is the group's price in weighted replica-seconds per
    replica-second (the unit of the pool-wide cost budget); ``startup_delay_ms``
    is how long a scale-up replica provisions before it can serve.
    ``replica_factory(position)`` builds a fresh replica at engine-global
    index ``position`` (for SUSHI pools: a clone of the group's stack —
    cold Persistent Buffer, shared latency table).
    """

    name: str | None = None
    cost_weight: float = 1.0
    startup_delay_ms: float = 0.0
    min_replicas: int = 1
    max_replicas: int = 8
    replica_factory: Callable[[int], object] | None = None

    def __post_init__(self) -> None:
        if self.cost_weight <= 0:
            raise ValueError("cost_weight must be positive")
        if self.startup_delay_ms < 0:
            raise ValueError("startup_delay_ms must be non-negative")
        if self.min_replicas <= 0:
            raise ValueError("min_replicas must be positive")
        if self.max_replicas < self.min_replicas:
            raise ValueError("max_replicas must be >= min_replicas")


@dataclass(frozen=True, slots=True)
class GroupLoad:
    """Instantaneous pool state of one scaled group (engine-provided)."""

    name: str | None
    num_active: int
    num_provisioning: int = 0
    num_draining: int = 0
    queue_depth: int = 0
    num_failed: int = 0
    """Replicas of the group that have crashed (cumulative; crashed
    replicas already left ``num_active``, so self-healing falls out of the
    ``min_replicas`` clamp without any policy change)."""

    @property
    def num_incoming(self) -> int:
        return self.num_active + self.num_provisioning


@dataclass(frozen=True, slots=True)
class ScalingEvent:
    """One enacted (or attempted) scaling decision.

    The three ``*_desired`` fields explain the decision pipeline: what the
    policy asked for raw, after the ``[min, max]`` clamp, and after the
    cost-budget trim.  ``to_replicas`` is what survived cooldowns.
    """

    time_ms: float
    action: str
    """``scale_up`` / ``scale_down`` / ``held`` (cooldown or clamp bound)."""
    from_replicas: int
    to_replicas: int
    reason: str
    group: str | None = None
    """Scaled group the event applies to (None for a single unnamed group)."""
    policy_desired: int | None = None
    """Raw size the policy asked for, before any clamp."""
    clamped_desired: int | None = None
    """Desired size after the per-group ``[min, max]`` clamp."""
    budget_desired: int | None = None
    """Desired size after the pool-wide cost-budget trim."""


@dataclass(frozen=True, slots=True)
class AutoscaleReport:
    """Control-plane summary attached to a :class:`SimulationResult`."""

    policy: str
    control_interval_ms: float
    num_controls: int
    events: tuple[ScalingEvent, ...]
    peak_replicas: int
    final_replicas: int
    cost_budget: float | None = None
    final_by_group: tuple[tuple[str | None, int], ...] = ()
    """Final active replica count per scaled group (multi-tier pools)."""

    @property
    def num_scale_ups(self) -> int:
        return sum(1 for e in self.events if e.action == "scale_up")

    @property
    def num_scale_downs(self) -> int:
        return sum(1 for e in self.events if e.action == "scale_down")


class AutoscaleController:
    """Evaluate a scaling policy at a fixed control interval.

    Parameters
    ----------
    policy:
        Scaling policy name or instance (see
        :func:`~repro.serving.autoscale.policies.make_policy`).  A policy
        *instance* belongs to exactly one controller: the controller may
        derive configuration into it (a predictive policy's ``horizon_ms``)
        and drives its per-run state (the smoothed-demand EMA), so sharing
        one instance across controllers couples their decisions — pass a
        name (or a fresh instance) per controller instead.
    control_interval_ms:
        Simulated time between policy evaluations.
    window_ms:
        Telemetry sliding window.  Default: twice the control interval;
        for a predictive policy, ``max(2 x interval, 2 x horizon)``, so its
        slope estimate spans at least twice the forecast horizon.
    min_replicas, max_replicas:
        Hard bounds on the scalable pool size (per scaled group).
    up_cooldown_ms, down_cooldown_ms:
        Minimum time between consecutive scale-ups / scale-downs (pool-wide
        and directional).  Scaling up is usually allowed faster than
        scaling down (drops hurt more than idle replicas).
    replica_factory:
        ``factory(position) -> AcceleratorReplica`` for the single implicit
        group when ``groups`` is not given (the pre-tier API).
    groups:
        Explicit :class:`ScaledGroup` configurations for multi-tier pools.
        Mutually exclusive with ``replica_factory``; group names must be
        unique.  When omitted, one implicit group is built from
        ``replica_factory`` / ``min_replicas`` / ``max_replicas`` /
        ``startup_delay_ms``.
    startup_delay_ms:
        Provisioning delay of the implicit single group (ignored when
        ``groups`` is given).
    cost_budget:
        Pool-wide ceiling on ``sum(cost_weight x incoming replicas)``.
        ``None`` disables budget enforcement.
    """

    def __init__(
        self,
        policy: str | ScalingPolicy = "reactive",
        *,
        control_interval_ms: float = 50.0,
        window_ms: float | None = None,
        min_replicas: int = 1,
        max_replicas: int = 8,
        up_cooldown_ms: float = 0.0,
        down_cooldown_ms: float = 0.0,
        replica_factory: Callable[[int], object] | None = None,
        groups: Sequence[ScaledGroup] | None = None,
        startup_delay_ms: float = 0.0,
        cost_budget: float | None = None,
    ) -> None:
        if control_interval_ms <= 0:
            raise ValueError("control_interval_ms must be positive")
        if min_replicas <= 0:
            raise ValueError("min_replicas must be positive")
        if max_replicas < min_replicas:
            raise ValueError("max_replicas must be >= min_replicas")
        if up_cooldown_ms < 0 or down_cooldown_ms < 0:
            raise ValueError("cooldowns must be non-negative")
        if cost_budget is not None and cost_budget <= 0:
            raise ValueError("cost_budget must be positive")
        self.policy = make_policy(policy)
        self.control_interval_ms = float(control_interval_ms)
        self.min_replicas = int(min_replicas)
        self.max_replicas = int(max_replicas)
        self.up_cooldown_ms = float(up_cooldown_ms)
        self.down_cooldown_ms = float(down_cooldown_ms)
        self.cost_budget = cost_budget
        if groups is not None:
            if replica_factory is not None:
                raise ValueError(
                    "pass either groups or replica_factory, not both"
                )
            self.groups = tuple(groups)
            if not self.groups:
                raise ValueError("groups must not be empty")
            names = [g.name for g in self.groups]
            if len(set(names)) != len(names):
                raise ValueError(f"scaled group names must be unique: {names}")
        else:
            self.groups = (
                ScaledGroup(
                    name=None,
                    startup_delay_ms=startup_delay_ms,
                    min_replicas=self.min_replicas,
                    max_replicas=self.max_replicas,
                    replica_factory=replica_factory,
                ),
            )
        # A predictive policy left without a horizon gets the provisioning
        # horizon it is meant to look across: the slowest group's cold start
        # plus one control interval (the soonest a decision can land).
        if isinstance(self.policy, PredictivePolicy) and self.policy.horizon_ms is None:
            self.policy.horizon_ms = self.control_interval_ms + max(
                g.startup_delay_ms for g in self.groups
            )
        if window_ms is not None:
            window = float(window_ms)
        else:
            # Default window: twice the control interval — except for a
            # predictive policy, whose slope estimate must span at least
            # twice its horizon or the extrapolation amplifies Poisson
            # noise into scaling thrash.
            window = 2.0 * self.control_interval_ms
            if isinstance(self.policy, PredictivePolicy):
                window = max(window, 2.0 * (self.policy.horizon_ms or 0.0))
        self.bus = TelemetryBus(window)
        self._events: list[ScalingEvent] = []
        self._num_controls = 0
        self._last_up_ms = -float("inf")
        self._last_down_ms = -float("inf")
        self._peak = 0
        self.recorder = None
        """Optional flight recorder (duck-typed ``TraceRecorder``); when
        set, every control tick emits one decision record per group."""
        self.keep_metrics = False
        """When True, every tick's :class:`MetricsSnapshot` is appended to
        :attr:`metrics_history` (opt-in via ``ObservabilitySpec``)."""
        self.metrics_history: list[MetricsSnapshot] = []

    # ---------------------------------------------------------------- groups
    @property
    def replica_factory(self) -> Callable[[int], object] | None:
        """The single group's factory (the pre-tier accessor)."""
        return self.groups[0].replica_factory

    def group(self, name: str | None) -> ScaledGroup:
        for g in self.groups:
            if g.name == name:
                return g
        raise KeyError(f"no scaled group named {name!r}")

    # ------------------------------------------------------------- decisions
    def decide(self, snapshot: MetricsSnapshot) -> int:
        """Desired scalable-pool size for this tick (single-group pools).

        Returns the number of replicas the (one) scaled group should have;
        the engine compares it with the current incoming count and enacts
        the delta.  Multi-group controllers go through :meth:`decide_pool`.
        """
        if len(self.groups) != 1:
            raise ValueError("decide() serves single-group pools; use decide_pool")
        g = self.groups[0]
        load = GroupLoad(
            name=g.name,
            num_active=snapshot.num_active,
            num_provisioning=snapshot.num_provisioning,
            num_draining=snapshot.num_draining,
            queue_depth=snapshot.queue_depth,
        )
        return self.decide_pool(snapshot, (load,))[g.name]

    def decide_pool(
        self, snapshot: MetricsSnapshot, loads: Sequence[GroupLoad]
    ) -> dict[str | None, int]:
        """Desired size per scaled group (after clamp, budget and cooldown).

        ``loads`` must align with :attr:`groups` (same names, same order).
        """
        self._num_controls += 1
        if self.keep_metrics:
            self.metrics_history.append(snapshot)
        by_name = {load.name: load for load in loads}
        statuses = tuple(
            GroupStatus(
                name=g.name,
                cost_weight=g.cost_weight,
                startup_delay_ms=g.startup_delay_ms,
                min_replicas=g.min_replicas,
                max_replicas=g.max_replicas,
                num_active=by_name[g.name].num_active,
                num_provisioning=by_name[g.name].num_provisioning,
                num_draining=by_name[g.name].num_draining,
                queue_depth=by_name[g.name].queue_depth,
                num_failed=by_name[g.name].num_failed,
            )
            for g in self.groups
        )
        total_incoming = sum(s.num_incoming for s in statuses)
        self._peak = max(self._peak, total_incoming)
        desired_map, reason = self.policy.desired_by_group(
            snapshot, statuses, cost_budget=self.cost_budget
        )
        # Record each decision-pipeline stage so events (and the flight
        # recorder) can explain the final action: raw policy ask, after
        # the [min, max] clamp, after the cost-budget trim.
        raw = {g.name: int(desired_map[g.name]) for g in self.groups}
        desired = {
            g.name: max(g.min_replicas, min(g.max_replicas, desired_map[g.name]))
            for g in self.groups
        }
        clamped = dict(desired)
        self._enforce_budget(desired, statuses)
        budgeted = dict(desired)

        def stages(name: str | None) -> dict[str, int]:
            return {
                "policy_desired": raw[name],
                "clamped_desired": clamped[name],
                "budget_desired": budgeted[name],
            }

        now = snapshot.time_ms
        ups = [g for g in self.groups if desired[g.name] > by_name[g.name].num_incoming]
        downs = [g for g in self.groups if desired[g.name] < by_name[g.name].num_incoming]
        # Cooldowns are directional and pool-wide; a blocked change is
        # logged per group (same from/to units as scale events) so the
        # event log can always be replayed group by group.
        held: list[ScaledGroup] = []
        if ups and now - self._last_up_ms < self.up_cooldown_ms:
            for g in ups:
                incoming = by_name[g.name].num_incoming
                desired[g.name] = incoming
                self._log(
                    now, "held", incoming, incoming,
                    f"up cooldown ({reason})", group=g.name, **stages(g.name),
                )
            held += ups
            ups = []
        if downs and now - self._last_down_ms < self.down_cooldown_ms:
            for g in downs:
                incoming = by_name[g.name].num_incoming
                desired[g.name] = incoming
                self._log(
                    now, "held", incoming, incoming,
                    f"down cooldown ({reason})", group=g.name, **stages(g.name),
                )
            held += downs
            downs = []
        if ups:
            self._last_up_ms = now
        if downs:
            self._last_down_ms = now
        for g in ups:
            self._log(
                now, "scale_up", by_name[g.name].num_incoming, desired[g.name],
                reason, group=g.name, **stages(g.name),
            )
        for g in downs:
            self._log(
                now, "scale_down", by_name[g.name].num_incoming, desired[g.name],
                reason, group=g.name, **stages(g.name),
            )
        if self.recorder is not None:
            for g in self.groups:
                if g in ups:
                    action = "scale_up"
                elif g in downs:
                    action = "scale_down"
                elif g in held:
                    action = "held"
                else:
                    action = "hold"
                load = by_name[g.name]
                self.recorder.on_decision(
                    time_ms=now,
                    group=g.name,
                    policy=self.policy.name,
                    reason=reason,
                    num_active=load.num_active,
                    num_provisioning=load.num_provisioning,
                    num_draining=load.num_draining,
                    queue_depth=load.queue_depth,
                    final_desired=desired[g.name],
                    action=action,
                    snapshot=snapshot,
                    **stages(g.name),
                )
        self._peak = max(self._peak, sum(desired.values()))
        return desired

    def _enforce_budget(
        self, desired: dict[str | None, int], statuses: Sequence[GroupStatus]
    ) -> None:
        """Trim growth so the weighted pool stays within the cost budget.

        Reductions already in ``desired`` are kept (they free budget);
        increases are cut back toward the incoming count, most expensive
        group first, until the weighted total fits.  The budget never
        forces a group below what is already incoming — shedding running
        capacity is the policy's decision, not the accountant's.
        """
        if self.cost_budget is None:
            return
        def weighted() -> float:
            return sum(s.cost_weight * desired[s.name] for s in statuses)

        # Most expensive first; ties keep declaration order (stable sort).
        for s in sorted(statuses, key=lambda s: -s.cost_weight):
            while (
                weighted() > self.cost_budget + 1e-9
                and desired[s.name] > s.num_incoming
            ):
                desired[s.name] -= 1

    def _log(
        self,
        now: float,
        action: str,
        from_n: int,
        to_n: int,
        reason: str,
        *,
        group: str | None = None,
        policy_desired: int | None = None,
        clamped_desired: int | None = None,
        budget_desired: int | None = None,
    ) -> None:
        self._events.append(
            ScalingEvent(
                time_ms=now,
                action=action,
                from_replicas=from_n,
                to_replicas=to_n,
                reason=reason,
                group=group,
                policy_desired=policy_desired,
                clamped_desired=clamped_desired,
                budget_desired=budget_desired,
            )
        )

    # -------------------------------------------------------------- lifecycle
    def make_replica(self, position: int, *, group: str | None = None):
        """A fresh replica for engine-global index ``position`` (scale-up)."""
        factory = self.group(group).replica_factory
        if factory is None:
            raise RuntimeError(
                "this autoscale controller has no replica_factory; "
                "scale-up needs one to create replicas"
            )
        return factory(position)

    def reset(self) -> None:
        """Fresh telemetry, cooldowns and event log for a new run."""
        self.bus.reset()
        self.policy.reset()
        self._events.clear()
        self._num_controls = 0
        self._last_up_ms = -float("inf")
        self._last_down_ms = -float("inf")
        self._peak = 0
        self.metrics_history.clear()

    def report(
        self,
        *,
        final_replicas: int,
        final_by_group: Sequence[tuple[str | None, int]] = (),
    ) -> AutoscaleReport:
        """Summarize the run's control activity."""
        return AutoscaleReport(
            policy=self.policy.name,
            control_interval_ms=self.control_interval_ms,
            num_controls=self._num_controls,
            events=tuple(self._events),
            peak_replicas=max(self._peak, final_replicas),
            final_replicas=final_replicas,
            cost_budget=self.cost_budget,
            final_by_group=tuple(final_by_group),
        )
