"""The autoscale controller: policy + telemetry + actuation bookkeeping.

The controller sits between the serving engine and a scaling policy.  It is
built from a validated ``AutoscalerSpec`` plus one :class:`ScaledGroup` per
scaled replica group, and checks none of their values again.  Every
``control_interval_ms`` of simulated time the engine hands it one
:class:`GroupStatus` per group; the controller asks the policy for desired
sizes, clamps each group to ``[min_replicas, max_replicas]``, enforces the
pool-wide cost budget and directional cooldowns, and logs the resulting
:class:`ScalingEvent`\\ s.  The *engine* enacts the decisions — cloning
fresh replicas on scale-up (provisioning them for ``startup_delay_ms``
before they join routing), draining-then-retiring on scale-down — because
replica lifecycle is engine state; the controller only decides and
accounts.

Invariants:

* Decisions are pure functions of the tick's snapshot and group statuses:
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

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from repro.serving.autoscale.policies import GroupStatus, PredictivePolicy
from repro.serving.autoscale.telemetry import SNAPSHOT_FIELDS, MetricsSnapshot, TelemetryBus

if TYPE_CHECKING:  # pragma: no cover - spec.py imports this package
    from repro.serving.spec import AutoscalerSpec


@dataclass(frozen=True, slots=True)
class ScaledGroup:
    """What differs per replica group under autoscaler control.

    ``replica_factory(position)`` builds a fresh replica at engine-global
    index ``position`` (for SUSHI pools: a clone of the group's stack —
    cold Persistent Buffer, shared latency table); ``positions`` are the
    group's replicas in the engine's initial pool.  ``cost_weight`` is the
    group's price in weighted replica-seconds per replica-second (the unit
    of the pool-wide cost budget); ``startup_delay_ms`` is how long a
    scale-up replica provisions before it can serve.  Both come from the
    group's validated ``ReplicaGroupSpec``.
    """

    name: str | None
    replica_factory: Callable[[int], object]
    positions: tuple[int, ...]
    cost_weight: float = 1.0
    startup_delay_ms: float = 0.0


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

    Built from a validated :class:`~repro.serving.spec.AutoscalerSpec` and
    the :class:`ScaledGroup`\\ s it manages (unique names, declaration
    order).  The spec supplies the policy (``spec.build_policy()``, a
    fresh instance per controller, since the controller derives into it
    and drives its per-run state), the control interval, the per-group
    ``[min_replicas, max_replicas]`` bounds, the directional cooldowns and
    the cost budget.  Two values are derived when the spec leaves them
    ``None``:

    * a predictive policy's ``horizon_ms`` — the slowest group's cold start
      plus one control interval (the soonest a decision can land);
    * the telemetry window — twice the control interval; for a predictive
      policy ``max(2 x interval, 2 x horizon)``, so its slope estimate
      spans at least twice the forecast horizon.
    """

    def __init__(self, spec: AutoscalerSpec, groups: Sequence[ScaledGroup]) -> None:
        self.spec = spec
        self.policy = spec.build_policy()
        self.groups = tuple(groups)
        # A float whatever the JSON spelled: tick times and the report must
        # not depend on whether the interval was written ``6`` or ``6.0``.
        self.control_interval_ms = interval = float(spec.control_interval_ms)
        if isinstance(self.policy, PredictivePolicy) and self.policy.horizon_ms is None:
            self.policy.horizon_ms = interval + max(
                g.startup_delay_ms for g in self.groups
            )
        if spec.window_ms is not None:
            window = float(spec.window_ms)
        else:
            # A predictive policy's slope estimate must span at least twice
            # its horizon, or the extrapolation amplifies Poisson noise into
            # scaling thrash.
            window = 2.0 * interval
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
        set, every control tick emits one decision record per group.  Set
        it through :meth:`begin_run`."""
        self.keep_metrics = False
        """When True, every tick's :class:`MetricsSnapshot` is appended to
        :attr:`metrics_history` (opt-in via ``ObservabilitySpec``)."""
        self.metrics_history: list[MetricsSnapshot] = []

    def begin_run(self, recorder) -> None:
        """Attach the run's flight recorder (or None) and size the bus's feed.

        The bus tracks every snapshot field when the run keeps its snapshots
        or records its decisions (both read the whole snapshot), and only
        the policy's :attr:`~repro.serving.autoscale.policies.ScalingPolicy.reads`
        otherwise.
        """
        self.recorder = recorder
        if recorder is not None or self.keep_metrics:
            self.bus.track(SNAPSHOT_FIELDS)
        else:
            self.bus.track(self.policy.reads)

    # ------------------------------------------------------------- decisions
    def decide_pool(
        self, snapshot: MetricsSnapshot, statuses: Sequence[GroupStatus]
    ) -> dict[str | None, int]:
        """Desired size per scaled group (after clamp, budget and cooldown).

        ``statuses`` must align with :attr:`groups` (same names, same order).
        """
        self._num_controls += 1
        if self.keep_metrics:
            self.metrics_history.append(snapshot)
        spec = self.spec
        # The policy is asked at every tick, even one that holds: the
        # predictive policy keeps state across ticks.
        desired_map, reason = self.policy.desired_by_group(
            snapshot, statuses, cost_budget=spec.cost_budget
        )
        desired = {}
        holds = True
        pool = 0
        for s in statuses:
            incoming = s.num_incoming
            pool += incoming
            size = max(s.min_replicas, min(s.max_replicas, desired_map[s.name]))
            desired[s.name] = size
            if size != incoming:
                holds = False
        if pool > self._peak:
            self._peak = pool
        if holds and self.recorder is None and spec.cost_budget is None:
            # Every group holds: no event, no recorder line and no budget
            # trim can follow, and the peak already counts the pool.
            return desired
        # Record each decision-pipeline stage so events (and the flight
        # recorder) can explain the final action: raw policy ask, after
        # the [min, max] clamp, after the cost-budget trim.
        raw = {s.name: int(desired_map[s.name]) for s in statuses}
        clamped = dict(desired)
        if spec.cost_budget is None:
            budgeted = clamped  # neither is written below
        else:
            self._enforce_budget(desired, statuses, spec.cost_budget)
            budgeted = dict(desired)

        def stages(name: str | None) -> dict[str, int]:
            return {
                "policy_desired": raw[name],
                "clamped_desired": clamped[name],
                "budget_desired": budgeted[name],
            }

        now = snapshot.time_ms
        ups = [s for s in statuses if desired[s.name] > s.num_incoming]
        downs = [s for s in statuses if desired[s.name] < s.num_incoming]
        # Cooldowns are directional and pool-wide; a blocked change is
        # logged per group (same from/to units as scale events) so the
        # event log can always be replayed group by group.
        held: list[GroupStatus] = []
        if ups and now - self._last_up_ms < spec.up_cooldown_ms:
            for s in ups:
                desired[s.name] = s.num_incoming
                self._log(
                    now, "held", s.num_incoming, s.num_incoming,
                    f"up cooldown ({reason})", group=s.name, **stages(s.name),
                )
            held += ups
            ups = []
        if downs and now - self._last_down_ms < spec.down_cooldown_ms:
            for s in downs:
                desired[s.name] = s.num_incoming
                self._log(
                    now, "held", s.num_incoming, s.num_incoming,
                    f"down cooldown ({reason})", group=s.name, **stages(s.name),
                )
            held += downs
            downs = []
        if ups:
            self._last_up_ms = now
        if downs:
            self._last_down_ms = now
        for s in ups:
            self._log(
                now, "scale_up", s.num_incoming, desired[s.name],
                reason, group=s.name, **stages(s.name),
            )
        for s in downs:
            self._log(
                now, "scale_down", s.num_incoming, desired[s.name],
                reason, group=s.name, **stages(s.name),
            )
        if self.recorder is not None:
            actions = {s.name: "scale_up" for s in ups}
            actions.update((s.name, "scale_down") for s in downs)
            actions.update((s.name, "held") for s in held)
            for s in statuses:
                self.recorder.on_decision(
                    time_ms=now,
                    group=s.name,
                    policy=self.policy.name,
                    reason=reason,
                    num_active=s.num_active,
                    num_provisioning=s.num_provisioning,
                    num_draining=s.num_draining,
                    queue_depth=s.queue_depth,
                    final_desired=desired[s.name],
                    action=actions.get(s.name, "hold"),
                    snapshot=snapshot,
                    **stages(s.name),
                )
        self._peak = max(self._peak, sum(desired.values()))
        return desired

    def _enforce_budget(
        self,
        desired: dict[str | None, int],
        statuses: Sequence[GroupStatus],
        budget: float,
    ) -> None:
        """Trim growth so the weighted pool stays within the cost budget.

        Reductions already in ``desired`` are kept (they free budget);
        increases are cut back toward the incoming count, most expensive
        group first, until the weighted total fits.  The budget never
        forces a group below what is already incoming — shedding running
        capacity is the policy's decision, not the accountant's.
        """
        def weighted() -> float:
            return sum(s.cost_weight * desired[s.name] for s in statuses)

        # Most expensive first; ties keep declaration order (stable sort).
        for s in sorted(statuses, key=lambda s: -s.cost_weight):
            while (
                weighted() > budget + 1e-9
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
            cost_budget=self.spec.cost_budget,
            final_by_group=tuple(final_by_group),
        )
