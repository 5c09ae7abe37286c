"""Pluggable scaling policies: how many replicas *should* be serving.

A policy is a pure function from a :class:`~repro.serving.autoscale.telemetry.MetricsSnapshot`
to a desired replica count (plus a human-readable reason).  Five are
provided, spanning the classic design space:

* ``reactive`` — threshold rules on the observable distress signals: scale
  up when the windowed drop rate or per-replica queue depth crosses a
  threshold, scale down when utilization falls below a floor with an empty
  queue.  The workhorse policy: no model of the workload, reacts only to
  what already went wrong.
* ``target_utilization`` — proportional control toward a utilization
  set-point: desired = ceil(active x utilization / target), with a deadband
  so steady traffic does not oscillate.  Reacts *before* queues form, but
  needs a well-chosen target.
* ``predictive`` — short-horizon forecast control: extrapolates the
  sliding-window arrival-rate trend over the provisioning horizon
  (``startup_delay + control interval``) and sizes the pool for the
  *forecast* demand, so cold replicas are requested before the ramp needs
  them.  With ``startup_delay_ms = 0`` this degenerates to proportional
  control on the measured rate.
* ``scheduled`` — an oracle/time-of-day plan: a piecewise-constant replica
  count over (optionally cyclic) simulation time.  With the plan derived
  from the known trace this is the clairvoyant upper bound reactive
  policies are judged against.
* ``tier_aware`` — the one *multi-group* policy: given per-group cost
  weights (:class:`GroupStatus.cost_weight`) it decides **which** tier of a
  heterogeneous pool to grow or shrink — grow the cheapest tier that still
  fits the cost budget, shed the most expensive tier first — via
  :meth:`ScalingPolicy.desired_by_group`.

Invariants:

* Decisions are deterministic: a pure function of the snapshot (and, for
  multi-group policies, the per-group :class:`GroupStatus` views) plus, for
  ``predictive`` only, an exponentially smoothed demand estimate that
  ``reset()`` clears — replaying the same telemetry always reproduces the
  same decisions.  All other policies are stateless between ticks.
* Policies speak in *incoming* capacity (active + provisioning): a replica
  already requested counts toward the desired size, so a provisioning
  window is never double-filled.  With no provisioning delay this is
  exactly the active count — decisions are bit-identical to the
  pre-cold-start control plane.
* The controller clamps every decision to ``[min_replicas, max_replicas]``
  (per group), enforces the cost budget, and applies directional cooldowns;
  policies only propose.
* A policy declares the snapshot fields it reads (:attr:`ScalingPolicy.reads`,
  a class attribute no spec sets); a run that keeps no snapshots and
  records no decisions computes only those, so a policy must read no other
  field (``tests/properties/test_property_telemetry.py`` runs every
  registered policy on snapshots whose other fields raise).
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Any, Sequence

from repro.serving.autoscale.telemetry import SNAPSHOT_FIELDS, MetricsSnapshot, slot_init


@slot_init
@dataclass(frozen=True, slots=True)
class GroupStatus:
    """One scaled replica group as a policy sees it at a control tick.

    Combines the group's static configuration (cost weight, startup delay,
    size bounds) with its instantaneous pool state.  Single-group policies
    never see these; the ``tier_aware`` policy ranks them to decide which
    tier to resize.
    """

    name: str | None
    cost_weight: float
    startup_delay_ms: float
    min_replicas: int
    max_replicas: int
    num_active: int
    num_provisioning: int
    num_draining: int
    queue_depth: int
    num_failed: int = 0
    """Replicas of the group that have crashed (cumulative; already out of
    ``num_active`` — the ``min_replicas`` clamp provisions replacements, so
    policies need not act on this, but failure-aware ones may)."""

    @property
    def num_incoming(self) -> int:
        """Capacity already committed: serving now or provisioning."""
        return self.num_active + self.num_provisioning


class ScalingPolicy(abc.ABC):
    """Map windowed telemetry to a desired scalable-pool size."""

    name: str
    reads: frozenset[str] = SNAPSHOT_FIELDS
    """The :class:`MetricsSnapshot` fields the policy reads, properties'
    inputs included (``num_incoming`` reads ``num_active`` and
    ``num_provisioning``).  The telemetry bus of a run that neither keeps
    its snapshots nor records its decisions computes only these; every
    other windowed field is NaN.  Every field unless a policy narrows it."""

    @abc.abstractmethod
    def desired_replicas(self, snapshot: MetricsSnapshot) -> tuple[int, str]:
        """(desired replica count, reason) for this control tick."""

    def desired_by_group(
        self,
        snapshot: MetricsSnapshot,
        groups: Sequence[GroupStatus],
        *,
        cost_budget: float | None = None,
    ) -> tuple[dict[str | None, int], str]:
        """Desired size per scaled group (multi-tier pools).

        Single-group policies answer through :meth:`desired_replicas`; only
        policies that understand tiers (``tier_aware``) override this.  The
        cost budget is advisory here — the controller enforces it either
        way — but budget-aware policies use it to pick a tier that fits.
        """
        if len(groups) != 1:
            raise ValueError(
                f"policy {self.name!r} scales a single group; use the "
                "'tier_aware' policy for multi-group pools"
            )
        desired, reason = self.desired_replicas(snapshot)
        return {groups[0].name: desired}, reason

    def reset(self) -> None:
        """Clear any policy state between runs (default: stateless)."""


class ReactivePolicy(ScalingPolicy):
    """Threshold rules on drop rate, queue depth and utilization.

    Scale up by ``scale_up_step`` when the windowed drop rate exceeds
    ``max_drop_rate`` *or* the instantaneous queue depth exceeds
    ``max_queue_per_replica`` per active replica; scale down by
    ``scale_down_step`` when utilization sits below ``min_utilization``
    and the queue is no deeper than the active replica count (i.e. nothing
    is waiting beyond what is already being served).
    """

    name = "reactive"
    reads = frozenset(
        {"drop_rate", "queue_depth", "utilization", "num_active", "num_provisioning"}
    )

    def __init__(
        self,
        *,
        max_drop_rate: float = 0.05,
        max_queue_per_replica: float = 4.0,
        min_utilization: float = 0.40,
        scale_up_step: int = 1,
        scale_down_step: int = 1,
    ) -> None:
        self.max_drop_rate = max_drop_rate
        self.max_queue_per_replica = max_queue_per_replica
        self.min_utilization = min_utilization
        self.scale_up_step = scale_up_step
        self.scale_down_step = scale_down_step

    def desired_replicas(self, snapshot: MetricsSnapshot) -> tuple[int, str]:
        # Counts are against *incoming* capacity (active + provisioning):
        # with a startup delay a pending replica already answers the distress
        # signal, so the thresholds are judged over what was requested.  With
        # no provisioning in flight this is exactly the active count.
        incoming = snapshot.num_incoming
        queue_limit = self.max_queue_per_replica * max(incoming, 1)
        if snapshot.drop_rate > self.max_drop_rate:
            return (
                incoming + self.scale_up_step,
                f"drop_rate {snapshot.drop_rate:.3f} > {self.max_drop_rate:.3f}",
            )
        if snapshot.queue_depth > queue_limit:
            return (
                incoming + self.scale_up_step,
                f"queue_depth {snapshot.queue_depth} > {queue_limit:.1f}",
            )
        if (
            snapshot.utilization < self.min_utilization
            and snapshot.queue_depth <= incoming
        ):
            return (
                incoming - self.scale_down_step,
                f"utilization {snapshot.utilization:.3f} < {self.min_utilization:.3f}",
            )
        return incoming, "steady"


class TargetUtilizationPolicy(ScalingPolicy):
    """Proportional control toward a utilization set-point.

    ``utilization x active`` is the busy-replica-equivalent demand of the
    window; dividing by the target utilization converts demand into the pool
    size that would serve it at the set-point.  Decisions inside the
    ``deadband`` around the target are suppressed to avoid oscillation.
    """

    name = "target_utilization"
    reads = frozenset({"utilization", "num_active", "num_draining"})

    def __init__(
        self, *, target_utilization: float = 0.60, deadband: float = 0.10
    ) -> None:
        self.target_utilization = target_utilization
        self.deadband = deadband

    def desired_replicas(self, snapshot: MetricsSnapshot) -> tuple[int, str]:
        low = self.target_utilization - self.deadband
        high = self.target_utilization + self.deadband
        if low <= snapshot.utilization <= high:
            return snapshot.num_active, (
                f"utilization {snapshot.utilization:.3f} within "
                f"[{low:.2f}, {high:.2f}]"
            )
        # Utilization is measured against the capacity that produced the
        # busy time — active *and* draining replicas — so demand must be
        # un-normalized by the same count, or a burst arriving mid-drain
        # would be under-provisioned.
        capacity = max(snapshot.num_active + snapshot.num_draining, 1)
        demand = snapshot.utilization * capacity
        # The epsilon keeps float dust (0.8 * 6 / 0.6 = 8.000000000000002)
        # from ceiling into a phantom extra replica.
        desired = max(1, math.ceil(demand / self.target_utilization - 1e-9))
        return desired, (
            f"utilization {snapshot.utilization:.3f} -> "
            f"{desired} at target {self.target_utilization:.2f}"
        )


class SchedulePolicy(ScalingPolicy):
    """A piecewise-constant replica plan over simulation time.

    ``schedule`` is a sequence of ``(start_ms, replicas)`` entries sorted by
    start time; the plan holds each count from its start until the next
    entry.  With ``period_ms`` the plan cycles (diurnal days); before the
    first entry of a non-cyclic plan the first entry's count applies.

    Fed from the *known* arrival trace this is the oracle baseline: it
    provisions for load the reactive policies can only discover after the
    queues have already grown.
    """

    name = "scheduled"
    reads = frozenset({"time_ms"})

    def __init__(
        self,
        schedule: Sequence[tuple[float, int]],
        *,
        period_ms: float | None = None,
    ) -> None:
        entries = tuple((float(t), int(n)) for t, n in schedule)
        if not entries:
            raise ValueError("scheduled policy needs at least one (time, count) entry")
        if list(entries) != sorted(entries, key=lambda e: e[0]):
            raise ValueError("schedule entries must be sorted by start time")
        if period_ms is not None and period_ms <= entries[-1][0]:
            raise ValueError("period_ms must exceed the last schedule entry start")
        self.schedule = entries
        self.period_ms = period_ms

    def desired_replicas(self, snapshot: MetricsSnapshot) -> tuple[int, str]:
        t = snapshot.time_ms
        if self.period_ms is not None:
            t = t % self.period_ms
        desired = self.schedule[0][1]
        if self.period_ms is not None and t < self.schedule[0][0]:
            # Inside a cycle but before its first entry: the tail of the
            # previous cycle is still in effect.
            desired = self.schedule[-1][1]
        for start, count in self.schedule:
            if t >= start:
                desired = count
        return desired, f"plan at t={t:.1f}ms"


class PredictivePolicy(ScalingPolicy):
    """Forecast-driven proportional control: provision for the load expected
    *after* the provisioning delay, not the load measured now.

    At every tick the policy extrapolates the sliding-window arrival-rate
    trend (:attr:`MetricsSnapshot.arrival_rate_slope_per_ms2`) over
    ``horizon_ms`` — the time a cold replica needs before it can serve
    (startup delay plus one control interval; the controller fills it in
    when left ``None``) — converts the forecast rate into busy-replica
    demand via the windowed mean service time, and sizes the pool so the
    forecast runs at ``target_utilization``.  A ``deadband`` around the
    set-point suppresses churn on flat traffic.

    On a ramp the slope term requests replicas one horizon early, so they
    finish provisioning as the load lands; on a decline it sheds ahead of
    the reactive policy's utilization floor.  With ``horizon_ms = 0`` and a
    flat rate this degenerates to ``target_utilization`` control on the
    measured rate.

    The raw extrapolation is noisy (a Poisson window's two halves differ by
    luck alone, and the horizon multiplies the error), so the demand
    estimate is exponentially smoothed across ticks: ``smoothing`` is the
    weight of the newest observation (1.0 disables smoothing).  The EMA is
    the policy's only state; ``reset()`` clears it, keeping repeated runs
    identical.
    """

    name = "predictive"
    reads = frozenset(
        {
            "mean_service_ms", "arrival_rate_per_ms", "arrival_rate_slope_per_ms2",
            "queue_depth", "time_ms", "window_ms", "num_active", "num_provisioning",
        }
    )

    def __init__(
        self,
        *,
        horizon_ms: float | None = None,
        target_utilization: float = 0.60,
        deadband: float = 0.10,
        smoothing: float = 0.4,
    ) -> None:
        if not (0.0 < smoothing <= 1.0):
            raise ValueError("smoothing must be in (0, 1]")
        self.horizon_ms = horizon_ms
        self.target_utilization = target_utilization
        self.deadband = deadband
        self.smoothing = smoothing
        self._smoothed_demand: float | None = None

    def reset(self) -> None:
        self._smoothed_demand = None

    def desired_replicas(self, snapshot: MetricsSnapshot) -> tuple[int, str]:
        if snapshot.mean_service_ms <= 0.0:
            # No completions in the window yet: no service-time model to
            # convert a rate into replicas.  Hold rather than guess.
            return snapshot.num_incoming, "no service-time evidence yet"
        horizon = self.horizon_ms if self.horizon_ms is not None else 0.0
        if snapshot.time_ms < horizon:
            # The estimator itself is cold: a window shorter than the
            # horizon amplifies a handful of early arrivals into a huge
            # slope.  Hold until one horizon of evidence exists.
            return snapshot.num_incoming, "warming up the rate window"
        forecast = snapshot.forecast_rate_per_ms(horizon)
        raw = forecast * snapshot.mean_service_ms  # busy-replica equivalents
        if horizon > 0:
            # Backlog correction: a standing queue is demand the forecast
            # cannot see (dispatch-time adaptation shrinks the measured
            # service time exactly when queues grow, so the rate x service
            # product understates a backlogged pool).  Size to also drain
            # the queue within one provisioning horizon.
            raw += snapshot.queue_depth * snapshot.mean_service_ms / horizon
        if self._smoothed_demand is None:
            demand = raw
        else:
            demand = self.smoothing * raw + (1.0 - self.smoothing) * self._smoothed_demand
        self._smoothed_demand = demand
        incoming = max(snapshot.num_incoming, 1)
        implied = demand / incoming
        if (
            self.target_utilization - self.deadband
            <= implied
            <= self.target_utilization + self.deadband
        ):
            return snapshot.num_incoming, (
                f"forecast utilization {implied:.3f} within deadband of "
                f"{self.target_utilization:.2f}"
            )
        # Same epsilon as target_utilization control: float dust must not
        # ceiling into a phantom replica.
        desired = max(1, math.ceil(demand / self.target_utilization - 1e-9))
        return desired, (
            f"forecast rate {forecast:.4f}/ms over {horizon:.0f}ms horizon "
            f"-> {desired} at target {self.target_utilization:.2f}"
        )


class TierAwarePolicy(ScalingPolicy):
    """Decide *which* tier of a heterogeneous pool to resize.

    Distress and idleness are judged pool-wide with the same thresholds as
    the ``reactive`` policy; the tier decision then uses the per-group cost
    weights:

    * **Scale-up** — grow the *cheapest* group (lowest ``cost_weight``)
      that is below its ``max_replicas`` and whose weighted pool would
      still fit the cost budget after the addition.  Ties break by group
      order (the spec's declaration order).
    * **Scale-down** — shrink the *most expensive* group (highest
      ``cost_weight``) that is above its ``min_replicas``, shedding the
      priciest capacity first.  Ties break by reverse group order.

    With a single group and no budget this reduces to the reactive policy's
    one-step behavior.
    """

    name = "tier_aware"
    reads = ReactivePolicy.reads

    def __init__(
        self,
        *,
        max_drop_rate: float = 0.05,
        max_queue_per_replica: float = 4.0,
        min_utilization: float = 0.40,
    ) -> None:
        self.max_drop_rate = max_drop_rate
        self.max_queue_per_replica = max_queue_per_replica
        self.min_utilization = min_utilization

    def desired_replicas(self, snapshot: MetricsSnapshot) -> tuple[int, str]:
        raise ValueError(
            "tier_aware decisions need per-group state; call desired_by_group"
        )

    def desired_by_group(
        self,
        snapshot: MetricsSnapshot,
        groups: Sequence[GroupStatus],
        *,
        cost_budget: float | None = None,
    ) -> tuple[dict[str | None, int], str]:
        desired = {g.name: g.num_incoming for g in groups}
        incoming = snapshot.num_incoming
        weighted = sum(g.cost_weight * g.num_incoming for g in groups)
        queue_limit = self.max_queue_per_replica * max(incoming, 1)

        distress = None
        if snapshot.drop_rate > self.max_drop_rate:
            distress = f"drop_rate {snapshot.drop_rate:.3f} > {self.max_drop_rate:.3f}"
        elif snapshot.queue_depth > queue_limit:
            distress = f"queue_depth {snapshot.queue_depth} > {queue_limit:.1f}"
        if distress is not None:
            growable = [
                (g.cost_weight, i, g)
                for i, g in enumerate(groups)
                if g.num_incoming < g.max_replicas
                and (
                    cost_budget is None
                    or weighted + g.cost_weight <= cost_budget + 1e-9
                )
            ]
            if not growable:
                return desired, f"{distress}; no tier fits the budget/bounds"
            _, _, pick = min(growable, key=lambda t: (t[0], t[1]))
            desired[pick.name] += 1
            return desired, f"{distress}; grow tier {pick.name!r} (cheapest fit)"

        if snapshot.utilization < self.min_utilization and snapshot.queue_depth <= incoming:
            shrinkable = [
                (g.cost_weight, i, g)
                for i, g in enumerate(groups)
                if g.num_incoming > g.min_replicas
            ]
            if shrinkable:
                _, _, pick = max(shrinkable, key=lambda t: (t[0], t[1]))
                desired[pick.name] -= 1
                return desired, (
                    f"utilization {snapshot.utilization:.3f} < "
                    f"{self.min_utilization:.3f}; shed tier {pick.name!r} "
                    "(most expensive)"
                )
        return desired, "steady"


_POLICIES = {
    ReactivePolicy.name: ReactivePolicy,
    TargetUtilizationPolicy.name: TargetUtilizationPolicy,
    PredictivePolicy.name: PredictivePolicy,
    SchedulePolicy.name: SchedulePolicy,
    TierAwarePolicy.name: TierAwarePolicy,
}

#: Names of the registered scaling policies.
POLICY_NAMES: tuple[str, ...] = tuple(sorted(_POLICIES))


def make_policy(name: str, **kwargs: Any) -> ScalingPolicy:
    """Build the scaling policy registered as ``name`` from its knobs."""
    try:
        cls = _POLICIES[name]
    except KeyError as exc:
        raise ValueError(
            f"unknown scaling policy {name!r}; available: {sorted(_POLICIES)}"
        ) from exc
    return cls(**kwargs)
