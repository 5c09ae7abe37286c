"""Autoscaling control plane over the discrete-event serving engine.

Three layers, mirroring a production autoscaler:

* **Telemetry** (:mod:`.telemetry`) — the engine feeds a
  :class:`TelemetryBus` per event; policies read sliding-window
  :class:`MetricsSnapshot`\\ s (queue depth, drop rate, utilization,
  p95 wait, arrival-rate trend).  The bus keeps and reduces only the
  fields somebody reads: the policy's ``reads``, or all of them when the
  run keeps its snapshots or records its decisions.
* **Policies** (:mod:`.policies`) — pluggable desired-size functions:
  ``reactive`` thresholds, ``target_utilization`` proportional control,
  ``predictive`` short-horizon forecast control (extrapolates the rate
  trend over the provisioning delay), a ``scheduled`` oracle plan, and
  ``tier_aware`` multi-group scaling (grow the cheapest tier that fits the
  cost budget, shed the most expensive first).
* **Controller** (:mod:`.controller`) — evaluates the policy every control
  interval over one or more :class:`ScaledGroup`\\ s, clamps each group to
  ``[min, max]``, enforces the pool-wide cost budget and cooldowns, and
  logs :class:`ScalingEvent`\\ s into an :class:`AutoscaleReport`.

The engine enacts decisions: scale-up clones the replica group's SUSHI
stack (cold Persistent Buffer, shared latency table) and — when the group
declares a ``startup_delay_ms`` — *provisions* it, joining routing only
after the cold start elapses (cost accrues from the request); scale-down
cancels provisioning replicas first, then drains a serving replica before
retiring it.  Per-replica active-time accounting turns the lifecycle into
replica-seconds *cost* metrics (optionally weighted per tier), making the
SLO-attainment-vs-cost frontier measurable (the ``frontier_autoscale`` and
``frontier_predictive`` experiments).
"""

from repro.serving.autoscale.controller import (
    AutoscaleController,
    AutoscaleReport,
    ScaledGroup,
    ScalingEvent,
)
from repro.serving.autoscale.policies import (
    POLICY_NAMES,
    GroupStatus,
    PredictivePolicy,
    ReactivePolicy,
    ScalingPolicy,
    SchedulePolicy,
    TargetUtilizationPolicy,
    TierAwarePolicy,
    make_policy,
)
from repro.serving.autoscale.telemetry import MetricsSnapshot, TelemetryBus

__all__ = [
    "AutoscaleController",
    "AutoscaleReport",
    "GroupStatus",
    "MetricsSnapshot",
    "POLICY_NAMES",
    "PredictivePolicy",
    "ReactivePolicy",
    "ScaledGroup",
    "ScalingEvent",
    "ScalingPolicy",
    "SchedulePolicy",
    "TargetUtilizationPolicy",
    "TierAwarePolicy",
    "TelemetryBus",
    "make_policy",
]
