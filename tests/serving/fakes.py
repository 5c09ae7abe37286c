"""Synthetic backends and a one-group autoscaler shared by the serving tests."""

from __future__ import annotations

from repro.serving.autoscale import AutoscaleController, ScaledGroup
from repro.serving.query import QueuedQuery
from repro.serving.spec import AutoscalerSpec


class ConstantServer:
    """Backend with a fixed service time and accuracy.

    Records what every dispatch handed it: ``effective_budgets`` (the
    remaining latency budget) and ``accuracy_floors`` (the query's accuracy
    constraint, after any brownout relaxation).
    """

    def __init__(self, service_ms: float = 10.0, accuracy: float = 0.78) -> None:
        self.service_ms = service_ms
        self.accuracy = accuracy
        self.effective_budgets: list[float] = []
        self.accuracy_floors: list[float] = []

    def serve_query(self, query, budget_ms, accuracy_floor):
        self.effective_budgets.append(budget_ms)
        self.accuracy_floors.append(accuracy_floor)
        return ("synthetic", self.accuracy, float(self.service_ms), 0.0, 0.0, 0.0)


def member(arrival_ms: float) -> tuple:
    """An in-service pickup member whose query arrived at ``arrival_ms``.

    ``TelemetryBus.on_pickup`` reads only a member's item (its first field).
    """
    return (QueuedQuery(0, 0.5, 10.0, arrival_ms),)


def single_group_autoscaler(
    replica_factory, positions=(0,), *, startup_delay_ms=0.0, **spec_fields
):
    """A controller scaling one unnamed group, configured by ``AutoscalerSpec``
    fields (the policy, its knobs, the interval, bounds and cooldowns)."""
    return AutoscaleController(
        AutoscalerSpec(**spec_fields),
        [
            ScaledGroup(
                None, replica_factory, tuple(positions), startup_delay_ms=startup_delay_ms
            )
        ],
    )
