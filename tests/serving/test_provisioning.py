"""Tests for predictive + tier-aware autoscaling and the cold-start model.

Four layers: the PROVISIONING replica lifecycle (cold scale-ups join
routing late, scale-downs cancel pending provisions, ``reset()`` discards
them), the predictive policy (forecast math, warm-up holds, smoothing
state), the tier-aware policy (grow cheapest within budget / shed most
expensive), and the declarative path (spec validation, round-trips, the
``frontier_predictive`` acceptance bar).  With ``startup_delay_ms=0`` no
replica ever provisions and repeat runs replay identically (property-tested
with hypothesis over random bursty traces); the golden records pin that
path to the pre-cold-start control plane.
"""

from __future__ import annotations

import numpy as np
import pytest
from fakes import ConstantServer, single_group_autoscaler
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policies import Policy
from repro.serving import (
    ArrivalSpec,
    AutoscaleController,
    AutoscalerSpec,
    ReplicaGroupSpec,
    ScenarioSpec,
    WorkloadSpec,
    run_scenario,
)
from repro.serving.autoscale import (
    GroupStatus,
    MetricsSnapshot,
    PredictivePolicy,
    ReactivePolicy,
    ScaledGroup,
    TelemetryBus,
    TierAwarePolicy,
    make_policy,
)
from repro.serving.engine import AcceleratorReplica, ServingEngine
from repro.serving.engine.events import EventKind
from repro.serving.query import QueryTrace

SUPERNET = "ofa_mobilenetv3"


def make_trace(n, *, latency_ms=30.0):
    return QueryTrace([0.77] * n, [latency_ms] * n)


def bursty_arrivals(n, *, quiet_ms=300.0, quiet_rate=0.02, burst_ms=150.0,
                    burst_rate=0.5, seed=0):
    rng = np.random.default_rng(seed)
    times, t = [], 0.0
    period = quiet_ms + burst_ms
    while len(times) < n:
        rate = quiet_rate if (t % period) < quiet_ms else burst_rate
        t += rng.exponential(1.0 / rate)
        times.append(t)
    return np.asarray(times[:n])


def snapshot(**overrides) -> MetricsSnapshot:
    base = dict(
        time_ms=1000.0,
        window_ms=100.0,
        num_active=2,
        num_draining=0,
        queue_depth=0,
        arrival_rate_per_ms=0.1,
        drop_rate=0.0,
        utilization=0.5,
        p95_wait_ms=0.0,
        mean_service_ms=10.0,
    )
    base.update(overrides)
    return MetricsSnapshot(**base)


def delayed_engine(*, startup_delay_ms, policy="reactive", **spec_fields):
    defaults = dict(control_interval_ms=25.0, min_replicas=1, max_replicas=6)
    defaults.update(spec_fields)
    ctl = single_group_autoscaler(
        lambda pos: AcceleratorReplica(ConstantServer(), discipline="edf"),
        startup_delay_ms=startup_delay_ms,
        policy=policy,
        **defaults,
    )
    return ServingEngine(
        [AcceleratorReplica(ConstantServer(), discipline="edf")],
        router="jsq",
        admission="drop_expired",
        autoscaler=ctl,
    )


# -------------------------------------------------------- telemetry forecast
class TestForecastTelemetry:
    def test_rate_slope_detects_ramp(self):
        bus = TelemetryBus(window_ms=100.0)
        # 2 arrivals in the older half, 8 in the recent half.
        for t in (110.0, 130.0):
            bus.on_arrival(t)
        for t in np.linspace(151.0, 195.0, 8):
            bus.on_arrival(float(t))
        snap = bus.snapshot(200.0, num_active=1)
        assert snap.arrival_rate_slope_per_ms2 == pytest.approx(
            (8 - 2) / 50.0 / 50.0
        )
        # Extrapolation: rate + slope x (window/2 + horizon).
        assert snap.forecast_rate_per_ms(100.0) == pytest.approx(
            snap.arrival_rate_per_ms
            + snap.arrival_rate_slope_per_ms2 * (50.0 + 100.0)
        )

    def test_flat_rate_has_zero_slope(self):
        bus = TelemetryBus(window_ms=100.0)
        for t in np.arange(100.0, 200.0, 10.0):
            bus.on_arrival(float(t))
        snap = bus.snapshot(200.0, num_active=1)
        assert snap.arrival_rate_slope_per_ms2 == pytest.approx(0.0)

    def test_forecast_floor_at_zero(self):
        snap = snapshot(arrival_rate_per_ms=0.01, arrival_rate_slope_per_ms2=-1.0)
        assert snap.forecast_rate_per_ms(100.0) == 0.0

    def test_num_provisioning_passthrough(self):
        bus = TelemetryBus(window_ms=50.0)
        snap = bus.snapshot(100.0, num_active=2, num_provisioning=3)
        assert snap.num_provisioning == 3
        assert snap.num_incoming == 5


# -------------------------------------------------------- predictive policy
class TestPredictivePolicy:
    def test_sizes_for_forecast_demand(self):
        policy = PredictivePolicy(
            horizon_ms=100.0, target_utilization=0.5, smoothing=1.0
        )
        # rate 0.1/ms rising at 5e-4/ms²: forecast at window/2 + horizon
        # = 150ms ahead -> 0.175/ms; x 10ms service = 1.75 busy replicas
        # -> 4 replicas at 50% target.
        desired, reason = policy.desired_replicas(
            snapshot(arrival_rate_slope_per_ms2=5e-4)
        )
        assert desired == 4
        assert "forecast" in reason

    def test_backlog_correction_adds_demand(self):
        lazy = PredictivePolicy(
            horizon_ms=100.0, target_utilization=0.5, smoothing=1.0
        )
        base, _ = lazy.desired_replicas(snapshot())
        backlogged = PredictivePolicy(
            horizon_ms=100.0, target_utilization=0.5, smoothing=1.0
        )
        # 20 queued x 10ms / 100ms horizon = 2 extra busy replicas -> +4.
        more, _ = backlogged.desired_replicas(snapshot(queue_depth=20))
        assert more == base + 4

    def test_holds_without_service_evidence(self):
        policy = PredictivePolicy(horizon_ms=50.0)
        desired, reason = policy.desired_replicas(
            snapshot(mean_service_ms=0.0, num_provisioning=1)
        )
        assert desired == 3  # num_incoming
        assert "evidence" in reason

    def test_holds_while_warming_up(self):
        policy = PredictivePolicy(horizon_ms=500.0)
        desired, reason = policy.desired_replicas(snapshot(time_ms=100.0))
        assert desired == 2
        assert "warming" in reason

    def test_deadband_holds(self):
        policy = PredictivePolicy(
            horizon_ms=0.0, target_utilization=0.5, deadband=0.2, smoothing=1.0
        )
        # demand = 0.1 x 10 = 1.0 over 2 incoming -> implied 0.5 == target.
        desired, reason = policy.desired_replicas(snapshot())
        assert desired == 2
        assert "within deadband" in reason

    def test_smoothing_damps_and_reset_clears(self):
        policy = PredictivePolicy(
            horizon_ms=0.0, target_utilization=0.5, deadband=0.0, smoothing=0.5
        )
        first, _ = policy.desired_replicas(snapshot())
        # A spike is averaged with the remembered demand, not taken raw.
        spiky = snapshot(arrival_rate_per_ms=0.4)
        smoothed, _ = policy.desired_replicas(spiky)
        policy.reset()
        policy_fresh = PredictivePolicy(
            horizon_ms=0.0, target_utilization=0.5, deadband=0.0, smoothing=0.5
        )
        raw, _ = policy_fresh.desired_replicas(spiky)
        assert first == 2
        assert smoothed < raw
        # After reset the EMA restarts: identical input, identical output.
        assert policy.desired_replicas(spiky)[0] == raw

    def test_controller_injects_horizon_and_window(self):
        ctl = single_group_autoscaler(
            lambda pos: AcceleratorReplica(ConstantServer()),
            startup_delay_ms=90.0,
            policy="predictive",
            control_interval_ms=10.0,
        )
        assert ctl.policy.horizon_ms == pytest.approx(100.0)
        # Default window spans two horizons, not two control intervals.
        assert ctl.bus.window_ms == pytest.approx(200.0)

    def test_explicit_horizon_kept(self):
        ctl = single_group_autoscaler(
            lambda pos: AcceleratorReplica(ConstantServer()),
            startup_delay_ms=90.0,
            policy="predictive",
            horizon_ms=42.0,
            control_interval_ms=10.0,
        )
        assert ctl.policy.horizon_ms == 42.0

    @pytest.mark.parametrize(
        "factory",
        [
            # Knobs the AutoscalerSpec declares are checked there, where
            # every policy is built from; smoothing has no spec field.
            lambda: AutoscalerSpec(policy="predictive", horizon_ms=-1.0),
            lambda: AutoscalerSpec(policy="predictive", target_utilization=0.0),
            lambda: AutoscalerSpec(policy="predictive", deadband=1.0),
            lambda: PredictivePolicy(smoothing=0.0),
            lambda: PredictivePolicy(smoothing=1.5),
        ],
    )
    def test_invalid_rejected(self, factory):
        with pytest.raises(ValueError):
            factory()


# -------------------------------------------------------- tier-aware policy
def group_status(name, *, cost_weight=1.0, num_active=1, num_provisioning=0,
                 min_replicas=1, max_replicas=6, **kwargs):
    return GroupStatus(
        name=name,
        cost_weight=cost_weight,
        startup_delay_ms=kwargs.get("startup_delay_ms", 0.0),
        min_replicas=min_replicas,
        max_replicas=max_replicas,
        num_active=num_active,
        num_provisioning=num_provisioning,
        num_draining=kwargs.get("num_draining", 0),
        queue_depth=kwargs.get("queue_depth", 0),
    )


class TestTierAwarePolicy:
    def make_groups(self):
        return (
            group_status("big", cost_weight=2.0, num_active=1, max_replicas=4),
            group_status("small", cost_weight=1.0, num_active=2, max_replicas=6),
        )

    def test_grows_cheapest_tier_on_distress(self):
        policy = TierAwarePolicy()
        desired, reason = policy.desired_by_group(
            snapshot(drop_rate=0.5, num_active=3), self.make_groups()
        )
        assert desired == {"big": 1, "small": 3}
        assert "small" in reason

    def test_budget_steers_growth_to_fitting_tier(self):
        policy = TierAwarePolicy()
        groups = (
            group_status("cheap", cost_weight=1.0, num_active=6, max_replicas=6),
            group_status("pricey", cost_weight=2.0, num_active=1, max_replicas=4),
        )
        # cheap is at max; pricey fits the budget (8 + 2 <= 10).
        desired, _ = policy.desired_by_group(
            snapshot(drop_rate=0.5, num_active=7), groups, cost_budget=10.0
        )
        assert desired == {"cheap": 6, "pricey": 2}
        # With a tight budget nothing fits: hold, and say why.
        held, reason = policy.desired_by_group(
            snapshot(drop_rate=0.5, num_active=7), groups, cost_budget=8.0
        )
        assert held == {"cheap": 6, "pricey": 1}
        assert "budget" in reason

    def test_sheds_most_expensive_tier_when_idle(self):
        policy = TierAwarePolicy(min_utilization=0.4)
        groups = (
            group_status("big", cost_weight=2.0, num_active=2),
            group_status("small", cost_weight=1.0, num_active=2),
        )
        desired, reason = policy.desired_by_group(
            snapshot(utilization=0.1, num_active=4), groups
        )
        assert desired == {"big": 1, "small": 2}
        assert "big" in reason

    def test_provisioning_counts_as_incoming(self):
        policy = TierAwarePolicy()
        groups = (
            group_status("big", cost_weight=2.0, num_active=1),
            group_status(
                "small", cost_weight=1.0, num_active=1, num_provisioning=2
            ),
        )
        desired, _ = policy.desired_by_group(
            snapshot(drop_rate=0.5, num_active=2, num_provisioning=2), groups
        )
        assert desired["small"] == 4  # 1 active + 2 provisioning + 1 new

    def test_single_group_policies_reject_multi(self):
        with pytest.raises(ValueError, match="tier_aware"):
            ReactivePolicy().desired_by_group(snapshot(), self.make_groups())

    def test_desired_replicas_needs_groups(self):
        with pytest.raises(ValueError, match="per-group"):
            TierAwarePolicy().desired_replicas(snapshot())

    def test_make_policy_knows_new_names(self):
        assert make_policy("predictive").name == "predictive"
        assert make_policy("tier_aware").name == "tier_aware"


# ----------------------------------------------- provisioning in the engine
class TestProvisioningLifecycle:
    def test_cold_replica_joins_after_delay(self):
        engine = delayed_engine(startup_delay_ms=60.0)
        trace = make_trace(400)
        result = engine.run(trace, bursty_arrivals(400))
        report = result.autoscale
        assert report.num_scale_ups > 0
        # Scale-up replicas exist and some of them served after warming.
        grown = engine.replicas[1:]
        assert grown and any(r.stats.num_served > 0 for r in grown)
        # Nothing is served by a replica before its provisioning window
        # ends: every grown replica's first dispatch is at/after ready time.
        for replica in grown:
            first_start = min(
                (o.start_ms for o in result.outcomes
                 if o.replica_index == replica.index),
                default=None,
            )
            if first_start is not None:
                assert first_start >= replica.activated_ms + 60.0 - 1e-9

    def test_provisioning_time_is_paid_for(self):
        engine = delayed_engine(startup_delay_ms=60.0)
        trace = make_trace(400)
        result = engine.run(trace, bursty_arrivals(400))
        zero = delayed_engine(startup_delay_ms=0.0)
        base = zero.run(trace, bursty_arrivals(400))
        # Cold starts cost replica-seconds without serving: the delayed run
        # cannot be cheaper than serving the same decisions instantly would
        # make it better-attaining.
        assert result.replica_seconds > 0
        for replica in engine.replicas[1:]:
            assert replica.stats.active_ms >= 0.0
        # And the delay hurts attainment relative to instant scale-up.
        assert result.slo_attainment <= base.slo_attainment

    def test_scale_down_cancels_provisioning_first(self):
        # One provisioning replica, then force a scale-down decision while
        # it is still cold: the pending replica retires unserved, and its
        # stale PROVISIONING event is ignored.
        ctl = single_group_autoscaler(
            lambda pos: AcceleratorReplica(ConstantServer(), discipline="edf"),
            startup_delay_ms=1000.0,  # never finishes within the run
            control_interval_ms=10.0,
            min_replicas=1,
            max_replicas=4,
        )
        engine = ServingEngine(
            [AcceleratorReplica(ConstantServer(), discipline="edf")],
            router="jsq",
            admission="drop_expired",
            autoscaler=ctl,
        )
        # A short burst triggers a scale-up; the following quiet triggers
        # the scale-down while the clone still provisions.
        trace = make_trace(60, latency_ms=1e9)
        arrivals = np.concatenate(
            [np.linspace(1.0, 30.0, 30), np.linspace(300.0, 800.0, 30)]
        )
        result = engine.run(trace, arrivals)
        assert result.autoscale.num_scale_ups > 0
        assert result.autoscale.num_scale_downs > 0
        cancelled = [
            r
            for r in engine.replicas[1:]
            if r.is_retired and r.stats.num_served == 0
        ]
        assert cancelled, "the cold replica should be cancelled unserved"
        for replica in cancelled:
            assert not replica.provisioning
            # It still cost money from request to cancellation.
            assert replica.retired_at_ms > replica.activated_ms
        # Every query was still served exactly once.
        assert result.num_served == 60

    def test_reset_discards_pending_provisions(self):
        engine = delayed_engine(startup_delay_ms=500.0)
        trace = make_trace(300)
        arrivals = bursty_arrivals(300)
        first = engine.run(trace, arrivals)
        assert any(r.provisioning for r in engine.replicas) or len(
            engine.replicas
        ) > 1
        engine.reset()
        assert len(engine.replicas) == 1
        assert not any(r.provisioning for r in engine.replicas)
        second = engine.run(trace, arrivals)
        assert first.records == second.records
        assert first.dropped == second.dropped
        assert first.replica_seconds == second.replica_seconds
        assert first.autoscale.events == second.autoscale.events

    def test_provisioning_event_has_priority_before_control(self):
        assert EventKind.COMPLETION < EventKind.ARRIVAL
        assert EventKind.ARRIVAL < EventKind.PROVISIONING
        assert EventKind.PROVISIONING < EventKind.CONTROL

    @settings(max_examples=15, deadline=None)
    @given(
        n=st.integers(50, 200),
        quiet_rate=st.floats(0.01, 0.05),
        burst_rate=st.floats(0.2, 0.6),
        interval=st.floats(5.0, 60.0),
        seed=st.integers(0, 100),
    )
    def test_zero_delay_never_provisions(
        self, n, quiet_rate, burst_rate, interval, seed
    ):
        """startup_delay_ms=0 scales up instantly: no replica ever enters
        the provisioning state, and a repeat run replays the same records,
        events and costs (the pinned golden records hold the same path
        bit-identical to the pre-cold-start control plane)."""
        trace = make_trace(n)
        arrivals = bursty_arrivals(
            n, quiet_rate=quiet_rate, burst_rate=burst_rate, seed=seed
        )
        engine = delayed_engine(startup_delay_ms=0.0, control_interval_ms=interval)
        a = engine.run(trace, arrivals)
        assert not any(r.provisioning for r in engine.replicas)
        assert all(r.provision_ready_ms is None for r in engine.replicas)
        b = engine.run(trace, arrivals)
        assert a.records == b.records
        assert a.dropped == b.dropped
        assert a.replica_seconds == b.replica_seconds
        assert a.autoscale.events == b.autoscale.events


# ----------------------------------------------------- tier-aware lifecycle
class TestTierEngine:
    def build(self, *, cost_budget=None, small_delay=0.0):
        big = ScaledGroup(
            name="big",
            replica_factory=lambda pos: AcceleratorReplica(
                ConstantServer(8.0), discipline="edf", cost_weight=2.0
            ),
            positions=(0,),
            cost_weight=2.0,
        )
        small = ScaledGroup(
            name="small",
            replica_factory=lambda pos: AcceleratorReplica(
                ConstantServer(12.0), discipline="edf", cost_weight=1.0
            ),
            positions=(1,),
            startup_delay_ms=small_delay,
        )
        ctl = AutoscaleController(
            AutoscalerSpec(
                policy="tier_aware",
                groups=("big", "small"),
                control_interval_ms=20.0,
                max_replicas=6,
                down_cooldown_ms=40.0,
                cost_budget=cost_budget,
            ),
            (big, small),
        )
        engine = ServingEngine(
            [
                AcceleratorReplica(ConstantServer(8.0), discipline="edf", cost_weight=2.0),
                AcceleratorReplica(ConstantServer(12.0), discipline="edf", cost_weight=1.0),
            ],
            router="jsq",
            admission="drop_expired",
            autoscaler=ctl,
        )
        return engine

    def test_grows_cheap_tier_and_respects_budget(self):
        engine = self.build(cost_budget=8.0)
        trace = make_trace(500, latency_ms=40.0)
        result = engine.run(trace, bursty_arrivals(500))
        events = result.autoscale.events
        ups = [e for e in events if e.action == "scale_up"]
        assert ups and all(e.group == "small" for e in ups)
        # weighted incoming never exceeds the budget: big 1x2 + small <= 6
        # = 8; the big tier can never grow (2 more would break the budget).
        assert not any(
            e.group == "big" and e.action == "scale_up" for e in events
        )
        assert result.weighted_replica_seconds > result.replica_seconds * 0  # defined
        assert result.autoscale.cost_budget == 8.0
        groups = dict(result.autoscale.final_by_group)
        assert set(groups) == {"big", "small"}

    def test_weighted_cost_accounts_tier_prices(self):
        engine = self.build()
        trace = make_trace(300, latency_ms=40.0)
        result = engine.run(trace, bursty_arrivals(300))
        by_weight = {}
        for s in result.replica_stats:
            by_weight.setdefault(s.cost_weight, 0.0)
            by_weight[s.cost_weight] += s.active_ms
        expected = sum(w * ms for w, ms in by_weight.items()) / 1000.0
        assert result.weighted_replica_seconds == pytest.approx(expected)
        assert result.weighted_replica_seconds > result.replica_seconds

    def test_repeat_run_identical(self):
        engine = self.build(cost_budget=8.0, small_delay=30.0)
        trace = make_trace(400, latency_ms=40.0)
        arrivals = bursty_arrivals(400)
        first = engine.run(trace, arrivals)
        second = engine.run(trace, arrivals)
        assert first.records == second.records
        assert first.autoscale.events == second.autoscale.events
        assert first.weighted_replica_seconds == second.weighted_replica_seconds

    @pytest.mark.parametrize(
        "positions, message",
        [
            (((0,), (0,)), "two scaled groups"),
            (((0,), (2,)), "outside the initial pool"),
            (((0,), (-1,)), "outside the initial pool"),
        ],
    )
    def test_scaled_positions_validated(self, positions, message):
        ctl = AutoscaleController(
            AutoscalerSpec(policy="tier_aware", groups=("a", "b")),
            [
                ScaledGroup(name, lambda pos: None, members)
                for name, members in zip("ab", positions)
            ],
        )
        with pytest.raises(ValueError, match=message):
            ServingEngine(
                [AcceleratorReplica(ConstantServer()) for _ in range(2)],
                autoscaler=ctl,
            )


# ------------------------------------------------------- declarative layer
class TestSpecFields:
    def test_group_fields_roundtrip(self):
        import json

        group = ReplicaGroupSpec(
            count=2, cost_weight=2.5, startup_delay_ms=12.0, name="tier"
        )
        back = ReplicaGroupSpec.from_dict(json.loads(json.dumps(group.to_dict())))
        assert back == group

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(cost_weight=0.0),
            dict(cost_weight=-1.0),
            dict(startup_delay_ms=-1.0),
        ],
    )
    def test_invalid_group_fields_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ReplicaGroupSpec(**kwargs)

    @pytest.mark.parametrize(
        "spec",
        [
            AutoscalerSpec(policy="predictive", horizon_ms=40.0),
            AutoscalerSpec(policy="predictive"),
            AutoscalerSpec(
                policy="tier_aware",
                groups=("big", "small"),
                cost_budget=8.0,
            ),
            AutoscalerSpec(policy="tier_aware", group="pool"),
        ],
    )
    def test_autoscaler_roundtrip(self, spec):
        import json

        back = AutoscalerSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert back == spec

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(policy="reactive", horizon_ms=10.0),
            dict(policy="predictive", horizon_ms=-1.0),
            dict(policy="reactive", groups=("a",)),
            dict(policy="tier_aware", groups=("a", "a")),
            dict(policy="tier_aware", group="a", groups=("b",)),
            dict(policy="reactive", cost_budget=4.0),
            dict(policy="tier_aware", cost_budget=0.0),
        ],
    )
    def test_invalid_autoscaler_rejected(self, kwargs):
        with pytest.raises(ValueError):
            AutoscalerSpec(**kwargs)

    def test_pr3_shape_json_parses_to_defaults(self):
        """A spec dict written before these fields existed still parses —
        and equals the spec with the new fields at their defaults."""
        modern = ScenarioSpec(
            replica_groups=(ReplicaGroupSpec(name="pool"),),
            autoscaler=AutoscalerSpec(group="pool"),
        )
        data = modern.to_dict()
        for key in ("cost_weight", "startup_delay_ms"):
            del data["replica_groups"][0][key]
        for key in ("groups", "cost_budget", "horizon_ms"):
            del data["autoscaler"][key]
        assert ScenarioSpec.from_dict(data) == modern

    def test_scenario_validates_tier_group_names(self):
        groups = (
            ReplicaGroupSpec(count=1, name="big"),
            ReplicaGroupSpec(count=1, name="small"),
        )
        spec = ScenarioSpec(
            replica_groups=groups,
            autoscaler=AutoscalerSpec(
                policy="tier_aware", groups=("big", "small")
            ),
        )
        assert [g.name for g in spec.scaled_groups()] == ["big", "small"]
        with pytest.raises(ValueError, match="names no replica group"):
            ScenarioSpec(
                replica_groups=groups,
                autoscaler=AutoscalerSpec(policy="tier_aware", groups=("huge",)),
            )


class TestFacadeTiersAndDelay:
    def scenario(self, autoscaler, *, groups, n=160):
        return ScenarioSpec(
            name="tiers",
            supernet_name=SUPERNET,
            policy=Policy.STRICT_LATENCY,
            replica_groups=groups,
            router="jsq",
            admission="drop_expired",
            workload=WorkloadSpec(
                num_queries=n, accuracy_range=None, latency_range_ms=None
            ),
            arrivals=ArrivalSpec(
                kind="time_varying", segments=((100.0, 0.5), (40.0, 6.0)), seed=0
            ),
            autoscaler=autoscaler,
            seed=0,
        )

    def test_tier_scenario_runs_with_budget_and_delay(self):
        groups = (
            ReplicaGroupSpec(
                count=1,
                discipline="edf",
                name="large",
                cost_weight=2.0,
                startup_delay_ms=5.0,
            ),
            ReplicaGroupSpec(
                count=1,
                discipline="edf",
                name="small",
                pb_kb=432.0,
                cost_weight=1.0,
                startup_delay_ms=2.0,
            ),
        )
        spec = self.scenario(
            AutoscalerSpec(
                policy="tier_aware",
                control_interval_ms=8.0,
                max_replicas=4,
                groups=("large", "small"),
                cost_budget=7.0,
            ),
            groups=groups,
        )
        result = run_scenario(spec)
        report = result.autoscale
        assert report is not None
        assert report.policy == "tier_aware"
        assert report.cost_budget == 7.0
        assert dict(report.final_by_group).keys() == {"large", "small"}
        assert result.num_offered == 160
        assert result.weighted_replica_seconds >= result.replica_seconds
        # Scale-ups favored the cheap tier under the budget.
        ups = [e for e in report.events if e.action == "scale_up"]
        assert all(e.group in ("large", "small") for e in ups)

    def test_predictive_scenario_with_cold_start(self):
        groups = (
            ReplicaGroupSpec(
                count=1, discipline="edf", name="pool", startup_delay_ms=4.0
            ),
        )
        spec = self.scenario(
            AutoscalerSpec(
                policy="predictive", control_interval_ms=2.0, max_replicas=5
            ),
            groups=groups,
            n=250,
        )
        result = run_scenario(spec)
        assert result.autoscale.num_scale_ups > 0
        assert result.num_offered == 250
        # Repeat runs are identical through the facade too.
        again = run_scenario(spec)
        assert result.records == again.records
        assert result.autoscale.events == again.autoscale.events


# ------------------------------------------------- the acceptance frontier
class TestPredictiveFrontier:
    @pytest.fixture(scope="class")
    def frontier(self):
        from repro.experiments import frontier_predictive

        return frontier_predictive.run(
            num_queries=600,
            startup_delay_units=(12.0,),
            static_counts=(1,),
            max_replicas=6,
            seed=0,
        )

    def test_predictive_beats_reactive_under_cold_start(self, frontier):
        """The ISSUE acceptance bar: with nonzero startup delay the
        predictive policy attains at least the reactive policy's SLO at
        equal or lower replica-seconds cost."""
        delay_ms = frontier.startup_delays_ms[0]
        assert delay_ms > 0
        reactive, predictive = frontier.pair(delay_ms)
        assert predictive.slo_attainment >= reactive.slo_attainment
        assert predictive.replica_seconds <= reactive.replica_seconds

    def test_autoscalers_beat_single_static(self, frontier):
        static = frontier.point("static-1")
        for p in frontier.points:
            if p.kind != "static":
                assert p.slo_attainment > static.slo_attainment

    def test_points_record_delay_and_weighted_cost(self, frontier):
        for p in frontier.points:
            if p.kind != "static":
                assert p.startup_delay_ms == frontier.startup_delays_ms[0]
            assert p.weighted_replica_seconds == pytest.approx(
                p.replica_seconds
            )  # weight-1.0 pool

    def test_report_and_json_dump(self, frontier):
        import json

        from repro.analysis.reporting import jsonable
        from repro.experiments import frontier_predictive

        text = frontier_predictive.report(frontier)
        assert "cold start" in text
        dump = jsonable(frontier)
        json.dumps(dump)
        assert dump["startup_delays_ms"] == list(frontier.startup_delays_ms)
        assert {p["label"] for p in dump["points"]} == {
            p.label for p in frontier.points
        }
