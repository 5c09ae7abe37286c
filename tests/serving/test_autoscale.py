"""Tests for the autoscaling control plane.

Three layers under test: the telemetry bus (sliding-window metrics), the
scaling policies and controller (decisions, clamps, cooldowns), and the
engine's replica lifecycle (scale-up cloning, drain-then-retire, active-time
cost accounting) — plus the declarative ``AutoscalerSpec`` path and the
headline acceptance property: over a bursty trace the reactive autoscaler
beats the static pool of equal mean cost while costing less than the pool
sized for the peak.
"""

from __future__ import annotations

import dataclasses
import inspect

import numpy as np
import pytest
from fakes import ConstantServer, member, single_group_autoscaler

from repro.core.policies import Policy
from repro.serving import (
    ArrivalSpec,
    AutoscalerSpec,
    ReplicaGroupSpec,
    ScenarioSpec,
    TelemetryBus,
    WorkloadSpec,
    run_scenario,
)
from repro.serving.autoscale import (
    AutoscaleController,
    GroupStatus,
    MetricsSnapshot,
    ReactivePolicy,
    ScaledGroup,
    SchedulePolicy,
    TargetUtilizationPolicy,
    make_policy,
)
from repro.serving.autoscale.telemetry import slot_init
from repro.serving.engine import AcceleratorReplica, ServingEngine
from repro.serving.query import Query, QueryTrace

SUPERNET = "ofa_mobilenetv3"


def make_trace(n, *, latency_ms=30.0):
    return QueryTrace([0.77] * n, [latency_ms] * n)


def snapshot(**overrides) -> MetricsSnapshot:
    base = dict(
        time_ms=100.0,
        window_ms=50.0,
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


# --------------------------------------------------------------- telemetry
class TestTelemetryBus:
    def test_windowed_rates_and_pruning(self):
        bus = TelemetryBus(window_ms=100.0)
        for t in (10.0, 20.0, 150.0, 160.0):
            bus.on_arrival(t)
        bus.on_drop(155.0)
        snap = bus.snapshot(200.0, num_active=1)
        # Only the arrivals inside [100, 200] remain.
        assert snap.arrival_rate_per_ms == pytest.approx(2 / 100.0)
        assert snap.drop_rate == 1.0  # one drop, no dispatches in window

    def test_utilization_counts_open_and_closed_intervals(self):
        bus = TelemetryBus(window_ms=100.0)
        bus.on_pickup(100.0, 0, [member(arrival_ms=100.0)])
        bus.on_completion(140.0, 0, 40.0)
        bus.on_pickup(180.0, 1, [member(arrival_ms=175.0)])  # still open
        snap = bus.snapshot(200.0, num_active=1)
        # 40 ms closed + 20 ms open over a 100 ms window.
        assert snap.utilization == pytest.approx(0.6)
        two = bus.snapshot(200.0, num_active=2)
        assert two.utilization == pytest.approx(0.3)

    def test_window_clipped_to_elapsed_time(self):
        bus = TelemetryBus(window_ms=1000.0)
        bus.on_arrival(5.0)
        snap = bus.snapshot(10.0, num_active=1)
        assert snap.window_ms == 10.0
        assert snap.arrival_rate_per_ms == pytest.approx(0.1)

    def test_p95_wait_and_drop_rate(self):
        bus = TelemetryBus(window_ms=100.0)
        for i, wait in enumerate([1.0, 2.0, 3.0, 4.0]):
            bus.on_pickup(50.0 + i, i, [member(arrival_ms=50.0 + i - wait)])
        bus.on_drop(60.0)
        snap = bus.snapshot(100.0, num_active=4)
        assert snap.p95_wait_ms == pytest.approx(np.percentile([1, 2, 3, 4], 95))
        assert snap.drop_rate == pytest.approx(1 / 5)

    def test_reset_forgets_everything(self):
        bus = TelemetryBus(window_ms=10.0)
        bus.on_arrival(1.0)
        bus.on_drop(2.0)
        bus.reset()
        snap = bus.snapshot(5.0, num_active=1)
        assert snap.arrival_rate_per_ms == 0.0
        assert snap.drop_rate == 0.0


# ---------------------------------------------------------------- policies
class TestPolicies:
    def test_reactive_scales_up_on_drops(self):
        policy = ReactivePolicy(max_drop_rate=0.05)
        desired, reason = policy.desired_replicas(snapshot(drop_rate=0.2))
        assert desired == 3
        assert "drop_rate" in reason

    def test_reactive_scales_up_on_queue_depth(self):
        policy = ReactivePolicy(max_queue_per_replica=4.0)
        desired, _ = policy.desired_replicas(snapshot(queue_depth=9))
        assert desired == 3

    def test_reactive_scales_down_when_idle(self):
        policy = ReactivePolicy(min_utilization=0.4)
        desired, reason = policy.desired_replicas(
            snapshot(utilization=0.1, queue_depth=1)
        )
        assert desired == 1
        assert "utilization" in reason

    def test_reactive_holds_steady(self):
        policy = ReactivePolicy()
        desired, reason = policy.desired_replicas(snapshot(utilization=0.6))
        assert desired == 2
        assert reason == "steady"

    def test_reactive_no_scale_down_with_queue(self):
        policy = ReactivePolicy(min_utilization=0.4)
        desired, _ = policy.desired_replicas(
            snapshot(utilization=0.1, queue_depth=5)
        )
        assert desired == 2

    def test_target_utilization_proportional(self):
        policy = TargetUtilizationPolicy(target_utilization=0.5, deadband=0.1)
        desired, _ = policy.desired_replicas(
            snapshot(num_active=4, utilization=1.0)
        )
        assert desired == 8
        desired, _ = policy.desired_replicas(
            snapshot(num_active=4, utilization=0.1)
        )
        assert desired == 1

    def test_target_utilization_counts_draining_capacity(self):
        # Utilization is normalized over active + draining (they still
        # serve), so demand must be un-normalized by the same count: 0.8
        # utilization over 4+2 replicas is 4.8 busy-equivalents -> 8 at
        # target 0.6, not the 6 an active-only demand would give.
        policy = TargetUtilizationPolicy(target_utilization=0.6, deadband=0.1)
        desired, _ = policy.desired_replicas(
            snapshot(num_active=4, num_draining=2, utilization=0.8)
        )
        assert desired == 8

    def test_target_utilization_deadband_holds(self):
        policy = TargetUtilizationPolicy(target_utilization=0.5, deadband=0.15)
        desired, _ = policy.desired_replicas(
            snapshot(num_active=4, utilization=0.6)
        )
        assert desired == 4

    def test_schedule_plan_and_cycle(self):
        policy = SchedulePolicy([(0.0, 1), (100.0, 3), (200.0, 2)], period_ms=300.0)
        assert policy.desired_replicas(snapshot(time_ms=50.0))[0] == 1
        assert policy.desired_replicas(snapshot(time_ms=150.0))[0] == 3
        assert policy.desired_replicas(snapshot(time_ms=250.0))[0] == 2
        # One full period later the plan repeats.
        assert policy.desired_replicas(snapshot(time_ms=350.0))[0] == 1

    def test_schedule_before_first_entry(self):
        non_cyclic = SchedulePolicy([(100.0, 3)])
        assert non_cyclic.desired_replicas(snapshot(time_ms=10.0))[0] == 3
        cyclic = SchedulePolicy([(100.0, 3), (200.0, 1)], period_ms=300.0)
        # Inside a cycle but before its first entry: previous cycle's tail.
        assert cyclic.desired_replicas(snapshot(time_ms=50.0))[0] == 1

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: ReactivePolicy(max_drop_rate=1.5),
            lambda: ReactivePolicy(max_queue_per_replica=0.0),
            lambda: ReactivePolicy(scale_up_step=0),
            lambda: TargetUtilizationPolicy(target_utilization=0.0),
            lambda: TargetUtilizationPolicy(deadband=1.0),
            lambda: SchedulePolicy([]),
            lambda: SchedulePolicy([(0.0, 0)]),
            lambda: SchedulePolicy([(10.0, 1), (0.0, 2)]),
            lambda: SchedulePolicy([(10.0, 1)], period_ms=5.0),
        ],
    )
    def test_invalid_policies_rejected(self, factory):
        with pytest.raises(ValueError):
            factory()

    def test_make_policy(self):
        assert make_policy("reactive").name == "reactive"
        with pytest.raises(ValueError, match="unknown scaling policy"):
            make_policy("warp")


# -------------------------------------------------------------- controller
class TestController:
    def make(self, **spec_fields):
        defaults = dict(control_interval_ms=10.0, min_replicas=1, max_replicas=4)
        defaults.update(spec_fields)
        return single_group_autoscaler(
            lambda pos: AcceleratorReplica(ConstantServer()), **defaults
        )

    @staticmethod
    def decide(ctl, snap: MetricsSnapshot) -> int:
        """The one group's desired size for a pool described by ``snap``."""
        status = GroupStatus(
            name=None,
            cost_weight=1.0,
            startup_delay_ms=0.0,
            min_replicas=ctl.spec.min_replicas,
            max_replicas=ctl.spec.max_replicas,
            num_active=snap.num_active,
            num_provisioning=snap.num_provisioning,
            num_draining=snap.num_draining,
            queue_depth=snap.queue_depth,
        )
        return ctl.decide_pool(snap, [status])[None]

    def test_clamps_to_bounds(self):
        ctl = self.make(max_replicas=3)
        desired = self.decide(ctl, snapshot(num_active=3, drop_rate=1.0))
        assert desired == 3  # clamped at max
        ctl2 = self.make(min_replicas=2)
        desired = self.decide(ctl2, snapshot(num_active=2, utilization=0.0))
        assert desired == 2  # clamped at min

    def test_cooldown_holds_scaling(self):
        ctl = self.make(up_cooldown_ms=100.0)
        assert self.decide(ctl, snapshot(time_ms=10.0, drop_rate=1.0)) == 3
        # Second up-decision inside the cooldown is held.
        assert (
            self.decide(ctl, snapshot(time_ms=50.0, num_active=3, drop_rate=1.0))
            == 3
        )
        report = ctl.report(final_replicas=3)
        assert [e.action for e in report.events] == ["scale_up", "held"]

    def test_report_counts(self):
        ctl = self.make()
        self.decide(ctl, snapshot(drop_rate=1.0))
        self.decide(ctl, snapshot(num_active=3, utilization=0.0, queue_depth=0))
        report = ctl.report(final_replicas=2)
        assert report.num_controls == 2
        assert report.num_scale_ups == 1
        assert report.num_scale_downs == 1
        assert report.peak_replicas == 3
        assert report.policy == "reactive"

    def test_reset_clears_history(self):
        ctl = self.make()
        self.decide(ctl, snapshot(drop_rate=1.0))
        ctl.reset()
        assert ctl.report(final_replicas=1).num_controls == 0

    def test_each_controller_builds_its_own_policy(self):
        spec = AutoscalerSpec(policy="predictive")

        def controller(startup_delay_ms):
            return AutoscaleController(
                spec,
                [
                    ScaledGroup(
                        None,
                        lambda pos: AcceleratorReplica(ConstantServer()),
                        (0,),
                        startup_delay_ms=startup_delay_ms,
                    )
                ],
            )

        a, b = controller(10.0), controller(90.0)
        assert a.policy is not b.policy
        # Each derived its horizon from its own group; the spec is untouched.
        assert (a.policy.horizon_ms, b.policy.horizon_ms) == (60.0, 140.0)
        assert spec.horizon_ms is None


# ------------------------------------------------------- engine lifecycle
def bursty_arrivals(n, *, quiet_ms=300.0, quiet_rate=0.02, burst_ms=150.0,
                    burst_rate=0.5, seed=0):
    """Quiet/burst square-wave Poisson arrivals (synthetic-server scale)."""
    rng = np.random.default_rng(seed)
    times, t = [], 0.0
    period = quiet_ms + burst_ms
    while len(times) < n:
        rate = quiet_rate if (t % period) < quiet_ms else burst_rate
        t += rng.exponential(1.0 / rate)
        times.append(t)
    return np.asarray(times[:n])


def autoscaled_engine(**spec_fields):
    defaults = dict(control_interval_ms=25.0, min_replicas=1, max_replicas=6)
    defaults.update(spec_fields)
    ctl = single_group_autoscaler(
        lambda pos: AcceleratorReplica(ConstantServer(), discipline="edf"),
        **defaults,
    )
    return ServingEngine(
        [AcceleratorReplica(ConstantServer(), discipline="edf")],
        router="jsq",
        admission="drop_expired",
        autoscaler=ctl,
    )


class TestEngineLifecycle:
    def test_pool_grows_and_shrinks(self):
        engine = autoscaled_engine()
        trace = make_trace(400)
        result = engine.run(trace, bursty_arrivals(400))
        assert result.autoscale is not None
        assert result.autoscale.num_scale_ups > 0
        assert result.autoscale.num_scale_downs > 0
        assert result.autoscale.peak_replicas > 1
        assert len(result.replica_stats) > 1
        # Every offered query is accounted for.
        assert result.num_offered == 400

    def test_scaled_up_replicas_serve(self):
        engine = autoscaled_engine()
        trace = make_trace(400)
        result = engine.run(trace, bursty_arrivals(400))
        served_by = {o.replica_index for o in result.outcomes}
        assert len(served_by) > 1

    def test_retired_replicas_accrue_bounded_cost(self):
        engine = autoscaled_engine()
        trace = make_trace(400)
        result = engine.run(trace, bursty_arrivals(400))
        retired = [r for r in engine.replicas if r.is_retired]
        assert retired, "the bursty trace should retire some replicas"
        for replica in retired:
            assert replica.stats.active_ms == pytest.approx(
                replica.retired_at_ms - replica.activated_ms
            )
        # Elastic cost sits strictly between 1x and peak x duration.
        assert (
            result.duration_ms
            < result.total_replica_active_ms
            < result.autoscale.peak_replicas * result.duration_ms
        )

    def test_draining_replica_finishes_queue_before_retiring(self):
        # Force a scale-down while replica queues still hold work: every
        # query routed anywhere must still complete or be dropped.
        engine = autoscaled_engine(
            control_interval_ms=5.0, max_replicas=4
        )
        trace = make_trace(200, latency_ms=1e9)  # nothing ever expires
        result = engine.run(trace, bursty_arrivals(200))
        assert result.num_served == 200
        assert result.num_dropped == 0

    def test_repeat_run_is_identical(self):
        engine = autoscaled_engine()
        trace = make_trace(300)
        arrivals = bursty_arrivals(300)
        first = engine.run(trace, arrivals)
        second = engine.run(trace, arrivals)
        assert first.records == second.records
        assert first.dropped == second.dropped
        assert first.replica_seconds == second.replica_seconds
        assert first.autoscale.events == second.autoscale.events
        # reset() restored the initial pool before the second run.
        assert len(second.replica_stats) == len(first.replica_stats)

    def test_routing_never_targets_draining_or_retired(self):
        engine = autoscaled_engine()
        trace = make_trace(400)
        engine.run(trace, bursty_arrivals(400))
        for replica in engine.replicas:
            if replica.is_retired:
                assert not len(replica.queue)
                assert not replica.is_busy

    def test_telemetry_scoped_to_scalable_group(self):
        """Static groups' load must not leak into the scaling signals.

        Two busy static replicas plus one idle scalable replica: with
        engine-wide telemetry the static busy time would read as high
        utilization over num_active=1 and the pool would balloon; scoped
        telemetry sees an idle scaled group and never scales up.
        """
        ctl = single_group_autoscaler(
            lambda pos: AcceleratorReplica(ConstantServer()),
            positions=(2,),
            policy="target_utilization",
            control_interval_ms=25.0,
            min_replicas=1,
            max_replicas=6,
        )
        # Arrivals every 6 ms, service 5 ms: JSQ finds replica 0 idle at
        # every arrival (ties go to the lowest index), so the static
        # replica 0 runs at ~83% utilization while the scalable index {2}
        # sees no traffic at all.
        replicas = [
            AcceleratorReplica(ConstantServer(5.0)),
            AcceleratorReplica(ConstantServer(5.0)),
            AcceleratorReplica(ConstantServer(5.0)),
        ]
        engine = ServingEngine(replicas, router="jsq", autoscaler=ctl)
        trace = make_trace(300)
        arrivals = np.cumsum(np.full(300, 6.0))
        result = engine.run(trace, arrivals)
        assert result.replica_stats[0].num_served == 300
        assert result.autoscale.num_scale_ups == 0
        assert len(result.replica_stats) == 3  # the pool never grew

    def test_duration_not_inflated_by_trailing_control_tick(self):
        """An autoscaler that never scales must cost exactly like the
        static pool on the same trace — no phantom control-interval tail."""
        trace = make_trace(40)
        arrivals = np.arange(1.0, 41.0)
        static = ServingEngine(
            [AcceleratorReplica(ConstantServer(), discipline="edf")],
            router="jsq",
            admission="drop_expired",
        ).run(trace, arrivals)
        ctl = single_group_autoscaler(
            lambda pos: AcceleratorReplica(ConstantServer(), discipline="edf"),
            # Thresholds no run can cross: the pool never changes size.
            max_drop_rate=1.0,
            max_queue_per_replica=1e9,
            min_utilization=0.0,
            control_interval_ms=33.0,
            min_replicas=1,
            max_replicas=4,
        )
        scaled = ServingEngine(
            [AcceleratorReplica(ConstantServer(), discipline="edf")],
            router="jsq",
            admission="drop_expired",
            autoscaler=ctl,
        ).run(trace, arrivals)
        assert scaled.autoscale.num_scale_ups == 0
        assert scaled.duration_ms == static.duration_ms
        assert scaled.replica_seconds == static.replica_seconds
        assert scaled.records == static.records

    def test_static_engine_has_static_cost(self):
        engine = ServingEngine(
            [AcceleratorReplica(ConstantServer()) for _ in range(3)],
            router="jsq",
        )
        trace = make_trace(50)
        result = engine.run(trace, np.arange(1.0, 51.0))
        assert result.autoscale is None
        assert result.total_replica_active_ms == pytest.approx(
            3 * result.duration_ms
        )
        assert result.mean_active_replicas == pytest.approx(3.0)


# ----------------------------------------------------------- spec + facade
def autoscaled_spec(autoscaler, *, groups=None, n=200) -> ScenarioSpec:
    return ScenarioSpec(
        name="autoscale",
        supernet_name=SUPERNET,
        policy=Policy.STRICT_LATENCY,
        replica_groups=groups
        or (ReplicaGroupSpec(count=1, discipline="edf", name="pool"),),
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


class TestAutoscalerSpec:
    @pytest.mark.parametrize(
        "spec",
        [
            AutoscalerSpec(),
            AutoscalerSpec(
                policy="reactive",
                control_interval_ms=12.5,
                window_ms=40.0,
                min_replicas=2,
                max_replicas=5,
                up_cooldown_ms=10.0,
                down_cooldown_ms=25.0,
                group="pool",
                max_drop_rate=0.01,
                max_queue_per_replica=2.0,
                min_utilization=0.3,
                scale_up_step=2,
                scale_down_step=1,
            ),
            AutoscalerSpec(policy="target_utilization", target_utilization=0.7),
            AutoscalerSpec(
                policy="scheduled",
                schedule=((0.0, 1), (50.0, 3)),
                period_ms=140.0,
            ),
        ],
    )
    def test_roundtrip(self, spec):
        import json

        back = AutoscalerSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert back == spec

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(policy="warp"),
            dict(control_interval_ms=0.0),
            dict(window_ms=0.0),
            dict(window_ms=-1.0),
            dict(min_replicas=0),
            dict(min_replicas=4, max_replicas=2),
            dict(up_cooldown_ms=-1.0),
            dict(down_cooldown_ms=-1.0),
            dict(policy="scheduled"),  # missing schedule
            dict(schedule=((0.0, 1),)),  # schedule without scheduled policy
            dict(policy="reactive", max_drop_rate=2.0),
            dict(policy="target_utilization", target_utilization=1.5),
            dict(policy="scheduled", schedule=((0.0, 0),)),
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            AutoscalerSpec(**kwargs)

    def test_scenario_roundtrip_with_autoscaler(self):
        import json

        spec = autoscaled_spec(AutoscalerSpec(group="pool"))
        back = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert back == spec

    def test_unknown_group_rejected(self):
        with pytest.raises(ValueError, match="names no replica group"):
            autoscaled_spec(AutoscalerSpec(group="nope"))

    def test_scaled_group_resolution(self):
        groups = (
            ReplicaGroupSpec(count=1, name="a"),
            ReplicaGroupSpec(count=1, name="b"),
        )
        by_name = autoscaled_spec(AutoscalerSpec(group="b"), groups=groups)
        assert [g.name for g in by_name.scaled_groups()] == ["b"]
        default = autoscaled_spec(AutoscalerSpec(), groups=groups)
        assert [g.name for g in default.scaled_groups()] == ["a"]
        with pytest.raises(ValueError, match="no autoscaler"):
            autoscaled_spec(None).scaled_groups()


class TestFacadeAutoscaling:
    def test_null_autoscaler_is_record_identical(self):
        """autoscaler=None must not perturb the fixed-pool path at all."""
        base = autoscaled_spec(None, n=120)
        with_field = ScenarioSpec.from_dict(
            {**base.to_dict(), "autoscaler": None}
        )
        a = run_scenario(base)
        b = run_scenario(with_field)
        assert a.records == b.records
        assert a.dropped == b.dropped
        assert a.offered_load == b.offered_load
        assert b.autoscale is None

    def test_autoscaled_scenario_runs_and_reports(self):
        spec = autoscaled_spec(
            AutoscalerSpec(
                control_interval_ms=8.0, max_replicas=5, group="pool"
            )
        )
        result = run_scenario(spec)
        assert result.num_offered == 200
        assert result.autoscale is not None
        assert result.autoscale.num_scale_ups > 0
        assert result.replica_seconds > 0
        # Scale-ups cloned the group's stack: the new replicas carry the
        # group name and share the group's latency table.
        assert len(result.replica_stats) > 1
        assert all(s.name.startswith("pool-") for s in result.replica_stats)

    def test_scaled_clones_share_table_and_decorrelate_seeds(self):
        from repro.serving.api import build_engine, build_trace

        spec = autoscaled_spec(
            AutoscalerSpec(control_interval_ms=8.0, max_replicas=5)
        )
        trace = build_trace(spec)
        engine = build_engine(spec)
        engine.run(trace, spec.arrivals.generate(len(trace)))
        assert len(engine.replicas) > 1
        tables = {id(r.server.table) for r in engine.replicas}
        assert len(tables) == 1, "clones must share the group's latency table"
        seeds = [r.server.config.seed for r in engine.replicas]
        assert len(set(seeds)) == len(seeds), "clone seeds must decorrelate"

    def test_mixed_pool_scales_named_group_only(self):
        groups = (
            ReplicaGroupSpec(count=1, discipline="edf", name="static"),
            ReplicaGroupSpec(
                count=1, discipline="edf", name="elastic", pb_kb=432.0
            ),
        )
        spec = autoscaled_spec(
            AutoscalerSpec(
                control_interval_ms=8.0, max_replicas=4, group="elastic"
            ),
            groups=groups,
        )
        result = run_scenario(spec)
        names = [s.name for s in result.replica_stats]
        assert names[0] == "static-0"
        assert sum(1 for n in names if n.startswith("elastic")) >= 1
        # The static group never retires.
        assert result.replica_stats[0].active_ms == pytest.approx(
            result.duration_ms
        )


# ------------------------------------------------- the acceptance frontier
class TestFrontier:
    @pytest.fixture(scope="class")
    def frontier(self):
        from repro.experiments import frontier_autoscale

        return frontier_autoscale.run(
            num_queries=500,
            static_counts=(1, 2, 3, 4, 6),
            reactive_queue_thresholds=(4.0,),
            utilization_targets=(0.5,),
            max_replicas=6,
            seed=0,
        )

    def test_reactive_beats_equal_cost_static(self, frontier):
        """The ISSUE acceptance bar: >= attainment of the best static pool
        of no greater cost, at lower cost than the peak-sized pool."""
        reactive = frontier.point("reactive-q4")
        best_static = frontier.best_static_within_cost(reactive.replica_seconds)
        assert reactive.slo_attainment >= best_static.slo_attainment
        peak = max(frontier.static_points(), key=lambda p: p.replica_seconds)
        assert reactive.replica_seconds < peak.replica_seconds

    def test_static_attainment_monotone_in_cost(self, frontier):
        statics = sorted(frontier.static_points(), key=lambda p: p.replica_seconds)
        attainments = [p.slo_attainment for p in statics]
        assert attainments == sorted(attainments)

    def test_pareto_contains_an_autoscaler(self, frontier):
        kinds = {p.kind for p in frontier.pareto()}
        assert kinds & {"reactive", "target_utilization", "scheduled"}

    def test_report_and_json_dump(self, frontier):
        from repro.experiments import frontier_autoscale

        text = frontier_autoscale.report(frontier)
        assert "replica-seconds" in text
        assert "Pareto" in text
        dump = frontier_autoscale.to_jsonable(frontier)
        import json

        json.dumps(dump)  # JSON-safe
        assert {p["label"] for p in dump["points"]} == {
            p.label for p in frontier.points
        }


# ------------------------------------------------------------ slot_init
class TestSlotInit:
    """``slot_init`` keeps the dataclass ``__init__``'s contract."""

    @pytest.mark.parametrize("cls", [MetricsSnapshot, GroupStatus])
    def test_signature_is_the_fields_in_order_with_their_defaults(self, cls):
        params = list(inspect.signature(cls).parameters.values())
        assert [p.name for p in params] == [f.name for f in dataclasses.fields(cls)]
        for p, f in zip(params, dataclasses.fields(cls)):
            want = inspect.Parameter.empty if f.default is dataclasses.MISSING else f.default
            assert p.default == want

    def test_values_land_in_their_fields_and_stay_frozen(self):
        values = {f.name: i + 0.5 for i, f in enumerate(dataclasses.fields(MetricsSnapshot))}
        by_keyword = MetricsSnapshot(**values)
        by_position = MetricsSnapshot(*values.values())
        assert by_keyword == by_position
        assert dataclasses.asdict(by_keyword) == values
        assert dataclasses.replace(by_keyword, time_ms=-1.0).time_ms == -1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            by_keyword.time_ms = 2.0  # type: ignore[misc]
        short = MetricsSnapshot(*list(values.values())[:10])
        assert short.failure_rate_per_ms == 0.0 and short.num_provisioning == 0
        with pytest.raises(TypeError):
            MetricsSnapshot(time_ms=1.0)

    def test_rejects_fields_it_cannot_set(self):
        @dataclasses.dataclass(frozen=True, slots=True)
        class WithFactory:
            items: list = dataclasses.field(default_factory=list)

        with pytest.raises(TypeError):
            slot_init(WithFactory)
