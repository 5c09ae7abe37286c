"""Tests for the scenario-building facade (`repro.serving.api`).

The load-bearing guarantee: a homogeneous Poisson :class:`ScenarioSpec` run
through ``run_scenario`` is **record-identical** to the hand-wired path
(``engine_oracle.build_stack_engine`` + ``run_open_loop`` over an explicitly
generated workload) — the spec layer adds expressiveness, never drift.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from engine_oracle import build_stack_engine
from fakes import ConstantServer
from test_golden_records import result_digest

from repro.core.policies import Policy
from repro.serving import (
    ArrivalSpec,
    ReplicaGroupSpec,
    ScenarioSpec,
    SushiStack,
    SushiStackConfig,
    WorkloadSpec,
)
from repro.accelerator.platforms import ZCU104
from repro.accelerator.analytic_model import SushiAccelModel
from repro.core.candidates import build_candidate_set
from repro.serving import baselines
from repro.serving import stack as stack_module
from repro.serving.api import build_engine, format_result_summary, run_scenario
from repro.serving.stack import build_serve_table, supernet_family
from repro.serving.workload import WorkloadGenerator, feasible_ranges_from_table

SUPERNET = "ofa_mobilenetv3"


@pytest.fixture(scope="module")
def stack():
    return SushiStack(
        SushiStackConfig(
            supernet_name=SUPERNET, policy=Policy.STRICT_LATENCY, seed=0
        )
    )


def poisson_spec(num_replicas: int = 2, *, rate: float = 1.0, n: int = 60) -> ScenarioSpec:
    return ScenarioSpec(
        name="api-test",
        supernet_name=SUPERNET,
        policy=Policy.STRICT_LATENCY,
        replica_groups=(ReplicaGroupSpec(count=num_replicas, discipline="edf"),),
        router="jsq",
        admission="drop_expired",
        workload=WorkloadSpec(num_queries=n, accuracy_range=None, latency_range_ms=None),
        arrivals=ArrivalSpec(kind="poisson", rate_per_ms=rate, seed=0),
        seed=0,
    )


class TestEquivalenceWithHandWiredPath:
    """run_scenario == build_stack_engine + run_open_loop, record for record."""

    def hand_wired(self, stack, *, num_replicas, rate, n):
        acc_range, lat_range = feasible_ranges_from_table(stack.table)
        trace = WorkloadGenerator(
            WorkloadSpec(
                num_queries=n, accuracy_range=acc_range, latency_range_ms=lat_range
            ),
            seed=0,
        ).generate()
        engine = build_stack_engine(
            stack,
            num_replicas=num_replicas,
            discipline="edf",
            router="jsq",
            admission="drop_expired",
        )
        return engine.run_open_loop(trace, arrival_rate_per_ms=rate, seed=0)

    @pytest.mark.parametrize("num_replicas", [1, 2])
    def test_records_identical(self, stack, num_replicas):
        hand = self.hand_wired(stack, num_replicas=num_replicas, rate=1.0, n=60)
        facade = run_scenario(poisson_spec(num_replicas, rate=1.0, n=60))
        assert facade.records == hand.records
        assert facade.offered_load == hand.offered_load
        assert facade.dropped == hand.dropped
        assert [o.replica_index for o in facade.outcomes] == [
            o.replica_index for o in hand.outcomes
        ]
        assert [o.arrival_ms for o in facade.outcomes] == [
            o.arrival_ms for o in hand.outcomes
        ]

    def test_load_sweep_matches_hand_wired_engine(self, stack):
        """The facade-migrated load_sweep reproduces the PR 1 engine loop."""
        from repro.experiments import load_sweep

        result = load_sweep.run(
            num_queries=40,
            arrival_rates_per_ms=(1.0,),
            replica_counts=(2,),
            seed=0,
        )
        hand = self.hand_wired(stack, num_replicas=2, rate=1.0, n=40)
        cell = result.cell(2, 1.0)
        assert cell.offered_load == hand.offered_load
        assert cell.slo_attainment == hand.slo_attainment
        assert cell.drop_rate == hand.drop_rate
        assert cell.mean_response_ms == hand.mean_response_ms
        assert cell.p99_response_ms == hand.p99_response_ms
        assert cell.achieved_throughput_per_ms == hand.achieved_throughput_per_ms
        assert cell.mean_accuracy == hand.mean_accuracy

    def test_callers_stack_never_mutated(self, stack):
        before_pb = stack.pb.cached
        before_window = stack.scheduler.cache_state_idx
        run_scenario(poisson_spec(2, n=40))
        assert stack.pb.cached is before_pb
        assert stack.scheduler.cache_state_idx == before_window


class TestHeterogeneousPools:
    def hetero_spec(self, **arrival_kwargs) -> ScenarioSpec:
        arrivals = arrival_kwargs or dict(kind="poisson", rate_per_ms=2.0, seed=0)
        return ScenarioSpec(
            name="hetero",
            supernet_name=SUPERNET,
            policy=Policy.STRICT_LATENCY,
            replica_groups=(
                ReplicaGroupSpec(count=2, pb_kb=1728.0, discipline="edf", name="large"),
                ReplicaGroupSpec(count=2, pb_kb=432.0, discipline="edf", name="small"),
            ),
            router="jsq",
            admission="drop_expired",
            workload=WorkloadSpec(
                num_queries=80, accuracy_range=None, latency_range_ms=None
            ),
            arrivals=ArrivalSpec(**arrivals),
            seed=0,
        )

    def test_mixed_pb_sizes_build_distinct_backends(self):
        spec = self.hetero_spec()
        engine = build_engine(spec)
        assert engine.num_replicas == 4
        assert [r.name for r in engine.replicas] == [
            "large-0", "large-1", "small-0", "small-1",
        ]
        assert [r.index for r in engine.replicas] == [0, 1, 2, 3]
        caps = [r.server.pb.capacity_bytes for r in engine.replicas]
        assert caps[0] == caps[1] > caps[2] == caps[3]
        # Latency tables are shared within a group but differ across groups.
        assert engine.replicas[0].server.table is engine.replicas[1].server.table
        assert engine.replicas[0].server.table is not engine.replicas[2].server.table

    def test_same_config_groups_get_decorrelated_clones(self):
        """Splitting one pool into labeled groups must not twin the replicas."""
        spec = ScenarioSpec(
            supernet_name=SUPERNET,
            policy=Policy.STRICT_LATENCY,
            replica_groups=(
                ReplicaGroupSpec(count=1, name="a"),
                ReplicaGroupSpec(count=1, name="b"),
            ),
            arrivals=ArrivalSpec(kind="poisson", rate_per_ms=0.5),
            seed=0,
        )
        engine = build_engine(spec)
        seeds = [r.server.config.seed for r in engine.replicas]
        assert seeds == [0, 1]

    def test_hetero_pool_serves_on_both_tiers(self):
        result = run_scenario(self.hetero_spec())
        by_name = {s.name: s for s in result.replica_stats}
        assert result.num_offered == 80
        assert by_name["large-0"].num_served > 0
        assert by_name["small-0"].num_served > 0

    def test_fastest_expected_routing_on_hetero_pool(self):
        """The latency-table-aware router serves the whole stream and keeps
        per-replica estimates distinct across PB tiers."""
        spec = self.hetero_spec()
        spec = ScenarioSpec.from_dict({**spec.to_dict(), "router": "fastest_expected"})
        result = run_scenario(spec)
        assert result.num_offered == 80
        assert result.num_served > 0
        served_by = {o.replica_index for o in result.outcomes}
        assert len(served_by) > 1

    def test_time_varying_arrivals_run_end_to_end(self):
        result = run_scenario(
            self.hetero_spec(
                kind="time_varying", segments=((30.0, 1.0), (20.0, 6.0)), seed=0
            ),
        )
        assert result.num_offered == 80
        assert result.num_served > 0


class TestBackendKinds:
    def spec_for(self, kind: str, **group_kwargs) -> ScenarioSpec:
        return ScenarioSpec(
            name=f"kind-{kind}",
            supernet_name=SUPERNET,
            policy=Policy.STRICT_LATENCY,
            replica_groups=(ReplicaGroupSpec(count=2, kind=kind, **group_kwargs),),
            router="round_robin",
            workload=WorkloadSpec(
                num_queries=24, accuracy_range=None, latency_range_ms=None
            ),
            arrivals=ArrivalSpec(kind="poisson", rate_per_ms=0.5, seed=0),
            seed=0,
        )

    def test_no_sushi_backend(self):
        result = run_scenario(self.spec_for("no_sushi"))
        assert result.num_served == 24
        assert all(r.cache_hit_ratio == 0.0 for r in result.records)

    def test_state_unaware_backend(self):
        result = run_scenario(self.spec_for("state_unaware"))
        assert result.num_served == 24

    def test_static_subnet_backend_pins_one_subnet(self):
        result = run_scenario(
            self.spec_for("static_subnet", subnet_name="C")
        )
        assert {r.subnet_name for r in result.records} == {"C"}

    def test_static_subnet_defaults_to_most_accurate(self):
        result = run_scenario(self.spec_for("static_subnet"))
        served = {r.subnet_name for r in result.records}
        assert len(served) == 1


class TestEngineIndexAssignment:
    def test_engine_assigns_replica_indices(self):
        from repro.serving.engine import AcceleratorReplica, ServingEngine

        replicas = [AcceleratorReplica(ConstantServer()) for _ in range(3)]
        assert all(r.index is None for r in replicas)
        engine = ServingEngine(replicas)
        assert [r.index for r in engine.replicas] == [0, 1, 2]
        assert [r.name for r in engine.replicas] == ["replica0", "replica1", "replica2"]
        assert [r.stats.replica_index for r in engine.replicas] == [0, 1, 2]

    def test_explicit_matching_indices_still_accepted(self):
        from repro.serving.engine import AcceleratorReplica, ServingEngine

        class Dummy:
            def serve_query(self, query, budget_ms, accuracy_floor):
                raise NotImplementedError

        replicas = [AcceleratorReplica(Dummy(), index=i) for i in range(2)]
        engine = ServingEngine(replicas)
        assert [r.index for r in engine.replicas] == [0, 1]

    def test_explicit_mismatch_still_rejected(self):
        from repro.serving.engine import AcceleratorReplica, ServingEngine

        class Dummy:
            def serve_query(self, query, budget_ms, accuracy_floor):
                raise NotImplementedError

        with pytest.raises(ValueError, match="explicitly"):
            ServingEngine([AcceleratorReplica(Dummy(), index=3)])

    def test_assigned_name_respects_explicit_name(self):
        from repro.serving.engine import AcceleratorReplica, ServingEngine

        class Dummy:
            def serve_query(self, query, budget_ms, accuracy_floor):
                raise NotImplementedError

        replica = AcceleratorReplica(Dummy(), name="edge-tier")
        ServingEngine([replica])
        assert replica.index == 0
        assert replica.name == "edge-tier"
        assert replica.stats.name == "edge-tier"


class TestSummary:
    def test_format_result_summary_mentions_replicas(self):
        spec = poisson_spec(2, n=30)
        result = run_scenario(spec)
        text = format_result_summary(spec, result)
        assert "SLO attainment" in text
        assert "replica0" in text and "replica1" in text


class TestServeTableSharing:
    """A serve table depends on (SuperNet, platform, |S|) only."""

    BASE = SushiStackConfig(supernet_name=SUPERNET, policy=Policy.STRICT_LATENCY)

    @pytest.fixture
    def builds(self, monkeypatch):
        """A cold process table cache; every ``build_serve_table`` call logged."""
        calls: list[int] = []

        def counting(*args, **kwargs):
            calls.append(1)
            return build_serve_table(*args, **kwargs)

        monkeypatch.setattr(stack_module, "build_serve_table", counting)
        monkeypatch.setattr(baselines, "build_serve_table", counting)
        monkeypatch.setattr(stack_module, "_TABLES", {})
        return calls

    @staticmethod
    def shares(a: SushiStack, b: SushiStack) -> bool:
        parts = ("accel", "candidates", "table", "entries", "switches", "cache_memo")
        same = [getattr(a, p) is getattr(b, p) for p in parts]
        assert all(same) or not any(same), dict(zip(parts, same))
        return all(same)

    @pytest.mark.parametrize(
        "change",
        [
            dict(policy=Policy.STRICT_ACCURACY),
            dict(seed=5),
            dict(cache_update_period=7),
            dict(policy=Policy.STRICT_ACCURACY, seed=3, cache_update_period=2),
        ],
    )
    def test_policy_seed_and_period_share_the_table(self, change, builds):
        first = SushiStack(self.BASE)
        other = SushiStack(replace(self.BASE, **change))
        assert len(builds) == 1
        assert self.shares(first, other)
        # One memo per table, bound to it; each stack its own scheduler.
        assert other.scheduler is not first.scheduler
        assert other.scheduler.memo is first.cache_memo
        assert first.cache_memo.table is first.table

    @pytest.mark.parametrize(
        "change",
        [
            dict(platform=SushiStackConfig().platform.with_pb(432.0)),
            dict(platform=ZCU104),
            dict(candidate_set_size=4),
            dict(supernet_name="ofa_resnet50"),
        ],
    )
    def test_serve_inputs_never_share(self, change):
        first = SushiStack(self.BASE)
        for config in (replace(self.BASE, **change), replace(self.BASE, seed=9, **change)):
            assert not self.shares(first, SushiStack(config))

    @pytest.mark.parametrize(
        "kind", ["sushi", "no_sushi", "state_unaware", "static_subnet"]
    )
    def test_two_runs_build_one_table(self, kind, builds):
        spec = poisson_spec(2, n=40).override("replica_groups.0.kind", kind)
        first = run_scenario(spec)
        assert len(builds) == 1 + (kind == "state_unaware")  # + the ranges table
        assert result_digest(run_scenario(spec)) == result_digest(first)
        assert len(builds) == 1 + (kind == "state_unaware")
        assert len(stack_module._TABLES) == len(builds)

    def test_shared_table_serves_what_a_fresh_one_serves(self):
        """The rung: a process table, warmed by another policy and seed,
        serves the records a directly built table serves."""
        run_scenario(
            replace(poisson_spec(2, n=200), policy=Policy.STRICT_ACCURACY, seed=11)
        )
        shared = SushiStack(self.BASE)
        assert shared.cache_memo.decisions  # warm: not vacuous
        family = supernet_family(SUPERNET)
        accel = SushiAccelModel(self.BASE.platform)
        candidates = build_candidate_set(
            family.subnets, capacity_bytes=max(accel.pb_capacity_bytes, 1)
        )
        fresh = SushiStack(
            self.BASE,
            serve_table=build_serve_table(
                family.subnets, candidates, accel, family.accuracy_model
            ),
        )
        assert not self.shares(shared, fresh)
        hand = TestEquivalenceWithHandWiredPath().hand_wired
        want = hand(fresh, num_replicas=2, rate=1.0, n=300).records
        assert hand(shared, num_replicas=2, rate=1.0, n=300).records == want
        assert run_scenario(poisson_spec(2, n=300)).records == want
