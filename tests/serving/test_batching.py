"""Batched dispatch: stack batch serving, engine pickup, spec round-trips.

Covers the whole batching column: ``SushiSched.schedule_shared`` and
``SushiStack.serve_dispatch_batch`` (one evaluation, at most one cache load,
one-query batches identical to ``serve_query``), ``pop_batch`` discipline /
admission behavior, the declarative ``BatchingSpec`` (exact JSON round-trip,
facade wiring, CLI override path), baseline batch paths, dispatch-time
record stamping (allocation-free completion), telemetry occupancy, and the
drain interaction under autoscaling.
"""

import dataclasses
import json

import numpy as np
import pytest
from fakes import member

from repro.core.metrics import QueryRecord
from repro.core.policies import Policy
from repro.serving import (
    AcceleratorReplica,
    ArrivalSpec,
    BatchingSpec,
    ReplicaGroupSpec,
    ScenarioSpec,
    ServingEngine,
    SushiStack,
    SushiStackConfig,
    WorkloadSpec,
    build_engine,
    run_scenario,
)
from repro.serving.autoscale import TelemetryBus
from repro.serving.baselines import (
    FixedSubNetServer,
    NoSushiServer,
    StateUnawareCachingServer,
    baseline_table,
)
from repro.serving.engine.admission import make_admission
from repro.serving.query import Query, QueryTrace, QueuedQuery
from repro.accelerator.platforms import ANALYTIC_DEFAULT


@pytest.fixture(scope="module")
def stack():
    return SushiStack(
        SushiStackConfig(
            supernet_name="ofa_mobilenetv3",
            policy=Policy.STRICT_LATENCY,
            cache_update_period=4,
            seed=0,
        )
    )


def make_queries(n, *, accuracy=0.74, latency_ms=50.0):
    return [
        Query(index=i, accuracy_constraint=accuracy, latency_constraint_ms=latency_ms)
        for i in range(n)
    ]


def record_of(query, served):
    """The record the engine writes for ``query`` given its own floor."""
    return QueryRecord(
        query.index, query.accuracy_constraint, query.latency_constraint_ms, *served
    )


def serve_one(server, query):
    """``server.serve_query`` at the query's nominal budget and floor."""
    served = server.serve_query(
        query, query.latency_constraint_ms, query.accuracy_constraint
    )
    return record_of(query, served)


def serve_batch(server, queries):
    """``server.serve_dispatch_batch`` at the nominal budgets and the
    strictest floor, as the engine dispatches a shared pickup."""
    served = server.serve_dispatch_batch(
        queries,
        [q.latency_constraint_ms for q in queries],
        max(q.accuracy_constraint for q in queries),
    )
    return [record_of(q, s) for q, s in zip(queries, served)]


# ------------------------------------------------------------ scheduler
class TestScheduleShared:
    def test_batch_of_one_is_schedule(self, stack):
        a, b = stack.clone(seed=0), stack.clone(seed=0)
        for q in make_queries(9):
            da = a.scheduler.schedule(
                accuracy_constraint=q.accuracy_constraint,
                latency_constraint_ms=q.latency_constraint_ms,
            )
            idx = b.scheduler.schedule_shared(
                q.accuracy_constraint, q.latency_constraint_ms, 1
            )
            assert da.subnet_idx == idx
            assert da.next_cache_state_idx == b.scheduler.cache_state_idx
        assert a.scheduler.cache_updates == b.scheduler.cache_updates

    def test_batch_advances_the_window_by_its_size(self, stack):
        s = stack.clone(seed=0)
        s.scheduler.schedule_shared(0.74, 50.0, 7)
        assert s.scheduler.queries_seen == 7

    def test_batch_crossing_a_boundary_decides_once(self, stack):
        s = stack.clone(seed=0)
        # Q=4: a batch of 11 crosses two boundaries but decides once.
        s.scheduler.schedule_shared(0.74, 50.0, 11)
        assert s.scheduler.decisions_made == 1
        assert s.scheduler.cache_updates <= 1

    def test_rejects_non_positive_batch(self, stack):
        with pytest.raises(ValueError, match="batch_size"):
            stack.clone(seed=0).scheduler.schedule_shared(0.74, 50.0, 0)


# ------------------------------------------------------------ stack batch
class TestServeDispatchBatch:
    def test_one_query_batch_identical_to_serve_query(self, stack):
        a, b = stack.clone(seed=0), stack.clone(seed=0)
        for q in make_queries(10):
            (rb,) = serve_batch(b, [q])
            assert serve_one(a, q) == rb
        assert a.pb.stats == b.pb.stats

    def test_batch_shares_one_subnet_and_one_evaluation(self, stack):
        s = stack.clone(seed=0)
        records = serve_batch(s, make_queries(6))
        assert len({r.subnet_name for r in records}) == 1
        assert len({r.served_latency_ms for r in records}) == 1
        # At most one cache load, carried by the last member.
        assert all(r.cache_load_ms == 0.0 for r in records[:-1])

    def test_batch_amortizes_weight_traffic(self, stack):
        s = stack.clone(seed=0)
        k = 8
        records = serve_batch(s, make_queries(k))
        single = serve_one(stack.clone(seed=0), make_queries(1)[0])
        batch_ms = records[0].served_latency_ms
        # Strictly cheaper than k independent evaluations, strictly dearer
        # than one (compute and activations are per member).
        assert batch_ms < k * single.served_latency_ms
        assert batch_ms > single.served_latency_ms

    def test_shared_decision_meets_strictest_accuracy(self):
        stack = SushiStack(
            SushiStackConfig(
                supernet_name="ofa_mobilenetv3",
                policy=Policy.STRICT_ACCURACY,
                seed=0,
            )
        )
        accuracies = [0.74, 0.78, 0.76]
        queries = [
            Query(index=i, accuracy_constraint=a, latency_constraint_ms=50.0)
            for i, a in enumerate(accuracies)
        ]
        records = serve_batch(stack, queries)
        # One shared SubNet, feasible for every member's constraint.
        assert len({r.subnet_name for r in records}) == 1
        for record in records:
            assert record.served_accuracy >= record.accuracy_constraint

    def test_empty_batch_rejected(self, stack):
        with pytest.raises(ValueError, match="at least one query"):
            stack.clone(seed=0).serve_dispatch_batch([], [], 0.74)

    def test_mismatched_budget_list_rejected(self, stack):
        with pytest.raises(ValueError, match="match the batch"):
            stack.clone(seed=0).serve_dispatch_batch(make_queries(3), [10.0], 0.74)


# ------------------------------------------------------------ baselines
class TestBaselineBatchPaths:
    @staticmethod
    def _table(with_pb):
        return baseline_table("ofa_mobilenetv3", ANALYTIC_DEFAULT, with_pb=with_pb)

    def _servers(self):
        return [
            NoSushiServer(self._table(False)),
            FixedSubNetServer(self._table(False)),
            StateUnawareCachingServer(self._table(True)),
        ]

    def test_one_query_batch_identical_to_serve_query(self):
        for fresh, batched in zip(self._servers(), self._servers()):
            q = make_queries(1, accuracy=0.76)[0]
            assert [serve_one(fresh, q)] == serve_batch(batched, [q])

    def test_batches_amortize_on_every_baseline(self):
        for server in self._servers():
            queries = make_queries(6, accuracy=0.76)
            records = serve_batch(server, queries)
            single = serve_one(server, queries[0])
            assert len({r.subnet_name for r in records}) == 1
            assert records[0].served_latency_ms < 6 * single.served_latency_ms

    def test_state_unaware_batch_reloads_at_most_once(self):
        server = StateUnawareCachingServer(
            self._table(True), cache_update_period=4
        )
        records = serve_batch(server, make_queries(10, accuracy=0.76))
        assert sum(1 for r in records if r.cache_load_ms > 0) <= 1
        assert all(r.cache_load_ms == 0.0 for r in records[:-1])


# ------------------------------------------------------------ pop_batch
class SynthServer:
    def serve_query(self, query, budget_ms, accuracy_floor):
        return ("synthetic", 0.78, 1.0, 0.0, 0.0, 0.0)


class TestPopBatch:
    def _fill(self, replica, deadlines, now=0.0):
        for i, deadline in enumerate(deadlines):
            replica.enqueue(QueuedQuery(i, 0.77, deadline, now))

    def test_honors_discipline_order(self):
        replica = AcceleratorReplica(SynthServer(), discipline="edf", max_batch=3)
        self._fill(replica, [30.0, 10.0, 20.0, 5.0])
        admitted, shed = replica.pop_batch(
            3, now_ms=0.0, admission=make_admission("admit_all")
        )
        assert [i.index for i in admitted] == [3, 1, 2]  # earliest deadlines
        assert shed == []
        assert len(replica.queue) == 1

    def test_sheds_expired_members_while_filling(self):
        replica = AcceleratorReplica(SynthServer(), max_batch=4)
        self._fill(replica, [5.0, 100.0, 5.0, 100.0])
        admitted, shed = replica.pop_batch(
            4, now_ms=50.0, admission=make_admission("drop_expired")
        )
        assert [i.index for i in admitted] == [1, 3]
        assert [i.index for i in shed] == [0, 2]

    def test_max_batch_caps_the_pickup(self):
        replica = AcceleratorReplica(SynthServer(), max_batch=2)
        self._fill(replica, [100.0] * 5)
        admitted, _ = replica.pop_batch(
            replica.max_batch, now_ms=0.0, admission=make_admission("admit_all")
        )
        assert len(admitted) == 2
        assert len(replica.queue) == 3

    def test_replica_rejects_bad_batching_config(self):
        with pytest.raises(ValueError, match="max_batch"):
            AcceleratorReplica(SynthServer(), max_batch=0)
        with pytest.raises(ValueError, match="batch_policy"):
            AcceleratorReplica(SynthServer(), batch_policy="mega")


# ------------------------------------------------------------ engine
class TestEngineBatching:
    def _run(self, *, max_batch, batch_policy="per_query", n=12):
        trace = QueryTrace([0.77] * n, [500.0] * n)
        arrivals = np.zeros(n)  # everything queues behind query 0
        engine = ServingEngine(
            [
                AcceleratorReplica(
                    SynthServer(), max_batch=max_batch, batch_policy=batch_policy
                )
            ]
        )
        return engine.run(trace, arrivals)

    def test_per_query_batch_members_run_back_to_back(self):
        result = self._run(max_batch=4)
        # First pickup serves query 0 alone (the queue fills while it runs);
        # the second pickup takes 4 and staggers their starts.
        batch2 = [o for o in result.outcomes if o.batch_size == 4][:4]
        starts = sorted(o.start_ms for o in batch2)
        assert starts == [1.0, 2.0, 3.0, 4.0]

    def test_per_query_members_see_their_true_remaining_budget(self):
        # Each member's effective budget is evaluated at its actual start,
        # so earlier members' service time has already eaten into it.
        budgets = []

        class Recording(SynthServer):
            def serve_query(self, query, budget_ms, accuracy_floor):
                budgets.append(budget_ms)
                return super().serve_query(query, budget_ms, accuracy_floor)

        n = 3
        trace = QueryTrace([0.77] * n, [100.0] * n)
        engine = ServingEngine(
            [AcceleratorReplica(Recording(), max_batch=3, batch_policy="per_query")]
        )
        engine.run(trace, np.zeros(n))
        # All three queue at t=0; the pickup at t=1 (after query 0's unit
        # service... actually query 0 is its own pickup) — member budgets
        # shrink by one unit of service per position in the batch.
        assert budgets == [100.0, 99.0, 98.0]

    def test_per_query_members_expiring_mid_batch_are_shed(self):
        # Query 2's deadline passes while query 1 runs inside the pickup:
        # it is dropped at its would-be start, exactly as the seed loop
        # serving the queue one at a time would have shed it.
        trace = QueryTrace([0.77] * 3, [100.0, 100.0, 1.5])
        engine = ServingEngine(
            [
                AcceleratorReplica(
                    SynthServer(), max_batch=3, batch_policy="per_query"
                )
            ],
            admission="drop_expired",
        )
        result = engine.run(trace, np.zeros(3))
        assert [o.query_index for o in result.outcomes] == [0, 1]
        (dropped,) = result.dropped
        assert dropped.query_index == 2
        assert dropped.dropped_at_ms == pytest.approx(2.0)  # its would-be start
        # The surviving pickup reports its post-shed size.
        assert {o.batch_size for o in result.outcomes if o.start_ms >= 1.0} == {1}

    def test_completion_is_one_event_per_batch(self):
        result = self._run(max_batch=4)
        # 12 zero-time arrivals on one replica: pickup of 1, then 4, 4, 3.
        assert result.num_batches == 4
        assert result.mean_batch_occupancy == pytest.approx(3.0)

    def test_records_stamped_with_replica_index_at_dispatch(self):
        n = 10
        trace = QueryTrace([0.77] * n, [500.0] * n)
        engine = ServingEngine(
            [AcceleratorReplica(SynthServer()) for _ in range(2)], router="jsq"
        )
        result = engine.run(trace, np.linspace(0.0, 3.0, n))
        for o in result.outcomes:
            assert o.record.replica_index == o.replica_index
        # The stamped record differs from the backend's only in the index.
        raw = serve_one(SynthServer(), trace[0])
        stamped = next(o.record for o in result.outcomes if o.query_index == 0)
        assert dataclasses.replace(stamped, replica_index=0) == raw


# ------------------------------------------------------------ spec layer
class TestBatchingSpec:
    def test_defaults_disable_batching(self):
        assert BatchingSpec() == BatchingSpec(max_batch=1, policy="shared_subnet")
        assert ReplicaGroupSpec().batching.max_batch == 1

    def test_json_round_trip_is_exact(self):
        spec = ScenarioSpec(
            replica_groups=(
                ReplicaGroupSpec(
                    count=2, batching=BatchingSpec(max_batch=8, policy="per_query")
                ),
            )
        )
        assert ScenarioSpec.from_json(spec.to_json()) == spec
        data = json.loads(spec.to_json())
        assert data["replica_groups"][0]["batching"] == {
            "max_batch": 8,
            "policy": "per_query",
        }

    def test_json_without_batching_key_defaults(self):
        spec = ScenarioSpec.from_dict(
            {"replica_groups": [{"count": 1, "kind": "sushi"}]}
        )
        assert spec.replica_groups[0].batching == BatchingSpec()

    def test_json_null_batching_defaults(self):
        # "batching": null mirrors the nullable autoscaler field.
        spec = ScenarioSpec.from_dict(
            {"replica_groups": [{"count": 1, "kind": "sushi", "batching": None}]}
        )
        assert spec.replica_groups[0].batching == BatchingSpec()
        assert ReplicaGroupSpec(batching=None).batching == BatchingSpec()

    def test_mapping_coerces_to_batching_spec(self):
        group = ReplicaGroupSpec(batching={"max_batch": 4, "policy": "shared_subnet"})
        assert group.batching == BatchingSpec(max_batch=4)

    def test_validation(self):
        with pytest.raises(ValueError, match="max_batch"):
            BatchingSpec(max_batch=0)
        with pytest.raises(ValueError, match="at 'policy': expected one of"):
            BatchingSpec(policy="mega")

    def test_override_path_reaches_batching(self):
        spec = ScenarioSpec()
        tuned = spec.override("replica_groups.0.batching.max_batch", 8)
        assert tuned.replica_groups[0].batching.max_batch == 8

    def test_build_engine_wires_batching(self):
        spec = ScenarioSpec(
            supernet_name="ofa_mobilenetv3",
            policy=Policy.STRICT_LATENCY,
            replica_groups=(
                ReplicaGroupSpec(
                    count=2, batching=BatchingSpec(max_batch=8, policy="per_query")
                ),
            ),
        )
        engine = build_engine(spec)
        assert all(r.max_batch == 8 for r in engine.replicas)
        assert all(r.batch_policy == "per_query" for r in engine.replicas)


# ------------------------------------------------------------ scenarios
class TestBatchedScenarios:
    def _spec(self, *, max_batch, rate=6.0, autoscaler=None, **overrides):
        return ScenarioSpec(
            name=f"batched-{max_batch}",
            supernet_name="ofa_mobilenetv3",
            policy=Policy.STRICT_LATENCY,
            cache_update_period=16,
            replica_groups=(
                ReplicaGroupSpec(
                    count=2,
                    discipline="edf",
                    batching=BatchingSpec(max_batch=max_batch),
                ),
            ),
            router="jsq",
            admission="drop_expired",
            workload=WorkloadSpec(
                num_queries=120, accuracy_range=None, latency_range_ms=(8.0, 40.0)
            ),
            arrivals=ArrivalSpec(kind="poisson", rate_per_ms=rate, seed=0),
            autoscaler=autoscaler,
            seed=0,
            **overrides,
        )

    def test_batch_one_scenario_matches_unbatched_spec(self):
        batched = run_scenario(self._spec(max_batch=1))
        spec = self._spec(max_batch=1)
        unbatched = run_scenario(
            dataclasses.replace(
                spec,
                replica_groups=(
                    dataclasses.replace(
                        spec.replica_groups[0], batching=BatchingSpec()
                    ),
                ),
            ),
        )
        assert batched.outcomes == unbatched.outcomes
        assert batched.dropped == unbatched.dropped

    def test_batching_raises_goodput_at_overload(self):
        b1 = run_scenario(self._spec(max_batch=1))
        b8 = run_scenario(self._spec(max_batch=8))
        assert b1.offered_load > 1.0
        assert b8.goodput_per_ms > b1.goodput_per_ms
        assert b8.mean_batch_occupancy > 1.5

    def test_shared_batches_in_scenarios_respect_feasible_accuracy(self):
        # Under STRICT_ACCURACY the shared decision takes the batch's
        # strictest accuracy constraint, so every member with a feasible
        # constraint is served at or above it.  (STRICT_LATENCY treats
        # accuracy as soft, so this guarantee is policy-specific.)
        spec = ScenarioSpec(
            name="batched-strict-accuracy",
            supernet_name="ofa_mobilenetv3",
            policy=Policy.STRICT_ACCURACY,
            replica_groups=(
                ReplicaGroupSpec(
                    count=2,
                    discipline="edf",
                    batching=BatchingSpec(max_batch=8),
                ),
            ),
            router="jsq",
            workload=WorkloadSpec(
                num_queries=120, accuracy_range=None, latency_range_ms=(8.0, 40.0)
            ),
            arrivals=ArrivalSpec(kind="poisson", rate_per_ms=4.0, seed=0),
            seed=0,
        )
        result = run_scenario(spec)
        table = SushiStack(
            SushiStackConfig(
                supernet_name="ofa_mobilenetv3", policy=Policy.STRICT_ACCURACY, seed=0
            )
        ).table
        max_accuracy = float(table.accuracies.max())
        batched = [o for o in result.outcomes if o.batch_size > 1]
        assert batched  # batching actually engaged
        for o in batched:
            if o.record.accuracy_constraint <= max_accuracy:
                assert o.served_accuracy >= o.record.accuracy_constraint

    def test_draining_replicas_finish_their_queues_in_batches(self):
        from repro.serving.spec import AutoscalerSpec

        spec = self._spec(
            max_batch=8,
            rate=6.0,
            autoscaler=AutoscalerSpec(
                policy="scheduled",
                schedule=((0.0, 2), (15.0, 1)),
                control_interval_ms=5.0,
                min_replicas=1,
                max_replicas=2,
            ),
        )
        result = run_scenario(spec)
        assert result.autoscale is not None
        assert result.autoscale.num_scale_downs >= 1
        # Every query routed to the drained replica was still served or
        # shed through the normal dispatch path — nothing vanished.
        assert result.num_served + result.num_dropped == result.num_offered
        # Batches never mix replicas: each pickup's members share one index.
        batches = {}
        for o in result.outcomes:
            batches.setdefault((o.replica_index, o.start_ms), set()).add(
                o.batch_size
            )
        for members in batches.values():
            assert len(members) == 1


# ------------------------------------------------- the acceptance sweep
class TestBatchingSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        from repro.experiments import batching_sweep

        return batching_sweep.run(num_queries=300, batch_sizes=(1, 4, 8), seed=0)

    def test_shared_batching_beats_unbatched_goodput(self, sweep):
        """The ISSUE acceptance bar: the sweep's overload trace shows the
        shared-SubNet goodput frontier rising with B."""
        b1, b8 = sweep.point("B=1"), sweep.point("B=8")
        assert b8.goodput_per_ms > b1.goodput_per_ms
        assert b8.mean_batch_occupancy > 1.5

    def test_shared_beats_per_query_at_equal_batch(self, sweep):
        """Weight sharing is what makes batching pay: the same pickup size
        without a shared evaluation serves strictly less goodput."""
        assert (
            sweep.point("B=8").goodput_per_ms
            > sweep.point("B=8-per-query").goodput_per_ms
        )

    def test_unbatched_cell_reports_unit_occupancy(self, sweep):
        assert sweep.point("B=1").mean_batch_occupancy == pytest.approx(1.0)

    def test_report_and_json_dump(self, sweep):
        from repro.analysis.reporting import jsonable
        from repro.experiments import batching_sweep

        text = batching_sweep.report(sweep)
        assert "goodput" in text
        assert "cache loads" in text
        dump = jsonable(sweep)
        json.dumps(dump)  # JSON-safe
        assert {p["label"] for p in dump["points"]} == {
            p.label for p in sweep.points
        }


# ------------------------------------------------------------ telemetry
class TestBatchTelemetry:
    def test_snapshot_reports_mean_batch_occupancy(self):
        bus = TelemetryBus(window_ms=100.0)
        bus.on_pickup(10.0, 0, [member(10.0)] * 4)
        bus.on_pickup(20.0, 1, [member(20.0)] * 8)
        snap = bus.snapshot(50.0, num_active=1)
        assert snap.mean_batch_occupancy == pytest.approx(6.0)

    def test_occupancy_window_prunes(self):
        bus = TelemetryBus(window_ms=50.0)
        bus.on_pickup(10.0, 0, [member(10.0)] * 8)
        bus.on_pickup(90.0, 1, [member(90.0)] * 2)
        snap = bus.snapshot(100.0, num_active=1)
        assert snap.mean_batch_occupancy == pytest.approx(2.0)

    def test_occupancy_zero_without_pickups(self):
        bus = TelemetryBus(window_ms=50.0)
        assert bus.snapshot(10.0, num_active=1).mean_batch_occupancy == 0.0

    def test_reset_clears_batches(self):
        bus = TelemetryBus(window_ms=50.0)
        bus.on_pickup(10.0, 0, [member(10.0)] * 8)
        bus.reset()
        assert bus.snapshot(20.0, num_active=1).mean_batch_occupancy == 0.0

    def test_engine_feeds_batch_occupancy(self):
        from repro.serving.spec import AutoscalerSpec

        spec = ScenarioSpec(
            supernet_name="ofa_mobilenetv3",
            policy=Policy.STRICT_LATENCY,
            replica_groups=(
                ReplicaGroupSpec(
                    count=1, discipline="edf", batching=BatchingSpec(max_batch=8)
                ),
            ),
            admission="drop_expired",
            workload=WorkloadSpec(
                num_queries=60, accuracy_range=None, latency_range_ms=(8.0, 40.0)
            ),
            arrivals=ArrivalSpec(kind="poisson", rate_per_ms=4.0, seed=0),
            autoscaler=AutoscalerSpec(
                policy="reactive", control_interval_ms=10.0, max_replicas=2
            ),
            seed=0,
        )
        engine = build_engine(spec)
        trace_spec = spec
        from repro.serving.api import build_trace

        trace = build_trace(trace_spec)
        engine.autoscaler.keep_metrics = True
        engine.run(trace, spec.arrivals.generate(len(trace)))
        occupancies = [
            snap.mean_batch_occupancy for snap in engine.autoscaler.metrics_history
        ]
        # Some window saw pickups, and every pickup holds at least one query.
        assert any(occupancies)
        assert all(o == 0.0 or o >= 1.0 for o in occupancies)
