"""Unit tests for the discrete-event multi-replica serving engine."""

import numpy as np
import pytest

from closed_loop_oracle import serve_trace
from engine_oracle import EventHeap, build_stack_engine
from fakes import ConstantServer

from repro.core.metrics import QueryRecord
from repro.core.policies import Policy
from repro.serving.engine import (
    AcceleratorReplica,
    AdmitAll,
    DropExpired,
    EDFQueue,
    FIFOQueue,
    FastestExpectedRouter,
    JoinShortestQueueRouter,
    LeastLoadedRouter,
    QueuedQuery,
    RoundRobinRouter,
    ServingEngine,
    SlackPriorityQueue,
    make_admission,
    make_discipline,
    make_router,
    poisson_arrivals,
)
from repro.serving.engine.events import EventKind
from repro.serving.query import QueryTrace
from repro.serving.stack import SushiStack, SushiStackConfig
from repro.serving.workload import WorkloadGenerator, WorkloadSpec


def make_trace(n, *, latency_ms=10.0):
    return QueryTrace([0.77] * n, [latency_ms] * n)


def queued(index, arrival, *, constraint=10.0, estimate=0.0):
    return QueuedQuery(index, 0.77, constraint, arrival, estimate)


class TestEventHeap:
    def test_orders_by_time_then_kind(self):
        heap = EventHeap()
        heap.push(2.0, EventKind.ARRIVAL, "a2")
        heap.push(1.0, EventKind.ARRIVAL, "a1")
        heap.push(2.0, EventKind.COMPLETION, "c2")
        assert heap.pop().payload == "a1"
        # Completions fire before arrivals at equal timestamps.
        assert heap.pop().payload == "c2"
        assert heap.pop().payload == "a2"

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventHeap().pop()


class TestDisciplines:
    def test_fifo_preserves_arrival_order(self):
        q = FIFOQueue()
        for i in range(3):
            q.push(queued(i, arrival=float(i)))
        assert [q.pop().index for _ in range(3)] == [0, 1, 2]

    def test_edf_pops_earliest_deadline(self):
        q = EDFQueue()
        q.push(queued(0, arrival=0.0, constraint=50.0))   # deadline 50
        q.push(queued(1, arrival=5.0, constraint=10.0))   # deadline 15
        q.push(queued(2, arrival=1.0, constraint=30.0))   # deadline 31
        assert [q.pop().index for _ in range(3)] == [1, 2, 0]

    def test_slack_accounts_for_service_estimate(self):
        q = SlackPriorityQueue()
        # Same deadline, but index 1 needs much longer service: less slack.
        q.push(queued(0, arrival=0.0, constraint=20.0, estimate=1.0))
        q.push(queued(1, arrival=0.0, constraint=20.0, estimate=15.0))
        assert q.pop().index == 1

    def test_factory_rejects_unknown(self):
        with pytest.raises(ValueError):
            make_discipline("lifo")
        assert isinstance(make_discipline("priority_by_slack"), SlackPriorityQueue)


class TestAdmission:
    def test_admit_all(self):
        assert AdmitAll().admit(queued(0, 0.0, constraint=1.0), now_ms=99.0)

    def test_drop_expired_sheds_late_queries(self):
        policy = DropExpired()
        item = queued(0, arrival=0.0, constraint=5.0)
        assert policy.admit(item, now_ms=4.9)
        assert not policy.admit(item, now_ms=5.0)

    def test_factory_rejects_unknown(self):
        with pytest.raises(ValueError):
            make_admission("always_drop")


class TestRouting:
    def _replicas(self, n):
        return [
            AcceleratorReplica(ConstantServer(1.0), index=i) for i in range(n)
        ]

    def test_round_robin_cycles(self):
        router = RoundRobinRouter()
        replicas = self._replicas(3)
        item = queued(0, 0.0)
        picks = [router.select(replicas, item, 0.0) for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_jsq_prefers_idle_replica(self):
        replicas = self._replicas(2)
        replicas[0].enqueue(queued(0, 0.0))
        router = JoinShortestQueueRouter()
        assert router.select(replicas, queued(1, 0.0), 0.0) == 1

    def test_jsq_breaks_ties_to_the_lowest_index(self):
        replicas = self._replicas(4)
        router = JoinShortestQueueRouter()
        assert router.select(replicas, queued(0, 0.0), 0.0) == 0
        seq = 0
        for index, depth in enumerate((2, 1, 3, 1)):
            for _ in range(depth):
                replicas[index].enqueue(queued(seq, 0.0))
                seq += 1
        assert [r.num_in_system for r in replicas] == [2, 1, 3, 1]
        assert [r.queue_length() for r in replicas] == [2, 1, 3, 1]
        assert router.select(replicas, queued(seq, 0.0), 0.0) == 1

    def test_least_loaded_uses_backlog(self):
        replicas = self._replicas(2)
        replicas[0].enqueue(queued(0, 0.0, estimate=1.0))
        replicas[1].enqueue(queued(1, 0.0, estimate=50.0))
        router = LeastLoadedRouter()
        assert router.select(replicas, queued(2, 0.0), 0.0) == 0

    def test_fastest_expected_prefers_fast_server_when_idle(self):
        # Equal backlogs: the replica whose estimator predicts the smaller
        # service time for *this query* wins (its group's latency table).
        replicas = [
            AcceleratorReplica(ConstantServer(1.0), index=0,
                               service_estimator=lambda q: 20.0),
            AcceleratorReplica(ConstantServer(1.0), index=1,
                               service_estimator=lambda q: 2.0),
        ]
        router = FastestExpectedRouter()
        item = queued(0, 0.0)
        assert router.select(replicas, item, 0.0) == 1
        # The winner's estimate stays on the item for the queue.
        assert item.service_estimate_ms == 2.0

    def test_fastest_expected_trades_backlog_against_speed(self):
        # The fast replica is so backlogged that the slow idle one finishes
        # this query earlier: 30 + 2 > 0 + 20.
        replicas = [
            AcceleratorReplica(ConstantServer(1.0), index=0,
                               service_estimator=lambda q: 20.0),
            AcceleratorReplica(ConstantServer(1.0), index=1,
                               service_estimator=lambda q: 2.0),
        ]
        replicas[1].enqueue(queued(0, 0.0, estimate=30.0))
        router = FastestExpectedRouter()
        item = queued(1, 0.0)
        assert router.select(replicas, item, 0.0) == 0
        assert item.service_estimate_ms == 20.0

    def test_fastest_expected_ties_resolve_to_lowest_index(self):
        replicas = [
            AcceleratorReplica(ConstantServer(1.0), index=i,
                               service_estimator=lambda q: 5.0)
            for i in range(3)
        ]
        router = FastestExpectedRouter()
        assert router.select(replicas, queued(0, 0.0), 0.0) == 0

    def test_factory_rejects_unknown(self):
        with pytest.raises(ValueError):
            make_router("random")
        assert make_router("fastest_expected").name == "fastest_expected"


class TestEngineOpenLoop:
    def test_single_replica_fifo_matches_lindley_recursion(self):
        server = ConstantServer(2.0)
        engine = ServingEngine([AcceleratorReplica(server)], admission="admit_all")
        trace = make_trace(20)
        arrivals = np.arange(20, dtype=float) * 1.5  # rho > 1: queue builds
        result = engine.run(trace, arrivals)
        prev_completion = 0.0
        for o in result.outcomes:
            assert o.start_ms == pytest.approx(max(o.arrival_ms, prev_completion))
            prev_completion = o.completion_ms

    def test_effective_budget_shrinks_with_waiting(self):
        server = ConstantServer(5.0)
        engine = ServingEngine([AcceleratorReplica(server)])
        trace = make_trace(5, latency_ms=10.0)
        arrivals = np.zeros(5)  # all arrive at t=0, each waits 5ms more
        engine.run(trace, arrivals)
        budgets = server.effective_budgets
        assert budgets[0] == pytest.approx(10.0)
        assert budgets[1] == pytest.approx(5.0)
        # Once the wait exceeds the constraint the budget floors just above 0.
        assert all(b > 0 for b in budgets)
        assert budgets[3] < 1e-6

    def test_drop_expired_sheds_and_accounts(self):
        server = ConstantServer(4.0)
        engine = ServingEngine(
            [AcceleratorReplica(server)], admission="drop_expired"
        )
        trace = make_trace(10, latency_ms=6.0)
        arrivals = np.zeros(10)
        result = engine.run(trace, arrivals)
        assert result.num_dropped > 0
        assert result.num_served + result.num_dropped == len(trace)
        assert result.drop_rate == pytest.approx(result.num_dropped / len(trace))
        assert result.replica_stats[0].num_dropped == result.num_dropped
        # Dropped queries count as SLO violations.
        met = sum(o.response_ms <= o.latency_constraint_ms for o in result.outcomes)
        assert result.slo_attainment == pytest.approx(met / len(trace))

    def test_two_replicas_halve_the_backlog(self):
        trace = make_trace(40)
        arrivals = np.arange(40, dtype=float)  # 1 query/ms, service 1.8ms
        single = ServingEngine([AcceleratorReplica(ConstantServer(1.8))])
        double = ServingEngine(
            [AcceleratorReplica(ConstantServer(1.8), index=i) for i in range(2)],
            router="jsq",
        )
        r1 = single.run(trace, arrivals)
        r2 = double.run(trace, arrivals)
        assert r2.mean_queueing_ms < r1.mean_queueing_ms
        assert r2.slo_attainment >= r1.slo_attainment
        assert {o.replica_index for o in r2.outcomes} == {0, 1}
        # Records are stamped with the replica that served them.
        assert all(o.record.replica_index == o.replica_index for o in r2.outcomes)

    def test_replica_stats_consistent(self):
        engine = ServingEngine(
            [AcceleratorReplica(ConstantServer(2.0), index=i) for i in range(2)],
            router="round_robin",
        )
        trace = make_trace(12)
        arrivals = np.linspace(0, 30, 12)
        result = engine.run(trace, arrivals)
        assert sum(s.num_served for s in result.replica_stats) == 12
        for s in result.replica_stats:
            assert s.busy_ms == pytest.approx(2.0 * s.num_served)

    def test_achieved_throughput_and_offered_load(self):
        engine = ServingEngine([AcceleratorReplica(ConstantServer(2.0))])
        trace = make_trace(30)
        result = engine.run_open_loop(trace, arrival_rate_per_ms=1.0, seed=0)
        assert result.offered_load == pytest.approx(2.0)
        makespan = max(o.completion_ms for o in result.outcomes)
        assert result.achieved_throughput_per_ms == pytest.approx(30 / makespan)

    def test_arrivals_shape_validated(self):
        engine = ServingEngine([AcceleratorReplica(ConstantServer(1.0))])
        with pytest.raises(ValueError):
            engine.run(make_trace(5), np.zeros(4))

    @pytest.mark.parametrize(
        ("arrivals", "bad_index"),
        [
            ([0.0, 5.0, 1.0, 6.0], 2),  # unsorted: the clock would run back
            ([0.0, np.nan, 1.0, 2.0], 1),
            ([-3.0, 0.0, 1.0, 2.0], 0),
            ([0.0, 1.0, np.inf, 2.0], 2),
        ],
        ids=["unsorted", "nan", "negative", "inf"],
    )
    def test_invalid_arrival_times_rejected(self, arrivals, bad_index):
        engine = ServingEngine([AcceleratorReplica(ConstantServer(2.0))])
        with pytest.raises(ValueError, match=rf"arrivals\[{bad_index}\]"):
            engine.run(make_trace(4), np.array(arrivals))

    def test_replica_index_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ServingEngine(
                [AcceleratorReplica(ConstantServer(1.0), index=1)]
            )

    def test_deterministic_given_seed(self):
        engine = ServingEngine([AcceleratorReplica(ConstantServer(1.5))])
        trace = make_trace(25)
        a = engine.run_open_loop(trace, arrival_rate_per_ms=0.8, seed=7)
        b = engine.run_open_loop(trace, arrival_rate_per_ms=0.8, seed=7)
        assert a.mean_response_ms == b.mean_response_ms
        assert [o.start_ms for o in a.outcomes] == [o.start_ms for o in b.outcomes]


class TestPoissonArrivals:
    def test_monotone_increasing(self):
        arrivals = poisson_arrivals(100, 0.5, rng=np.random.default_rng(0))
        assert np.all(np.diff(arrivals) > 0)

    def test_mean_gap_matches_rate(self):
        arrivals = poisson_arrivals(5000, 2.0, rng=np.random.default_rng(1))
        assert np.mean(np.diff(arrivals)) == pytest.approx(0.5, rel=0.1)

    def test_invalid_arguments(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            poisson_arrivals(0, 1.0, rng=rng)
        with pytest.raises(ValueError):
            poisson_arrivals(10, 0.0, rng=rng)


def constant_engine(service_ms):
    """One replica serving every query in ``service_ms``, FIFO."""
    return ServingEngine([AcceleratorReplica(ConstantServer(service_ms))])


class TestOpenLoopQueueing:
    """Poisson arrivals through one constant-service replica."""

    def test_fifo_no_overlap(self):
        result = constant_engine(2.0).run_open_loop(
            make_trace(50), arrival_rate_per_ms=5.0, seed=0
        )
        starts = [o.start_ms for o in result.outcomes]
        completions = [o.completion_ms for o in result.outcomes]
        for prev_end, nxt_start in zip(completions, starts[1:]):
            assert nxt_start >= prev_end - 1e-9

    def test_light_load_no_queueing(self):
        result = constant_engine(1.0).run_open_loop(
            make_trace(50), arrival_rate_per_ms=0.01, seed=0
        )
        # With a mean inter-arrival gap 100x the service time, queueing is
        # negligible (a rare back-to-back arrival may add a small delay).
        assert result.mean_queueing_ms < 0.1
        assert result.slo_attainment == 1.0

    def test_overload_degrades_slo(self):
        engine = constant_engine(5.0)
        light = engine.run_open_loop(make_trace(50), arrival_rate_per_ms=0.05, seed=0)
        heavy = engine.run_open_loop(make_trace(50), arrival_rate_per_ms=2.0, seed=0)
        assert heavy.offered_load > 1.0 > light.offered_load
        assert heavy.slo_attainment < light.slo_attainment
        assert heavy.mean_response_ms > light.mean_response_ms

    def test_response_decomposition(self):
        result = constant_engine(2.0).run_open_loop(
            make_trace(50), arrival_rate_per_ms=1.0, seed=3
        )
        for o in result.outcomes:
            assert o.response_ms == pytest.approx(o.queueing_ms + o.service_ms)

    def test_deterministic_given_seed(self):
        engine = constant_engine(1.5)
        a = engine.run_open_loop(make_trace(50), arrival_rate_per_ms=0.5, seed=9)
        b = engine.run_open_loop(make_trace(50), arrival_rate_per_ms=0.5, seed=9)
        assert a.mean_response_ms == b.mean_response_ms


class TestSimulationResultAccounting:
    """Offered load, achieved throughput and drops are exposed."""

    def test_throughput_and_drop_fields(self):
        trace = make_trace(50)
        result = constant_engine(2.0).run_open_loop(
            trace, arrival_rate_per_ms=1.0, seed=0
        )
        assert result.offered_load == pytest.approx(2.0)
        assert result.num_dropped == 0
        assert result.drop_rate == 0.0
        assert result.num_served == len(trace)
        makespan = max(o.completion_ms for o in result.outcomes)
        assert result.achieved_throughput_per_ms == pytest.approx(
            len(trace) / makespan
        )
        # Without drops, attainment is the served-query mean.
        assert result.slo_attainment == pytest.approx(
            np.mean([o.response_ms <= o.latency_constraint_ms for o in result.outcomes])
        )

    def test_per_replica_stats_exposed(self):
        trace = make_trace(50)
        result = constant_engine(2.0).run_open_loop(
            trace, arrival_rate_per_ms=1.0, seed=0
        )
        assert len(result.replica_stats) == 1
        assert result.replica_stats[0].num_served == len(trace)


@pytest.fixture(scope="module")
def mobilenet_stack():
    return SushiStack(
        SushiStackConfig(
            supernet_name="ofa_mobilenetv3",
            policy=Policy.STRICT_ACCURACY,
            cache_update_period=4,
            seed=0,
        )
    )


@pytest.fixture(scope="module")
def mobilenet_trace():
    spec = WorkloadSpec(
        num_queries=40, accuracy_range=(0.758, 0.803), latency_range_ms=(0.3, 2.0)
    )
    return WorkloadGenerator(spec, seed=11).generate()


class TestEngineWithSushiStack:
    def test_serve_query_matches_batched_serve(self, mobilenet_stack, mobilenet_trace):
        a = mobilenet_stack.clone()
        b = mobilenet_stack.clone()
        batched = serve_trace(a, mobilenet_trace)
        per_query = [
            QueryRecord(
                q.index,
                q.accuracy_constraint,
                q.latency_constraint_ms,
                *b.serve_query(q, q.latency_constraint_ms, q.accuracy_constraint),
            )
            for q in mobilenet_trace
        ]
        assert batched == per_query

    def test_clone_shares_table_but_not_state(self, mobilenet_stack):
        clone = mobilenet_stack.clone()
        assert clone.table is mobilenet_stack.table
        assert clone.scheduler is not mobilenet_stack.scheduler
        assert clone.pb is not mobilenet_stack.pb

    def test_build_stack_engine_leaves_original_untouched(
        self, mobilenet_stack, mobilenet_trace
    ):
        mobilenet_stack.reset()
        before = mobilenet_stack.scheduler.queries_seen
        engine = build_stack_engine(mobilenet_stack, num_replicas=2, router="jsq")
        engine.run_open_loop(mobilenet_trace, arrival_rate_per_ms=1.0, seed=0)
        assert mobilenet_stack.scheduler.queries_seen == before

    def test_estimate_service_is_side_effect_free(self, mobilenet_stack, mobilenet_trace):
        stack = mobilenet_stack.clone()
        seen = stack.scheduler.queries_seen
        estimate = stack.estimate_service_ms(mobilenet_trace[0])
        assert estimate > 0
        assert stack.scheduler.queries_seen == seen


class TestStackPoolOpenLoop:
    """Open-loop runs over clones of a strict-latency SUSHI stack."""

    @pytest.fixture(scope="class")
    def stack(self):
        return SushiStack(
            SushiStackConfig(
                supernet_name="ofa_mobilenetv3",
                policy=Policy.STRICT_LATENCY,
                seed=0,
            )
        )

    def test_runs_and_is_deterministic(self, stack):
        trace = QueryTrace([0.77] * 40, [1.0] * 40)
        engine = build_stack_engine(stack, num_replicas=2, router="jsq")
        a = engine.run_open_loop(trace, arrival_rate_per_ms=2.0, seed=1)
        b = engine.run_open_loop(trace, arrival_rate_per_ms=2.0, seed=1)
        assert [o.start_ms for o in a.outcomes] == [o.start_ms for o in b.outcomes]
        assert a.num_served == 40

    def test_drop_expired_sheds_under_overload(self, stack):
        tight = QueryTrace([0.77] * 60, [0.4] * 60)
        engine = build_stack_engine(stack, admission="drop_expired")
        result = engine.run_open_loop(tight, arrival_rate_per_ms=10.0, seed=0)
        assert result.num_dropped > 0
        assert result.num_served + result.num_dropped == 60
