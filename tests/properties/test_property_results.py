"""Property tests of the columnar results (``serving/engine/results``).

A run writes one :class:`ResultTable` row per offered query; the result's
``outcomes`` / ``dropped`` / ``records`` views rebuild the objects and its
summaries read the columns.  Over hypothesis-generated runs — all three
drop reasons, ``shared_subnet`` and ``per_query`` batching, crashes with
retries, brownout, stragglers, transient dispatch failures, autoscaling —
two properties must hold:

* **(a) the views are what was written** — ``ServingEngine.run``'s views
  equal ``engine_oracle.reference_run``'s, and both equal the outcome and
  drop objects the reference loop built before writing them;
* **(b) same arithmetic** — every ``SimulationResult`` summary equals the
  per-object formula it replaced, recomputed here from
  ``tuple(result.outcomes)``, bit for bit (``repr`` and type).

A query's index is its row, so the views come out in query-index order by
construction.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from engine_oracle import reference_objects, reference_run
from hypothesis import given, settings, strategies as st

from repro.serving.autoscale import AutoscaleController, ScaledGroup
from repro.serving.engine import AcceleratorReplica, FaultInjector, ServingEngine
from repro.serving.engine.results import ResultTable
from repro.serving.query import QueryTrace
from repro.serving.spec import AutoscalerSpec, FaultSpec, RetryPolicy

RATE_PER_MS = 0.7
"""Nominal arrival rate handed to ``run`` so ``offered_load`` is computed."""


class VaryingServer:
    """Synthetic backend whose served fields vary per query index.

    Subnet names repeat (interning), and accuracy, hit ratio, energy and
    cache loads differ between queries, so a column swapped or dropped by
    the table shows up in the views.
    """

    NAMES = ("small", "medium", "large")

    def __init__(self, services_ms):
        self.services_ms = list(services_ms)

    @staticmethod
    def _served(query, service_ms, name):
        i = query.index
        return (
            name,
            0.70 + 0.01 * (i % 7),
            service_ms,
            (i % 5) / 4,
            0.1 * (i % 3) + service_ms,
            0.25 if i % 4 == 0 else 0.0,
        )

    def serve_query(self, query, budget_ms, accuracy_floor):
        i = query.index
        return self._served(
            query, self.services_ms[i % len(self.services_ms)], self.NAMES[i % 3]
        )

    def serve_dispatch_batch(self, queries, budgets_ms, accuracy_floor):
        service = max(self.services_ms[q.index % len(self.services_ms)] for q in queries)
        return [self._served(q, service, "batch") for q in queries]


positive = st.floats(min_value=0.01, max_value=20.0, allow_nan=False)

workload = st.integers(min_value=2, max_value=30).flatmap(
    lambda n: st.tuples(
        st.lists(positive, min_size=n, max_size=n),  # arrival gaps
        st.lists(positive, min_size=n, max_size=n),  # service times
        st.lists(positive, min_size=n, max_size=n),  # latency constraints
    )
)

fault_params = st.builds(
    FaultSpec,
    seed=st.integers(min_value=0, max_value=15),
    crash_mtbf_ms=st.floats(min_value=5.0, max_value=60.0),
    straggler_mtbf_ms=st.floats(min_value=5.0, max_value=60.0),
    straggler_duration_ms=st.floats(min_value=0.5, max_value=10.0),
    straggler_factor=st.floats(min_value=1.0, max_value=5.0),
    dispatch_failure_prob=st.floats(min_value=0.0, max_value=0.4),
    retry=st.builds(
        RetryPolicy,
        max_attempts=st.integers(min_value=1, max_value=4),
        backoff_base_ms=st.floats(min_value=0.1, max_value=2.0),
    ),
    brownout_threshold=st.one_of(st.none(), st.floats(min_value=0.2, max_value=1.0)),
    brownout_accuracy_step=st.floats(min_value=0.01, max_value=0.2),
)

pools = st.fixed_dictionaries(
    {
        "num_replicas": st.integers(min_value=1, max_value=3),
        "max_batch": st.sampled_from([1, 3]),
        "batch_policy": st.sampled_from(["shared_subnet", "per_query"]),
        "discipline": st.sampled_from(["fifo", "edf", "priority_by_slack"]),
        "router": st.sampled_from(["round_robin", "jsq", "least_loaded"]),
        "admission": st.sampled_from(["admit_all", "drop_expired"]),
        "faults": st.one_of(st.none(), fault_params),
        "autoscale": st.booleans(),
    }
)


SINGLE = {
    "num_replicas": 1,
    "max_batch": 1,
    "batch_policy": "shared_subnet",
    "discipline": "fifo",
    "router": "round_robin",
    "admission": "drop_expired",
    "faults": None,
    "autoscale": False,
}
"""One replica, no batching, admission shedding on, no optional layer."""


def build_engine(services, pool):
    def replica(_pos=None):
        return AcceleratorReplica(
            VaryingServer(services),
            discipline=pool["discipline"],
            max_batch=pool["max_batch"],
            batch_policy=pool["batch_policy"],
        )

    autoscaler = None
    if pool["autoscale"]:
        autoscaler = AutoscaleController(
            AutoscalerSpec(control_interval_ms=5.0, min_replicas=1, max_replicas=4),
            [
                ScaledGroup(
                    None,
                    replica,
                    tuple(range(pool["num_replicas"])),
                    startup_delay_ms=3.0,
                )
            ],
        )
    engine = ServingEngine(
        [replica() for _ in range(pool["num_replicas"])],
        router=pool["router"],
        admission=pool["admission"],
        autoscaler=autoscaler,
    )
    if pool["faults"] is not None:
        engine.faults = FaultInjector(pool["faults"])
    return engine


def run_both(trace, arrivals, services, pool):
    """``(engine result, reference result, reference outcomes, drops)``."""
    result = build_engine(services, pool).run(
        trace, arrivals, arrival_rate_per_ms=RATE_PER_MS
    )
    reference, outcomes, dropped = reference_objects(
        build_engine(services, pool), trace, arrivals, arrival_rate_per_ms=RATE_PER_MS
    )
    return result, reference, outcomes, dropped


def object_summaries(result) -> dict:
    """Every summary by the per-object formula it had before the table."""
    outcomes = tuple(result.outcomes)
    dropped = tuple(result.dropped)
    offered = len(outcomes) + len(dropped)
    met = sum(o.meets_slo for o in outcomes)
    reasons: dict[str, int] = {}
    for d in dropped:
        reasons[d.reason] = reasons.get(d.reason, 0) + 1
    batches = round(sum(1.0 / o.batch_size for o in outcomes)) if outcomes else 0
    makespan = max((o.completion_ms for o in outcomes), default=0.0)
    stats = result.replica_stats
    if result.autoscale is None:
        capacity = len(stats)
    else:
        active = sum(s.active_ms for s in stats)
        mean_active = (
            active / result.duration_ms if result.duration_ms > 0 else float(len(stats))
        )
        capacity = max(mean_active, 1e-12)
    return {
        "num_served": len(outcomes),
        "num_dropped": len(dropped),
        "num_offered": offered,
        "drop_reasons": reasons,
        "drop_rate": len(dropped) / offered if offered else 0.0,
        "slo_attainment": met / offered if offered else 0.0,
        "mean_response_ms": (
            float(np.mean([o.response_ms for o in outcomes])) if outcomes else 0.0
        ),
        "p99_response_ms": (
            float(np.percentile([o.response_ms for o in outcomes], 99))
            if outcomes
            else 0.0
        ),
        "mean_queueing_ms": (
            float(np.mean([o.queueing_ms for o in outcomes])) if outcomes else 0.0
        ),
        "goodput_per_ms": met / result.duration_ms if result.duration_ms > 0 else 0.0,
        "num_batches": batches,
        "mean_batch_occupancy": len(outcomes) / batches if batches else 0.0,
        "mean_accuracy": (
            float(np.mean([o.served_accuracy for o in outcomes])) if outcomes else 0.0
        ),
        "makespan_ms": makespan,
        "achieved_throughput_per_ms": len(outcomes) / makespan if makespan > 0 else 0.0,
        "offered_load": (
            RATE_PER_MS * float(np.mean([o.service_ms for o in outcomes])) / capacity
            if outcomes
            else 0.0
        ),
        "records": tuple(o.record for o in outcomes if o.record is not None),
    }


def assert_bitwise(actual, expected, what):
    assert type(actual) is type(expected), (what, actual, expected)
    assert repr(actual) == repr(expected), (what, actual, expected)


def assert_views_match(result, reference, outcomes, dropped):
    """Property (a)."""
    assert result.outcomes == reference.outcomes
    assert result.dropped == reference.dropped
    assert result.records == reference.records
    assert result.replica_stats == reference.replica_stats
    assert result.duration_ms == reference.duration_ms
    assert_bitwise(tuple(result.outcomes), outcomes, "outcomes")
    assert_bitwise(tuple(result.dropped), dropped, "dropped")
    assert_bitwise(
        tuple(result.records), tuple(o.record for o in outcomes), "records"
    )


def assert_summaries_match(result):
    """Property (b)."""
    for name, expected in object_summaries(result).items():
        actual = getattr(result, name)
        if name == "records":
            actual = tuple(actual)
        assert_bitwise(actual, expected, name)


class TestResultTable:
    @given(workload, pools)
    @settings(max_examples=150, deadline=None)
    def test_views_and_summaries_match_the_objects(self, wl, pool):
        gaps, services, constraints = wl
        trace = QueryTrace([0.77] * len(gaps), list(constraints))
        arrivals = np.cumsum(gaps)
        result, reference, outcomes, dropped = run_both(trace, arrivals, services, pool)
        assert_views_match(result, reference, outcomes, dropped)
        assert_summaries_match(result)
        assert_summaries_match(reference)

    def test_all_drop_reasons_and_batches_are_exercised(self):
        """A fixed run that hits every drop reason and both batch policies.

        Two replicas under drop_expired admission crash early (mean time
        between failures 15 ms, a single attempt, so lost queries fail),
        arrivals during the outage find no replica and are shed, and a
        tight constraint expires queued queries.
        """
        rng = np.random.default_rng(3)
        n = 60
        gaps = rng.exponential(0.5, size=n).tolist()
        services = rng.uniform(0.5, 3.0, size=n).tolist()
        constraints = [1.0 if i % 3 == 0 else 50.0 for i in range(n)]
        trace = QueryTrace([0.77] * n, constraints)
        arrivals = np.cumsum(gaps)
        for policy in ("shared_subnet", "per_query"):
            pool = dict(
                SINGLE, num_replicas=2, max_batch=3, batch_policy=policy,
                faults=FaultSpec(seed=1, crash_mtbf_ms=15.0, retry=RetryPolicy(max_attempts=1)),
            )
            result, reference, outcomes, dropped = run_both(
                trace, arrivals, services, pool
            )
            assert set(result.drop_reasons) == {"deadline_expired", "failed", "shed"}
            assert max(o.batch_size for o in outcomes) > 1
            assert_views_match(result, reference, outcomes, dropped)
            assert_summaries_match(result)

    @given(workload, st.integers(min_value=0, max_value=29))
    @settings(max_examples=30, deadline=None)
    def test_views_index_slice_and_rebuild_on_every_access(self, wl, k):
        gaps, services, constraints = wl
        trace = QueryTrace([0.77] * len(gaps), list(constraints))
        result = build_engine(services, SINGLE).run(trace, np.cumsum(gaps))
        outcomes = tuple(result.outcomes)
        assert len(result.outcomes) == len(outcomes)
        assert tuple(result.outcomes[k:]) == outcomes[k:]
        assert result.outcomes[k:] == outcomes[k:]
        if outcomes:
            i = k % len(outcomes)
            assert result.outcomes[i] == outcomes[i]
            assert result.outcomes[-1] == outcomes[-1]
            # Each access builds a new, equal object: nothing is cached.
            assert result.outcomes[i] is not result.outcomes[i]
        assert result == reference_run(
            build_engine(services, SINGLE), trace, np.cumsum(gaps)
        )

    def test_put_rejects_a_record_of_another_query(self):
        """A row stores no record index or latency constraint of its own, so
        ``put`` refuses an outcome whose record disagrees with either."""
        trace = QueryTrace([0.77] * 3, [50.0] * 3)
        result = build_engine([1.0] * 3, SINGLE).run(trace, np.arange(3.0))
        outcome = result.outcomes[1]
        table = ResultTable(3)
        table.put(1, outcome)
        assert tuple(table.views()[0]) == (outcome,)
        for bad in (
            dataclasses.replace(outcome.record, query_index=2),
            dataclasses.replace(outcome.record, latency_constraint_ms=49.0),
        ):
            with pytest.raises(ValueError, match="row 1"):
                table.put(1, dataclasses.replace(outcome, record=bad))
