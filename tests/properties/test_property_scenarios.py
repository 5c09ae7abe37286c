"""Whole-scenario invariants on generated scenarios.

A hypothesis strategy overrides the committed ``poisson``, ``batched``,
``faulty``, ``autoscale`` and ``hetero`` scenarios at 50–600 queries, and
the ``replayed`` one (trace arrivals from the committed 60-request log) at
up to 60, with its ``rate_scale``, ``time_scale`` and ``limit``.  Per
replica group it draws the backend ``kind``, the queue ``discipline``,
``max_batch``, the batching policy, the replica ``count`` and the cold-start
``startup_delay_ms``; scenario-wide the router, the admission policy, the
seed, the Poisson rate and the fault seed.  On an autoscaled base it draws
the control plane too: the policy (``reactive``, ``target_utilization`` or
``predictive``), the replica bounds, both cooldowns and the control
interval; ``hetero`` may gain a ``tier_aware`` autoscaler over both groups
under a cost budget.  On a faulty base it draws the crash MTBF, the
dispatch-failure probability, the retry budget and the brownout threshold.
Every generated spec runs through :func:`run_scenario`, and every run must
satisfy invariants that no configuration may break:

* every offered query's result row is written exactly once, served or
  dropped;
* a served query starts no earlier than it arrived and takes positive
  service time; a dropped one is dropped no earlier than it arrived;
* no two distinct pickups overlap on one replica (the members of a shared
  batch share one interval);
* no replica is busy for longer than it was provisioned;
* at every ``jsq`` routing decision, each candidate replica's
  ``num_in_system`` count equals its queue plus its in-service members,
  and at the end of the run every replica's count is back to zero;
* two runs of the same spec are identical, the second one traced: the
  flight recorder changes no record, and its spans cover every query and
  equal the ones the recorder's former per-object builder
  (``obs_oracle``) makes from the run's outcomes and drops.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st
from obs_oracle import oracle_spans

from repro.serving.api import run_scenario
from repro.serving.engine import ServingEngine
from repro.serving.engine.admission import ADMISSION_NAMES
from repro.serving.engine.disciplines import DISCIPLINE_NAMES
from repro.serving.engine.results import ResultTable
from repro.serving.engine.routing import ROUTER_NAMES, JoinShortestQueueRouter
from repro.serving.spec import BACKEND_KINDS, BATCHING_POLICIES, ScenarioSpec

REPO_ROOT = Path(__file__).resolve().parents[2]
SCENARIOS = REPO_ROOT / "examples" / "scenarios"
BASES = {
    name: ScenarioSpec.from_dict(json.loads((SCENARIOS / f"{name}.json").read_text()))
    for name in (
        "poisson_pool", "batched_pool", "faulty_pool", "autoscale_pool", "hetero_pool",
        "replayed_pool",
    )
}
# The committed log path is relative to the repository root.
BASES["replayed_pool"] = BASES["replayed_pool"].override(
    "arrivals.path", str(REPO_ROOT / BASES["replayed_pool"].arrivals.path)
)
#: Requests in the replayed log (``examples/traces/replay_sample.csv``).
LOG_ROWS = 60


@st.composite
def scenarios(draw) -> ScenarioSpec:
    base = BASES[draw(st.sampled_from(sorted(BASES)))]
    replay = base.arrivals.kind == "trace"
    num_queries = draw(st.integers(1, LOG_ROWS) if replay else st.integers(50, 600))
    overrides = [
        ("num_queries", num_queries),
        ("router", draw(st.sampled_from(ROUTER_NAMES))),
        ("admission", draw(st.sampled_from(ADMISSION_NAMES))),
        ("seed", draw(st.integers(0, 2**16))),
    ]
    if base.arrivals.kind == "poisson":
        overrides.append(("arrivals.rate_per_ms", draw(st.floats(0.2, 6.0))))
    if replay:
        overrides += [
            ("arrivals.rate_scale", draw(st.floats(0.2, 5.0))),
            ("arrivals.time_scale", draw(st.floats(0.2, 5.0))),
            ("arrivals.limit", draw(st.none() | st.integers(num_queries, LOG_ROWS))),
        ]
    if base.faults is not None:
        overrides += [
            ("faults.seed", draw(st.integers(0, 2**16))),
            ("faults.crash_mtbf_ms", draw(st.none() | st.floats(50.0, 800.0))),
            ("faults.dispatch_failure_prob", draw(st.floats(0.0, 0.2))),
            ("faults.retry.max_attempts", draw(st.integers(1, 4))),
            ("faults.brownout_threshold", draw(st.none() | st.floats(0.1, 1.0))),
        ]
    if base.autoscaler is not None:
        overrides += [
            ("autoscaler.policy", draw(st.sampled_from(SINGLE_GROUP_POLICIES))),
            *(("autoscaler." + k, v) for k, v in draw(control_plane()).items()),
        ]
    elif len(base.replica_groups) > 1 and draw(st.booleans()):
        overrides.append(
            (
                "autoscaler",
                {
                    "policy": "tier_aware",
                    "groups": [g.name for g in base.replica_groups],
                    "cost_budget": draw(st.floats(2.0, 12.0)),
                    **draw(control_plane()),
                },
            )
        )
    for i in range(len(base.replica_groups)):
        group = f"replica_groups.{i}"
        overrides += [
            (f"{group}.kind", draw(st.sampled_from(BACKEND_KINDS))),
            (f"{group}.discipline", draw(st.sampled_from(DISCIPLINE_NAMES))),
            (f"{group}.batching.max_batch", draw(st.integers(1, 8))),
            (f"{group}.batching.policy", draw(st.sampled_from(BATCHING_POLICIES))),
            (f"{group}.count", draw(st.integers(1, 3))),
            (f"{group}.startup_delay_ms", draw(st.sampled_from([0.0, 2.0, 10.0]))),
        ]
    return base.override_many(overrides)


SINGLE_GROUP_POLICIES = ("reactive", "target_utilization", "predictive")


@st.composite
def control_plane(draw) -> dict:
    """Replica bounds, cooldowns and control interval of an autoscaler."""
    min_replicas = draw(st.integers(1, 3))
    return {
        "min_replicas": min_replicas,
        "max_replicas": draw(st.integers(min_replicas, 6)),
        "up_cooldown_ms": draw(st.sampled_from([0.0, 5.0])),
        "down_cooldown_ms": draw(st.sampled_from([0.0, 10.0, 40.0])),
        "control_interval_ms": draw(st.floats(2.0, 20.0)),
    }


TABLES: list["CountingTable"] = []
"""The tables made since the last :func:`counted_run` began."""


class CountingTable(ResultTable):
    """A :class:`ResultTable` that counts the writes to each row."""

    def __init__(self, num_rows: int) -> None:
        super().__init__(num_rows)
        self.writes = np.zeros(num_rows, dtype=np.int64)
        TABLES.append(self)

    def serve(self, row, *args) -> None:
        self.writes[row] += 1
        super().serve(row, *args)

    def drop(self, row, *args) -> None:
        self.writes[row] += 1
        super().drop(row, *args)


_jsq_select = JoinShortestQueueRouter.select


def checked_jsq_select(self, replicas, item, now_ms):
    """``jsq`` routing that first holds every candidate's count to a scan."""
    for r in replicas:
        in_service = 0 if r.in_service is None else len(r.in_service)
        assert r.num_in_system == len(r.queue) + in_service, (r.name, now_ms)
    return _jsq_select(self, replicas, item, now_ms)


_build_result = ServingEngine._build_result


def checked_build_result(self, table, **kwargs):
    """The end of a run: every replica's system is empty, and so its count."""
    for r in self.replicas:
        assert r.num_in_system == r.queue_length() == 0, r.name
    return _build_result(self, table, **kwargs)


def counted_run(spec: ScenarioSpec):
    """``run_scenario(spec)`` and the per-row write counts of its table."""
    TABLES.clear()
    with mock.patch("repro.serving.engine.core.ResultTable", CountingTable), \
            mock.patch.object(JoinShortestQueueRouter, "select", checked_jsq_select), \
            mock.patch.object(ServingEngine, "_build_result", checked_build_result):
        result = run_scenario(spec)
    (table,) = TABLES
    return result, table.writes


def fingerprint(result) -> str:
    return repr(
        (
            list(result.outcomes),
            list(result.dropped),
            result.replica_stats,
            result.autoscale,
            result.num_crashes,
            result.duration_ms,
        )
    )


@given(scenarios())
@settings(max_examples=150, deadline=None)
def test_generated_scenarios_keep_the_universal_invariants(spec):
    # Every drawn spec survives its own JSON round trip.
    assert ScenarioSpec.from_json(spec.to_json()) == spec
    result, writes = counted_run(spec)
    n = spec.effective_num_queries

    # Every row written, served or dropped, exactly once.
    assert writes.shape == (n,)
    assert (writes == 1).all(), np.flatnonzero(writes != 1)[:10]
    outcomes = list(result.outcomes)
    dropped = list(result.dropped)
    rows = sorted([o.query_index for o in outcomes] + [d.query_index for d in dropped])
    assert rows == list(range(n))

    # Causality.
    for o in outcomes:
        assert o.arrival_ms <= o.start_ms, o
        assert o.service_ms > 0.0, o
    for d in dropped:
        assert d.dropped_at_ms >= d.arrival_ms, d

    # One pickup at a time per replica: distinct service intervals never
    # overlap, and an interval shared by m members is one batch of m.
    intervals: dict[int, Counter] = defaultdict(Counter)
    sizes: dict[tuple, set] = defaultdict(set)
    for o in outcomes:
        key = (o.start_ms, o.service_ms)
        intervals[o.replica_index][key] += 1
        sizes[(o.replica_index, *key)].add(o.batch_size)
    for replica, members in intervals.items():
        ordered = sorted(members)
        for (s0, d0), (s1, _) in zip(ordered, ordered[1:]):
            assert s1 >= s0 + d0, (replica, (s0, d0), s1)
        for key, m in members.items():
            if m > 1:
                assert sizes[(replica, *key)] == {m}, (replica, key, m)

    # Capacity: busy time never exceeds provisioned time.
    for stats in result.replica_stats:
        assert stats.busy_ms <= stats.active_ms * (1 + 1e-12) + 1e-9, stats

    # Determinism, with the rerun traced: observation changes nothing.
    again, _ = counted_run(spec.override_many([("observability", {"trace": True})]))
    assert fingerprint(again) == fingerprint(result)
    spans = again.trace.spans
    assert len(spans) == n
    assert spans == oracle_spans(again.outcomes, again.dropped)
