"""Allocation guard: the serve path builds no record, decision or ``Query``.

A backend returns a plain served tuple per query and the engine writes it
into the query's result row; the scheduler returns a SubNet index.  So a
run builds no :class:`~repro.core.metrics.QueryRecord` (the result views
build them when read) and no :class:`~repro.core.scheduler.SchedulerDecision`
(``schedule()`` builds one for its own callers).  Each arrival becomes
exactly one :class:`~repro.serving.query.QueuedQuery`, built from the
trace's columns: routing, the queue, admission, the backend, service
estimates and fault retries all reuse it, so no :class:`Query` is built
either.  Counted over whole ``run_scenario`` calls on the committed pools
and on the cells of a closed-loop grid
(:func:`~repro.experiments.serving_pool.closed_loop_grid`).

Nor does a warm run model the Persistent Buffer: once the serve tables are
built and a run has filled the cache-switch entries it visits, every cache
switch — a scale-up clone's first load and a reset's included — is a
lookup in the shared cache-switch table, so no ``PersistentBuffer.load``,
``fit_subgraph`` or ``LayerSlice.intersect`` runs while serving.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from closed_loop_oracle import serve_trace
from repro.accelerator.persistent_buffer import PersistentBuffer
from repro.core.metrics import QueryRecord
from repro.core.policies import Policy
from repro.core.scheduler import SchedulerDecision
from repro.experiments.serving_pool import closed_loop_grid, measure_streams
from repro.serving.api import run_scenario
from repro.serving.engine.faults import FaultInjector
from repro.serving.query import Query, QueuedQuery
from repro.serving.spec import ScenarioSpec
from repro.serving.stack import SushiStack, SushiStackConfig
from repro.serving.workload import WorkloadGenerator, WorkloadSpec
from repro.supernet.layers import LayerSlice

SCENARIOS = Path(__file__).resolve().parents[2] / "examples" / "scenarios"
NUM_QUERIES = 2000

#: (scenario, overrides): the committed pools, plus slack ordering under a
#: load-aware router, which attaches a service estimate to every arrival,
#: and the latency-table router, which estimates each arrival per replica.
POOLS = [
    ("poisson_pool", {}),
    ("batched_pool", {}),
    ("faulty_pool", {}),
    ("autoscale_pool", {}),
    ("hetero_pool", {}),
    (
        "poisson_pool",
        {
            "router": "least_loaded",
            "replica_groups.0.discipline": "priority_by_slack",
        },
    ),
    ("hetero_pool", {"router": "fastest_expected"}),
]


def load(name: str, overrides: dict) -> ScenarioSpec:
    spec = ScenarioSpec.from_dict(
        json.loads((SCENARIOS / f"{name}.json").read_text())
    )
    return spec.override_many([("num_queries", NUM_QUERIES), *overrides.items()])


def count_calls(monkeypatch, owner, name: str, counts: dict, key: str) -> None:
    """Count every call of ``owner.name`` into ``counts[key]``."""
    original = getattr(owner, name)
    counts[key] = 0

    def counting(*args, **kwargs):
        counts[key] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)


@pytest.mark.parametrize("name", ["poisson_pool", "batched_pool", "faulty_pool"])
def test_a_run_builds_no_record_and_no_decision(name, monkeypatch):
    spec = load(name, {})
    built = {"records": 0, "decisions": 0}
    record_init = QueryRecord.__init__
    decision_new = SchedulerDecision.__new__

    def counting_init(self, *args, **kwargs):
        built["records"] += 1
        record_init(self, *args, **kwargs)

    def counting_new(cls, *args, **kwargs):
        built["decisions"] += 1
        return decision_new(cls, *args, **kwargs)

    monkeypatch.setattr(QueryRecord, "__init__", counting_init)
    monkeypatch.setattr(SchedulerDecision, "__new__", staticmethod(counting_new))
    result = run_scenario(spec)
    assert built == {"records": 0, "decisions": 0}
    assert result.num_served > 0
    # Not vacuous: reading the records view builds one record per served query.
    assert sum(1 for _ in result.records) == result.num_served
    assert built["records"] == result.num_served


@pytest.mark.parametrize(
    "name, overrides",
    POOLS,
    ids=["poisson", "batched", "faulty", "autoscale", "hetero",
         "slack_least_loaded", "hetero_fastest_expected"],
)
def test_one_item_per_arrival_and_no_query(name, overrides, monkeypatch):
    counts: dict[str, int] = {}
    count_calls(monkeypatch, Query, "__init__", counts, "queries")
    count_calls(monkeypatch, QueuedQuery, "__init__", counts, "items")
    retries = []
    next_retry = FaultInjector.next_retry_ms

    def counting_retry(self, item, now_ms):
        retry_ms = next_retry(self, item, now_ms)
        if retry_ms is not None:
            retries.append(item.index)
        return retry_ms

    monkeypatch.setattr(FaultInjector, "next_retry_ms", counting_retry)
    result = run_scenario(load(name, overrides))
    assert counts == {"queries": 0, "items": NUM_QUERIES}
    assert result.num_served + result.num_dropped == NUM_QUERIES
    if name == "faulty_pool":
        # Not vacuous: lost queries re-entered routing as their own items.
        assert retries
    # Not vacuous: the counter sees a plain construction.
    Query(0, 0.5, 1.0)
    assert counts["queries"] == 1


def test_closed_loop_grid_builds_no_query(monkeypatch):
    config = SushiStackConfig("ofa_mobilenetv3", policy=Policy.STRICT_ACCURACY, seed=0)
    grid = closed_loop_grid("allocations", [config], 300)
    counts: dict[str, int] = {}
    count_calls(monkeypatch, Query, "__init__", counts, "queries")
    count_calls(monkeypatch, QueuedQuery, "__init__", counts, "items")
    [(results, _)] = measure_streams(grid)
    # One QueuedQuery per query and cell, none for the results.
    assert counts == {"queries": 0, "items": 3 * 300}
    assert all(len(r.records) == 300 for r in results.values())


def test_fastest_expected_estimates_each_candidate_once(monkeypatch):
    # The router leaves the winner's estimate on the item, so the engine
    # does not estimate the chosen replica a second time.
    counts: dict[str, int] = {}
    count_calls(monkeypatch, SushiStack, "estimate_service_ms", counts, "estimates")
    spec = load("hetero_pool", {"router": "fastest_expected"})
    replicas = sum(group.count for group in spec.replica_groups)
    assert replicas == 4 and spec.autoscaler is None and spec.faults is None
    result = run_scenario(spec)
    assert result.num_served + result.num_dropped == NUM_QUERIES
    assert counts["estimates"] == replicas * NUM_QUERIES


#: Pools whose runs switch PB contents: SUSHI stacks that scale up, crash
#: and heal, and the state-unaware baseline's periodic reloads.
SWITCHING_POOLS = [
    ("autoscale_pool", {}),
    ("faulty_pool", {}),
    ("poisson_pool", {"replica_groups.0.kind": "state_unaware"}),
]


@pytest.mark.parametrize(
    "name, overrides", SWITCHING_POOLS, ids=["autoscale", "faulty", "state_unaware"]
)
def test_a_run_models_no_pb_after_set_up(name, overrides, monkeypatch):
    spec = load(name, overrides)
    # Set-up: serve tables and the switch entries the run visits.
    run_scenario(spec)
    counts: dict[str, int] = {}
    count_calls(monkeypatch, PersistentBuffer, "load", counts, "loads")
    count_calls(monkeypatch, PersistentBuffer, "fit_subgraph", counts, "fits")
    count_calls(monkeypatch, LayerSlice, "intersect", counts, "intersects")
    count_calls(monkeypatch, PersistentBuffer, "hold", counts, "switches")
    count_calls(monkeypatch, SushiStack, "clone", counts, "clones")
    result = run_scenario(spec)
    assert (counts["loads"], counts["fits"], counts["intersects"]) == (0, 0, 0)
    # Not vacuous: the PB switched contents beyond each replica's first load.
    assert counts["switches"] > len(result.replica_stats)
    if spec.autoscaler is not None:
        assert result.autoscale.num_scale_ups > 0
        assert counts["clones"] > sum(group.count for group in spec.replica_groups)


def test_reset_restarts_the_pb_from_empty():
    # reset() must switch from the empty PB, as a fresh clone does: the
    # switch table's from-row is the PB's contents, not the last candidate.
    template = SushiStack(SushiStackConfig(supernet_name="ofa_mobilenetv3", seed=0))
    workload = WorkloadSpec(
        num_queries=60, accuracy_range=(0.758, 0.803), latency_range_ms=(0.3, 2.0)
    )
    trace = WorkloadGenerator(workload, seed=5).generate()
    fresh = template.clone(seed=3)
    want = serve_trace(fresh, trace)
    used = template.clone(seed=3)
    serve_trace(used, trace)
    assert used.pb.stats.cache_loads > 1  # the first run switched caches
    used.reset()
    assert serve_trace(used, trace) == want
    assert used.pb.stats == fresh.pb.stats
    assert used.pb.cached == fresh.pb.cached
