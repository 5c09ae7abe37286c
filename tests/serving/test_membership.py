"""The engine's maintained pool membership equals a full scan after every event.

``ServingEngine`` keeps its routable list, each scaled group's live list and
each group's crash count at lifecycle transitions only (scale-up creation,
provisioning hand-over, drain, undrain, retirement, crash).  These tests run
the committed autoscaled and fault-injected scenarios with a test-side hook
— a wrapped event-queue iterator — that rescans ``engine.replicas`` after
every event and compares.  A synthetic scheduled pool adds the one
transition the scenarios hardly reach: a scale-up reclaiming replicas that
are still draining.  Group membership is rebuilt independently: the initial
positions the engine was given, plus every replica a scaled group's factory
created, recorded by wrapping each group's ``replica_factory``.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from fakes import ConstantServer, single_group_autoscaler

from repro.serving.api import build_engine, build_trace
from repro.serving.engine import AcceleratorReplica, ServingEngine
from repro.serving.engine.events import ArrayEventQueue
from repro.serving.query import QueryTrace
from repro.serving.spec import ScenarioSpec

ROOT = Path(__file__).resolve().parents[2]
SCENARIOS = ROOT / "examples" / "scenarios"
NUM_QUERIES = 2000


def _spec(name: str) -> ScenarioSpec:
    spec = ScenarioSpec.from_dict(json.loads((SCENARIOS / name).read_text()))
    return spec.override("num_queries", NUM_QUERIES)


def _multi_group_faulty() -> ScenarioSpec:
    """``hetero_pool`` with both groups autoscaled and crashing."""
    hetero = json.loads((SCENARIOS / "hetero_pool.json").read_text())
    faulty = json.loads((SCENARIOS / "faulty_pool.json").read_text())
    for group in hetero["replica_groups"]:
        group["startup_delay_ms"] = 5.0
    hetero["autoscaler"] = dict(
        faulty["autoscaler"],
        policy="tier_aware",
        group=None,
        groups=[g["name"] for g in hetero["replica_groups"]],
        min_replicas=2,
    )
    hetero["faults"] = dict(faulty["faults"], groups=[])
    return ScenarioSpec.from_dict(hetero).override("num_queries", NUM_QUERIES)


def _assert_membership(engine, created: dict[int, str | None]) -> None:
    replicas = engine.replicas
    assert engine._live == [r for r in replicas if not r.is_retired]
    assert engine._routable() == [r for r in replicas if r.is_routable]
    for name, initial in engine._initial_membership.items():
        members = [replicas[i] for i in initial] + [
            replicas[i] for i, group in sorted(created.items()) if group == name
        ]
        assert engine._group_live[name] == [r for r in members if not r.is_retired]
        assert engine._group_crashes[name] == sum(1 for r in members if r.failed)


def _run_spec(spec: ScenarioSpec, monkeypatch):
    engine = build_engine(spec)
    trace = build_trace(spec)
    return _run_checked(engine, trace, spec.arrivals.generate(len(trace)), monkeypatch)


def _run_checked(engine, trace, arrivals, monkeypatch):
    created: dict[int, str | None] = {}

    def recording(group):
        def make(position):
            created[position] = group.name
            return group.replica_factory(position)

        return dataclasses.replace(group, replica_factory=make)

    ctl = engine.autoscaler
    ctl.groups = tuple(recording(g) for g in ctl.groups)
    iter_events = ArrayEventQueue.__iter__
    checked = [0]

    def checked_iter(queue):
        for event in iter_events(queue):
            yield event
            # The loop asks for the next event only once this one is fully
            # processed, so the pool is in a settled state here.
            _assert_membership(engine, created)
            checked[0] += 1

    monkeypatch.setattr(ArrayEventQueue, "__iter__", checked_iter)
    _assert_membership(engine, created)
    result = engine.run(trace, arrivals)
    assert checked[0] >= len(trace)
    return engine, created, result


@pytest.mark.parametrize(
    "spec",
    [
        pytest.param(lambda: _spec("autoscale_pool.json"), id="autoscale_pool"),
        pytest.param(lambda: _spec("predictive_pool.json"), id="predictive_pool"),
        pytest.param(lambda: _spec("faulty_pool.json"), id="faulty_pool"),
        pytest.param(_multi_group_faulty, id="multi_group_faulty"),
    ],
)
def test_maintained_membership_equals_scan_after_every_event(spec, monkeypatch):
    spec = spec()
    engine, created, result = _run_spec(spec, monkeypatch)
    # Not vacuous: the pool really scaled, and drained or crashed replicas
    # really left it.
    assert created
    assert any(r.is_retired for r in engine.replicas)
    if spec.faults is not None:
        assert result.num_crashes > 0
        assert sum(engine._group_crashes.values()) == result.num_crashes


def test_reset_restores_the_initial_membership(monkeypatch):
    spec = _spec("faulty_pool.json")
    engine, _, _ = _run_spec(spec, monkeypatch)
    engine.reset()
    _assert_membership(engine, {})
    assert engine._live == engine.replicas
    assert engine._scaled == {
        i for indices in engine._initial_membership.values() for i in indices
    }
    assert engine._group_of == [
        g.name for g in spec.replica_groups for _ in range(g.count)
    ]


def test_reclaimed_draining_replicas_rejoin_routing(monkeypatch):
    # Four replicas fall behind a 2 q/ms stream (capacity 4/3 q/ms), the
    # plan shrinks the pool to one while their queues are long, then grows
    # it back: the scale-up undrains the replicas still finishing work.
    ctl = single_group_autoscaler(
        lambda position: AcceleratorReplica(ConstantServer(3.0)),
        positions=range(4),
        startup_delay_ms=4.0,
        policy="scheduled",
        schedule=((0.0, 4), (20.0, 1), (30.0, 4)),
        period_ms=50.0,
        control_interval_ms=2.0,
        min_replicas=1,
        max_replicas=4,
    )
    engine = ServingEngine(
        [AcceleratorReplica(ConstantServer(3.0)) for _ in range(4)], autoscaler=ctl
    )
    n = 600
    trace = QueryTrace([0.77] * n, [1e9] * n)
    undrains = [0]
    undrain = AcceleratorReplica.undrain

    def counting_undrain(replica):
        undrains[0] += 1
        undrain(replica)

    monkeypatch.setattr(AcceleratorReplica, "undrain", counting_undrain)
    _, created, result = _run_checked(
        engine, trace, np.arange(n, dtype=float) * 0.5, monkeypatch
    )
    assert undrains[0] > 0
    assert created
    assert result.num_served == n
