"""The telemetry bus tracks only the signals somebody reads.

A run that keeps its snapshots (``observability.keep_metrics``) or records
its decisions (a flight recorder) tracks every :class:`MetricsSnapshot`
field; any other run tracks only its policy's ``reads``, and the engine
feeds the bus only those fields' signals.  What a reader sees must not
move: the kept ``metrics_history`` is pinned, field for field, to the
snapshots every field was computed for before the bus learnt to track
less (``METRICS_DIGESTS``), and a run that keeps nothing serves the same
records, its policy seeing the same bits on every field it reads.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import fields
from pathlib import Path

import pytest
from test_golden_records import CONTROL_DIGESTS, NUM_QUERIES, result_digest

from repro.serving.api import build_engine, build_trace, run_scenario
from repro.serving.autoscale import TelemetryBus
from repro.serving.autoscale.policies import POLICY_NAMES, make_policy
from repro.serving.autoscale.telemetry import (
    ARRIVALS,
    DROPS,
    DURATIONS,
    FAILURES,
    FIELD_SIGNALS,
    PICKUPS,
    SERVICES,
    SNAPSHOT_FIELDS,
    WAITS,
    MetricsSnapshot,
    signals_for,
)
from repro.serving.spec import ScenarioSpec

ROOT = Path(__file__).resolve().parents[2]

# case -> (scenario, overrides, sha256 of the kept ``metrics_history`` at
# NUM_QUERIES: every field of every snapshot, floats by ``float.hex``).
# Pinned by hand while every snapshot computed every field; one case per
# registered policy.
METRICS_DIGESTS = {
    "autoscale_pool": (
        "autoscale_pool",
        (),
        "cc45b74efabc7153e419d10c70cef33b99d8bcac7e696ba2b201ea52147a7b0d",
    ),
    "faulty_pool": (
        "faulty_pool",
        (),
        "f218e9fd07d89ca56f73d0d3d1419290e54db5ecb83c96e023da21a7d4387521",
    ),
    "predictive_pool": (
        "predictive_pool",
        (),
        "d33638bcf6dde96379e4da2d234e28c608e5d993c5e85ce287ffe4eb97ff6019",
    ),
    "autoscale_pool-target_utilization": (
        "autoscale_pool",
        (("autoscaler.policy", "target_utilization"),),
        "c472f499c19892bd8fd7bee8e33d38289520ac600de4525ca38696dc685c6519",
    ),
    "autoscale_pool-scheduled": (
        *CONTROL_DIGESTS["autoscale_pool-scheduled"][:2],
        "8d751b67c0617096dd85cf5884d73292c4f32b1cc25cee247d731fe168e0a5ba",
    ),
    "hetero_pool-tier_aware-cost_budget": (
        *CONTROL_DIGESTS["hetero_pool-tier_aware-cost_budget"][:2],
        "99c3f604285d3e480ca6a3c9c04b995f65e43fe971d03791c44e5812ab144de8",
    ),
}

KEPT = {"trace": False, "keep_metrics": True}


def snapshot_values(snapshot: MetricsSnapshot) -> tuple:
    return tuple(
        value.hex() if isinstance(value, float) else value
        for value in (getattr(snapshot, f.name) for f in fields(MetricsSnapshot))
    )


def metrics_digest(snapshots) -> str:
    h = hashlib.sha256()
    for snapshot in snapshots:
        h.update(repr(snapshot_values(snapshot)).encode())
    return h.hexdigest()


def case_spec(case: str) -> ScenarioSpec:
    scenario, overrides, _ = METRICS_DIGESTS[case]
    spec = ScenarioSpec.from_dict(
        json.loads((ROOT / "examples" / "scenarios" / f"{scenario}.json").read_text())
    )
    return spec.override_many([("num_queries", NUM_QUERIES), *overrides])


def seen_snapshots(spec: ScenarioSpec):
    """(result, the snapshots the policy saw, the controller) of one run."""
    engine = build_engine(spec)
    ctl = engine.autoscaler
    seen = []
    decide = ctl.decide_pool

    def watched(snapshot, statuses):
        seen.append(snapshot)
        return decide(snapshot, statuses)

    ctl.decide_pool = watched
    trace = build_trace(spec)
    result = engine.run(trace, spec.arrivals.generate(len(trace)))
    return result, seen, ctl


@pytest.mark.parametrize("case", list(METRICS_DIGESTS))
def test_kept_metrics_are_the_full_snapshots(case):
    spec = case_spec(case)
    kept = run_scenario(spec.override("observability", KEPT))
    assert metrics_digest(kept.metrics) == METRICS_DIGESTS[case][2]


@pytest.mark.parametrize("case", list(METRICS_DIGESTS))
def test_an_unkept_run_serves_the_same_records_on_its_policys_reads(case):
    spec = case_spec(case)
    kept = run_scenario(spec.override("observability", KEPT))
    lean, seen, ctl = seen_snapshots(spec)
    assert result_digest(lean) == result_digest(kept)
    assert lean.metrics == ()
    reads = ctl.policy.reads
    assert ctl.bus.fields == reads
    assert ctl.bus.signals == signals_for(reads)
    assert len(seen) == len(kept.metrics)
    names = [f.name for f in fields(MetricsSnapshot)]
    for got, want in zip(seen, kept.metrics):
        for name, value, full in zip(names, snapshot_values(got), snapshot_values(want)):
            if name in reads or name not in FIELD_SIGNALS:
                # Read fields and pool facts keep their bits.
                assert value == full, name
            else:
                assert math.isnan(getattr(got, name)), name


@pytest.mark.parametrize("case", ["autoscale_pool", "faulty_pool", "predictive_pool"])
def test_a_recorded_run_tracks_every_field(case):
    spec = case_spec(case).override("observability", {"trace": True, "keep_metrics": False})
    result, seen, ctl = seen_snapshots(spec)
    assert ctl.bus.fields == SNAPSHOT_FIELDS
    assert metrics_digest(seen) == METRICS_DIGESTS[case][2]
    assert {id(d.snapshot) for d in result.trace.decisions} == {id(s) for s in seen}


def test_the_engine_feeds_only_tracked_signals(monkeypatch):
    # A reactive pool reads drop rate, queue depth and utilization: no
    # arrival, no member wait and no service duration reaches its bus.
    calls = {"on_arrival": 0, "on_pickup": 0, "on_completion": 0}
    for name in calls:
        monkeypatch.setattr(TelemetryBus, name, _counted(getattr(TelemetryBus, name), calls))
    spec = case_spec("faulty_pool")
    _, _, ctl = seen_snapshots(spec)
    bus = ctl.bus
    assert bus.signals == {DROPS, PICKUPS, SERVICES}
    assert calls["on_arrival"] == 0
    assert calls["on_pickup"] > 0 and calls["on_completion"] > 0
    # Untracked columns are never compacted: anything fed would still be here.
    assert bus._waits == [] and bus._durations == [] and bus._arrivals == []
    # The kept run feeds all of them.
    kept = build_engine(spec.override("observability", KEPT))
    trace = build_trace(spec)
    kept.run(trace, spec.arrivals.generate(len(trace)))
    assert calls["on_arrival"] > 0
    assert kept.autoscaler.bus.signals == signals_for(SNAPSHOT_FIELDS)


def _counted(method, calls: dict):
    def counted(self, *args):
        calls[method.__name__] += 1
        return method(self, *args)

    return counted


@pytest.mark.parametrize("name", POLICY_NAMES)
def test_every_policy_declares_snapshot_fields(name):
    reads = make_policy(name, **({"schedule": [(0.0, 1)]} if name == "scheduled" else {})).reads
    assert isinstance(reads, frozenset) and reads
    assert reads <= SNAPSHOT_FIELDS
    assert reads != SNAPSHOT_FIELDS, "a registered policy reads what it uses"


def test_signals_follow_the_fields():
    assert signals_for(()) == frozenset()
    assert signals_for(["time_ms", "queue_depth"]) == frozenset()
    assert signals_for(["drop_rate"]) == {DROPS, PICKUPS}
    assert signals_for(["p95_wait_ms"]) == {WAITS, PICKUPS}
    assert signals_for(["mean_service_ms"]) == {DURATIONS, SERVICES}
    assert signals_for(SNAPSHOT_FIELDS) == {
        ARRIVALS, WAITS, DURATIONS, PICKUPS, SERVICES, DROPS, FAILURES
    }
    assert set(FIELD_SIGNALS) < SNAPSHOT_FIELDS
    with pytest.raises(ValueError, match="p99_wait_ms"):
        signals_for(["p99_wait_ms"])


def test_changing_the_signal_set_forgets_what_the_bus_held():
    bus = TelemetryBus(10.0)
    bus.on_arrival(1.0)
    bus.track(SNAPSHOT_FIELDS)  # the same set: nothing is forgotten
    assert bus.snapshot(2.0, num_active=1).arrival_rate_per_ms == 0.5
    bus.track({"arrival_rate_per_ms"})
    snapshot = bus.snapshot(2.0, num_active=1)
    assert snapshot.arrival_rate_per_ms == 0.0
    assert math.isnan(snapshot.utilization) and snapshot.num_active == 1
