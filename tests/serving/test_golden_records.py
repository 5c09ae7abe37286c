"""Golden records: every committed scenario reproduces its recorded digest.

``golden_records.json`` holds one sha256 per ``examples/scenarios/*.json``,
each run through :func:`~repro.serving.api.run_scenario` at
``num_queries=2000`` (a trace replay at its log's length).  The digest covers everything a run observably
produces — every outcome field (with its record's fields), every drop with
its reason, every per-replica ``ReplicaStats``, the autoscaler report with
its scaling events, ``num_crashes`` and ``duration_ms`` — so an engine
refactor or a scenario-file re-serialization that moves any record fails
here.

Regenerate (only for an intended behaviour change) with::

    PYTHONPATH=src python tests/serving/test_golden_records.py
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields
from pathlib import Path

import pytest

from repro.serving.api import run_scenario
from repro.serving.spec import ScenarioSpec

ROOT = Path(__file__).resolve().parents[2]
SCENARIOS = sorted((ROOT / "examples" / "scenarios").glob("*.json"))
GOLDEN = Path(__file__).with_name("golden_records.json")
NUM_QUERIES = 2000

# The paper's baselines as serving backends: ``result_digest`` of
# (scenario, router, kind) at NUM_QUERIES, with only ``replica_groups.0.kind``
# (and the router) overridden.  ``batched_pool`` drives
# ``serve_dispatch_batch``; ``fastest_expected`` routes on the backends'
# service estimates.  Pinned by hand: the regeneration below does not touch
# them.
BASELINE_DIGESTS = {
    ("poisson_pool", "jsq", "no_sushi"): "9bc775f7c4dc9f7fa7243fe829b94b40324398f467d939256e555edeca5174d6",
    ("poisson_pool", "jsq", "state_unaware"): "affc6eab67f6f99d126776c3ec62af8adbd5335db750555bb94f211829c4b6ad",
    ("poisson_pool", "jsq", "static_subnet"): "c2314d852c63bfcf8d1c1df9aa8e38353e8c6f339d48369f18135a29e0c0d381",
    ("batched_pool", "jsq", "no_sushi"): "3033fbbdfe325b0fe8eb5f1e709f6ed5914523f4abbb27a06ad3cc6d24a565bd",
    ("batched_pool", "jsq", "state_unaware"): "f549e88c3aaa5d8efddaf6aea625cf3454b7049a5f21e1428d10c8e661884186",
    ("batched_pool", "jsq", "static_subnet"): "d19e8acf6f1bf2ed05933829f459fd5ffc1a4d6fb4f388a0c34148f551599f8e",
    ("poisson_pool", "fastest_expected", "no_sushi"): "9cb95789bbb960902cc7d9fdf8c340a8c461cb60ba50d719e074163b3c25b690",
    ("poisson_pool", "fastest_expected", "state_unaware"): "74cd4a3d21ea1f91c78e5050d01a3ea2c34ff2083e9d6892a478374b7cd3cb6e",
    ("poisson_pool", "fastest_expected", "static_subnet"): "bf04ec73c484a4e43d961e8aea27da856f15808dae4a4965500686db086a8ec7",
}


# Dispatch paths no committed scenario drives: ``result_digest`` of
# (scenario, overrides) at NUM_QUERIES.  Per-query pickups, batched pickups
# under the fault plane (whole-pickup dispatch failure, straggle, brownout),
# the service-estimate path that disables direct serve, and batched
# autoscaled pools.  Pinned by hand before the single-query dispatch became
# a pickup of one; the regeneration below does not touch them.
DISPATCH_DIGESTS = {
    ("batched_pool", (("replica_groups.0.batching.policy", "per_query"),)): "74f0d4e9707e4aa36322f0893f5681707235b6992064b0d70b4a03113e01cf89",
    (
        "faulty_pool",
        (
            ("replica_groups.0.batching.max_batch", 4),
            ("replica_groups.0.batching.policy", "shared_subnet"),
        ),
    ): "3de52bdcf9d0ac02a7d124d895744e4df4661ee2494269856038090ff9a26ffa",
    (
        "faulty_pool",
        (
            ("replica_groups.0.batching.max_batch", 4),
            ("replica_groups.0.batching.policy", "per_query"),
        ),
    ): "f9e63005a0cf2e4c1c7fa849945009b5f72e03e0d73952b6c58ad6a940931885",
    (
        "poisson_pool",
        (
            ("replica_groups.0.discipline", "priority_by_slack"),
            ("router", "least_loaded"),
        ),
    ): "104b4eff39b719bf2804eff4e8577b8b8eea23072b5916f4093f7e745df92b53",
    ("autoscale_pool", (("replica_groups.0.batching.max_batch", 4),)): "78737029a66c3c5364f658477123003e5592d7d2cbe72be756c47e1c55a055e7",
}


# Control- and fault-plane configurations no committed scenario drives:
# case -> (scenario, overrides, ``result_digest`` at NUM_QUERIES).  A
# tier-aware autoscaler over both ``hetero_pool`` groups under a cost
# budget that binds (with cold starts and crashes on every group), the
# ``target_utilization`` and ``scheduled`` policies, a predictive policy
# with an explicit horizon and window, and faults without retries.  Pinned
# by hand before the control and fault planes were built straight from
# their specs; the regeneration below does not touch them.
_FAULTS = {
    "seed": 11,
    "crash_mtbf_ms": 400.0,
    "straggler_mtbf_ms": 250.0,
    "straggler_duration_ms": 40.0,
    "straggler_factor": 3.0,
    "dispatch_failure_prob": 0.01,
    "brownout_threshold": 0.25,
    "groups": [],
}
CONTROL_DIGESTS = {
    "hetero_pool-tier_aware-cost_budget": (
        "hetero_pool",
        (
            ("replica_groups.0.startup_delay_ms", 5.0),
            ("replica_groups.1.startup_delay_ms", 5.0),
            ("replica_groups.0.cost_weight", 2.0),
            (
                "autoscaler",
                {
                    "policy": "tier_aware",
                    "control_interval_ms": 10.0,
                    "min_replicas": 2,
                    "max_replicas": 6,
                    "down_cooldown_ms": 40.0,
                    "groups": ["large-pb", "small-pb"],
                    "cost_budget": 9.0,
                },
            ),
            ("faults", _FAULTS),
        ),
        "684e8ef755804115805e51acafed08c09a78293b1faad336e5002a2361a79701",
    ),
    "autoscale_pool-target_utilization": (
        "autoscale_pool",
        (("autoscaler.policy", "target_utilization"),),
        "be83febbd228f681589531944bee97216745c4e36bf69240cd90ad2d5a78fae7",
    ),
    "autoscale_pool-scheduled": (
        "autoscale_pool",
        (
            ("autoscaler.policy", "scheduled"),
            ("autoscaler.schedule", [[0.0, 1], [100.0, 4], [170.0, 2]]),
            ("autoscaler.period_ms", 220.0),
        ),
        "8f6783f02fd9d1928fb860713a2c4f7f04b61c67bf5d5fdd13f0f54b82956e47",
    ),
    "predictive_pool-horizon-window": (
        "predictive_pool",
        (("autoscaler.horizon_ms", 3.0), ("autoscaler.window_ms", 5.0)),
        "8674371fd722a3b3ea00f087cbdd96f4dd94af4fad851a4b4229d22103745d72",
    ),
    "faulty_pool-no_retry": (
        "faulty_pool",
        (("faults.retry.max_attempts", 1),),
        "3e92f2e4591f62caa7319772107a89f3edc73b3307a29b05ceae097e5b0781c6",
    ),
}


def _values(obj, skip: str = "") -> tuple:
    return tuple(getattr(obj, f.name) for f in fields(obj) if f.name != skip)


def result_digest(result) -> str:
    """sha256 over every observable part of a :class:`SimulationResult`."""
    h = hashlib.sha256()
    for o in result.outcomes:
        record = None if o.record is None else _values(o.record)
        h.update(repr(("outcome", _values(o, skip="record"), record)).encode())
    for d in result.dropped:
        h.update(repr(("drop", _values(d))).encode())
    for stats in result.replica_stats:
        h.update(repr(("stats", _values(stats))).encode())
    h.update(repr(("autoscale", result.autoscale)).encode())
    h.update(repr(("end", result.num_crashes, result.duration_ms)).encode())
    return h.hexdigest()


def scenario_digest(path: Path) -> str:
    spec = ScenarioSpec.from_dict(json.loads(path.read_text()))
    if spec.arrivals.kind != "trace":
        # A replayed log fixes its own length.
        spec = spec.override("num_queries", NUM_QUERIES)
    return result_digest(run_scenario(spec))


def test_every_scenario_has_a_golden_digest():
    assert sorted(json.loads(GOLDEN.read_text())) == [p.name for p in SCENARIOS]


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_scenario_reproduces_golden_records(path, monkeypatch):
    # Trace-replay scenarios name their request log relative to the root.
    monkeypatch.chdir(ROOT)
    golden = json.loads(GOLDEN.read_text())
    assert scenario_digest(path) == golden[path.name]


@pytest.mark.parametrize("key", sorted(BASELINE_DIGESTS), ids="-".join)
def test_baseline_kind_reproduces_pinned_records(key):
    scenario, router, kind = key
    spec = ScenarioSpec.from_dict(
        json.loads((ROOT / "examples" / "scenarios" / f"{scenario}.json").read_text())
    )
    spec = (
        spec.override("num_queries", NUM_QUERIES)
        .override("replica_groups.0.kind", kind)
        .override("router", router)
    )
    assert result_digest(run_scenario(spec)) == BASELINE_DIGESTS[key]



def _dispatch_case_id(key) -> str:
    scenario, overrides = key
    return "-".join([scenario, *(f"{path.split('.')[-1]}={value}" for path, value in overrides)])


@pytest.mark.parametrize("key", list(DISPATCH_DIGESTS), ids=_dispatch_case_id)
def test_dispatch_path_reproduces_pinned_records(key):
    scenario, overrides = key
    spec = ScenarioSpec.from_dict(
        json.loads((ROOT / "examples" / "scenarios" / f"{scenario}.json").read_text())
    )
    spec = spec.override_many([("num_queries", NUM_QUERIES), *overrides])
    assert result_digest(run_scenario(spec)) == DISPATCH_DIGESTS[key]


@pytest.mark.parametrize("case", list(CONTROL_DIGESTS))
def test_control_plane_reproduces_pinned_records(case):
    scenario, overrides, digest = CONTROL_DIGESTS[case]
    spec = ScenarioSpec.from_dict(
        json.loads((ROOT / "examples" / "scenarios" / f"{scenario}.json").read_text())
    )
    spec = spec.override_many([("num_queries", NUM_QUERIES), *overrides])
    assert result_digest(run_scenario(spec)) == digest


if __name__ == "__main__":
    import os

    os.chdir(ROOT)
    digests = {p.name: scenario_digest(p) for p in SCENARIOS}
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}")
