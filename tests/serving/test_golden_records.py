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


def scenario_digest(path: Path, stack_cache: dict) -> str:
    spec = ScenarioSpec.from_dict(json.loads(path.read_text()))
    if spec.arrivals.kind != "trace":
        # A replayed log fixes its own length.
        spec = spec.override("num_queries", NUM_QUERIES)
    return result_digest(run_scenario(spec, stack_cache=stack_cache))


@pytest.fixture(scope="module")
def stack_cache() -> dict:
    return {}


def test_every_scenario_has_a_golden_digest():
    assert sorted(json.loads(GOLDEN.read_text())) == [p.name for p in SCENARIOS]


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_scenario_reproduces_golden_records(path, stack_cache, monkeypatch):
    # Trace-replay scenarios name their request log relative to the root.
    monkeypatch.chdir(ROOT)
    golden = json.loads(GOLDEN.read_text())
    assert scenario_digest(path, stack_cache) == golden[path.name]


if __name__ == "__main__":
    import os

    os.chdir(ROOT)
    cache: dict = {}
    digests = {p.name: scenario_digest(p, cache) for p in SCENARIOS}
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}")
