"""Allocation guard: the serve path builds no record and no decision object.

A backend returns a plain served tuple per query and the engine writes it
into the query's result row; the scheduler returns a SubNet index.  So a
run builds no :class:`~repro.core.metrics.QueryRecord` (the result views
build them when read) and no :class:`~repro.core.scheduler.SchedulerDecision`
(``schedule()`` builds one for its own callers).  Counted over whole
``run_scenario`` calls on the plain, batched and faulty committed pools.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.metrics import QueryRecord
from repro.core.scheduler import SchedulerDecision
from repro.serving.api import run_scenario
from repro.serving.spec import ScenarioSpec

SCENARIOS = Path(__file__).resolve().parents[2] / "examples" / "scenarios"
NUM_QUERIES = 2000


@pytest.mark.parametrize("name", ["poisson_pool", "batched_pool", "faulty_pool"])
def test_a_run_builds_no_record_and_no_decision(name, monkeypatch):
    spec = ScenarioSpec.from_dict(
        json.loads((SCENARIOS / f"{name}.json").read_text())
    ).override("num_queries", NUM_QUERIES)
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
