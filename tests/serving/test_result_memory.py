"""Memory guard: a run's result holds its table, not objects per query.

``SimulationResult`` keeps one 93-byte ``ResultTable`` row per offered
query plus the views' row order; the outcome, drop and record objects are
built only while a view is read.  Before the table a result held an
outcome and a replica-stamped record per served query, ~500 bytes per
query on ``poisson_pool``.  Traced with ``tracemalloc`` around one
20k-query ``run_scenario`` after a warm-up run (the serve table and the
scheduler's caching-decision memo are full by then).
"""

from __future__ import annotations

import gc
import json
import tracemalloc
from pathlib import Path

import pytest

from repro.serving.api import run_scenario
from repro.serving.spec import ScenarioSpec

SCENARIO = Path(__file__).resolve().parents[2] / "examples" / "scenarios" / "poisson_pool.json"
NUM_QUERIES = 20_000
MAX_BYTES_PER_QUERY = 200
#: What reading every view twice may leave behind: far below one cached
#: view (a 20k-slot tuple alone is 160 kB, its objects megabytes).
VIEW_SLACK_BYTES = 64 * 1024


@pytest.fixture(scope="module")
def held() -> tuple[int, int]:
    """(bytes held by the result, bytes held after reading every view twice)."""
    spec = ScenarioSpec.from_dict(json.loads(SCENARIO.read_text())).override(
        "num_queries", NUM_QUERIES
    )
    run_scenario(spec)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = run_scenario(spec)
        gc.collect()
        after_run = tracemalloc.get_traced_memory()[0] - before
        for _ in range(2):
            for view in (result.outcomes, result.dropped, result.records):
                for _ in view:
                    pass
        gc.collect()
        after_views = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert result.num_offered == NUM_QUERIES
    return after_run, after_views


def test_result_holds_at_most_200_bytes_per_query(held):
    after_run, _ = held
    assert after_run / NUM_QUERIES <= MAX_BYTES_PER_QUERY


def test_reading_the_views_caches_nothing(held):
    after_run, after_views = held
    assert abs(after_views - after_run) <= VIEW_SLACK_BYTES
