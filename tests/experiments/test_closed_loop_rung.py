"""Ladder rung: closed loop ≡ one-replica deterministic pool.

Every stack configuration the five closed-loop drivers (fig15, fig16,
fig17_18, headline, tab05) serve from their ``main()``, and the three
closed-loop examples', is served by each of the three systems twice: by
``tests/closed_loop_oracle.py``, the loop the figures used to run, and by
the engine cell :func:`~repro.experiments.serving_pool.closed_loop_grid`
builds.  The records must be equal, the PB byte hit ratio bit-equal, and
every cell must drop nothing and queue nothing.
"""

from __future__ import annotations

import numpy as np
import pytest

from closed_loop_oracle import ExperimentRunner, byte_hit_ratio
from repro.accelerator.platforms import ZCU104
from repro.core.policies import Policy
from repro.experiments import (
    fig15_scheduler_functional,
    fig16_end_to_end,
    fig17_18_temporal,
    headline,
    tab05_table_size,
)
from repro.experiments.serving_pool import SYSTEMS, closed_loop_grid
from repro.serving.api import build_trace, run_scenario
from repro.serving.stack import SushiStackConfig
from repro.serving.workload import WorkloadGenerator, WorkloadSpec, feasible_ranges_from_table

FAMILIES = ("ofa_resnet50", "ofa_mobilenetv3")

#: Each driver's ``main()`` runs, as ``grid()`` parameters.
MAIN_RUNS = [
    *((fig15_scheduler_functional, {"supernet_name": n}) for n in FAMILIES),
    *(
        (fig16_end_to_end, {"supernet_name": n, "policy": p})
        for n in FAMILIES
        for p in (Policy.STRICT_ACCURACY, Policy.STRICT_LATENCY)
    ),
    *((fig17_18_temporal, {"supernet_name": n}) for n in FAMILIES),
    (headline, {}),
    *((tab05_table_size, {"supernet_name": n}) for n in FAMILIES),
]

#: The examples' streams: (config, num_queries, workload fields).
EXAMPLES = [
    (SushiStackConfig("ofa_mobilenetv3"), 200, {}),
    (
        SushiStackConfig("ofa_resnet50", ZCU104, Policy.STRICT_LATENCY, 8, seed=42),
        240,
        {"pattern": "phased", "num_phases": 6},
    ),
    (
        SushiStackConfig("ofa_mobilenetv3", cache_update_period=10, seed=7),
        300,
        {"pattern": "drift"},
    ),
]


def driver_streams():
    """(config, num_queries, no workload fields) of every driver sweep, once each."""
    streams = {}
    for module, params in MAIN_RUNS:
        for sweep in module.grid(**params).sweeps:
            base = sweep.base
            group = base.replica_groups[0]
            config = SushiStackConfig(
                supernet_name=base.supernet_name,
                platform=group.resolved_platform(),
                policy=base.policy,
                cache_update_period=base.cache_update_period,
                candidate_set_size=group.candidate_set_size,
                seed=base.seed,
            )
            streams[config, base.workload.num_queries] = None
    return [(config, n, {}) for config, n in streams]


def test_the_rung_covers_every_driver_configuration():
    # fig15's, fig16's and headline's 4 configurations coincide; fig17_18
    # adds 10 (its Q=4 ones are fig16's STRICT_ACCURACY ones), tab05 8.
    assert len(driver_streams()) == 22


def oracle_records(config, num_queries, workload):
    """The oracle's three streams and its two PB byte hit ratios."""
    runner = ExperimentRunner(
        config.supernet_name,
        platform=config.platform,
        policy=config.policy,
        cache_update_period=config.cache_update_period,
        candidate_set_size=config.candidate_set_size,
        seed=config.seed,
    )
    if workload:
        # As the examples drew their streams.
        ranges = feasible_ranges_from_table(runner.sushi.table)
        spec = WorkloadSpec(num_queries, *ranges, **workload)
        trace = WorkloadGenerator(spec, seed=config.seed).generate()
    else:
        trace = runner.default_workload(num_queries=num_queries)
    streams = runner.run(trace)
    ratios = {
        "no_sushi": 0.0,
        "sushi_wo_sched": byte_hit_ratio(runner.state_unaware.pb.stats),
        "sushi": byte_hit_ratio(runner.sushi.pb.stats),
    }
    return trace, streams, ratios


def stream_id(value):
    if isinstance(value, SushiStackConfig):
        return (
            f"{value.supernet_name}-{value.platform.name}-{value.policy.value}"
            f"-Q{value.cache_update_period}-S{value.candidate_set_size}-seed{value.seed}"
        )
    if isinstance(value, dict):
        return "-".join(map(str, value.values())) or "uniform"
    return None


@pytest.mark.parametrize(
    "config, num_queries, workload", driver_streams() + EXAMPLES, ids=stream_id
)
def test_closed_loop_is_a_one_replica_deterministic_pool(config, num_queries, workload):
    trace, streams, ratios = oracle_records(config, num_queries, workload)
    grid = closed_loop_grid("rung", [config], num_queries, **workload)
    cells = grid.scenarios()
    assert [spec.replica_groups[0].kind for _, spec in cells] == list(SYSTEMS)
    for (_, spec), system in zip(cells, SYSTEMS.values()):
        assert build_trace(spec).columns() == trace.columns()
        result = run_scenario(spec)
        assert result.num_dropped == 0
        outcomes = result.outcomes
        assert np.array_equal(outcomes.column("start_ms"), outcomes.column("arrival_ms"))
        assert result.mean_queueing_ms == 0.0
        records = tuple(result.records)
        assert records == streams[system].records
        assert repr(records) == repr(streams[system].records)
        assert repr(result.pb_byte_hit_ratio) == repr(ratios[system])
