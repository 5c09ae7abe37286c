"""The engine's one event loop is the reference semantics, made fast.

``ServingEngine.run`` walks an arrival cursor plus a raw-tuple event heap,
dispatches ``max_batch == 1`` replicas through a single-query path and
serves arrivals at idle replicas directly.  Everything observable —
outcomes, drops, per-replica stats, run duration, and with an autoscaler
the full scaling report — must be bit-identical to the reference
Event/EventHeap loop (``engine_oracle.reference_run``).  These tests pin
that contract across disciplines, routers, admission policies, batching
and autoscaled pools, plus the spec/CLI surface (array-backed scenario
traces, ``repro run --profile``).
"""

from __future__ import annotations

import numpy as np
import pytest
from engine_oracle import reference_run
from fakes import single_group_autoscaler

from repro.serving import Query, QueryTrace
from repro.serving.api import build_engine, build_trace, run_scenario
from repro.serving.engine import AcceleratorReplica, ServingEngine
from repro.serving.spec import (
    ArrivalSpec,
    ReplicaGroupSpec,
    ScenarioSpec,
    WorkloadSpec,
)
from repro.serving.workload import WorkloadGenerator
from repro.serving.workload import WorkloadSpec as GenWorkloadSpec


class IndexedServer:
    """Synthetic backend with per-query-index service times."""

    def __init__(self, services_ms):
        self.services_ms = list(services_ms)

    def serve_query(self, query, budget_ms, accuracy_floor):
        service_ms = self.services_ms[query.index % len(self.services_ms)]
        return ("synthetic", 0.78, service_ms, 0.0, 0.0, 0.0)


def make_workload(n, *, seed=0, rate_per_ms=0.6):
    """(trace, arrivals, service table) for one run."""
    gen = WorkloadGenerator(
        GenWorkloadSpec(num_queries=n, pattern="uniform"), seed=seed
    )
    trace = gen.generate()
    rng = np.random.default_rng(seed + 1)
    arrivals = np.cumsum(rng.exponential(1.0 / rate_per_ms, size=n))
    services = rng.uniform(0.5, 6.0, size=n).tolist()
    return trace, arrivals, services


def make_engine(services, *, num_replicas=3, discipline="fifo",
                router="round_robin", admission="admit_all", max_batch=1,
                autoscaler=None):
    replicas = [
        AcceleratorReplica(
            IndexedServer(services), discipline=discipline, max_batch=max_batch
        )
        for _ in range(num_replicas)
    ]
    return ServingEngine(
        replicas, router=router, admission=admission, autoscaler=autoscaler
    )


def assert_identical(result, ref):
    assert result.outcomes == ref.outcomes
    assert result.dropped == ref.dropped
    assert result.replica_stats == ref.replica_stats
    assert result.duration_ms == ref.duration_ms
    assert result.num_served == ref.num_served
    assert result.num_dropped == ref.num_dropped


# ------------------------------------------------------------- loop identity
class TestFastPathIdentity:
    @pytest.mark.parametrize("discipline", ["fifo", "edf", "priority_by_slack"])
    @pytest.mark.parametrize("router", ["round_robin", "jsq", "least_loaded"])
    @pytest.mark.parametrize("admission", ["admit_all", "drop_expired"])
    def test_matches_reference_across_policies(self, discipline, router, admission):
        trace, arrivals, services = make_workload(600, seed=11)
        kw = dict(discipline=discipline, router=router, admission=admission)
        ref = reference_run(make_engine(services, **kw), trace, arrivals)
        fast = make_engine(services, **kw).run(trace, arrivals)
        assert_identical(fast, ref)

    def test_matches_reference_with_batching(self):
        trace, arrivals, services = make_workload(500, seed=7, rate_per_ms=1.5)
        kw = dict(max_batch=4, admission="drop_expired", discipline="edf")
        ref = reference_run(make_engine(services, **kw), trace, arrivals)
        fast = make_engine(services, **kw).run(trace, arrivals)
        assert_identical(fast, ref)

    def test_matches_reference_with_autoscaler(self):
        """The control plane runs in the same loop, event for event."""

        def scaled(run):
            trace, arrivals, services = make_workload(
                800, seed=3, rate_per_ms=1.2
            )
            ctl = single_group_autoscaler(
                lambda pos: AcceleratorReplica(
                    IndexedServer(services), discipline="edf"
                ),
                startup_delay_ms=30.0,
                control_interval_ms=25.0,
                min_replicas=1,
                max_replicas=6,
            )
            engine = make_engine(
                services, num_replicas=1, discipline="edf", router="jsq",
                admission="drop_expired", autoscaler=ctl,
            )
            if run is reference_run:
                return reference_run(engine, trace, arrivals)
            return engine.run(trace, arrivals)

        ref = scaled(reference_run)
        fast = scaled(ServingEngine.run)
        assert_identical(fast, ref)
        assert ref.autoscale is not None
        assert fast.autoscale == ref.autoscale
        # The run exercised actual scaling, not a degenerate flat pool.
        assert ref.autoscale.num_scale_ups > 0


# ------------------------------------------------------------- spec and API
def scenario(**overrides):
    fields = dict(
        name="fastpath-test",
        supernet_name="ofa_mobilenetv3",
        replica_groups=(ReplicaGroupSpec(count=2, discipline="edf"),),
        router="round_robin",
        admission="drop_expired",
        workload=WorkloadSpec(
            num_queries=120, accuracy_range=None, latency_range_ms=None
        ),
        arrivals=ArrivalSpec(kind="poisson", rate_per_ms=0.8, seed=1),
        seed=1,
    )
    fields.update(overrides)
    return ScenarioSpec(**fields)


class TestSpecKnobs:
    def test_build_trace_materializes_lazily_for_fast_specs(self):
        assert isinstance(build_trace(scenario()), QueryTrace)

    def test_trace_queries_are_checked_constructions(self):
        """Indexing and iterating a scenario trace build plain, validated
        ``Query`` objects over the columns the engine serves from."""
        trace = build_trace(scenario())
        acc, lat = trace.columns()
        expected = [Query(i, acc[i], lat[i]) for i in range(len(trace))]
        assert [trace[i] for i in range(len(trace))] == expected
        assert list(trace) == expected

    def test_run_scenario_fast_and_shard_match_reference(self):
        """``run_scenario`` equals the reference loop on the scenario trace."""
        spec = scenario()
        trace = build_trace(spec)
        ref = reference_run(
            build_engine(spec),
            trace,
            spec.arrivals.generate(len(trace)),
        )
        assert_identical(run_scenario(spec), ref)


# ---------------------------------------------------------------- CLI profile
class TestCliProfile:
    def test_run_profile_dumps_stats_and_hotspots(self, tmp_path, capsys):
        from repro.cli import main

        stats = tmp_path / "fig02.pstats"
        assert main(["run", "fig02", "--profile", str(stats)]) == 0
        out = capsys.readouterr().out
        assert stats.exists() and stats.stat().st_size > 0
        assert "top 10 by cumulative time" in out

        import pstats

        loaded = pstats.Stats(str(stats))
        assert loaded.total_calls > 0  # real profile data, not an empty dump

    def test_run_profile_unwritable_path_fails_cleanly(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "no" / "such" / "dir" / "out.pstats"
        assert main(["run", "fig02", "--profile", str(bad)]) == 2
        assert "cannot write" in capsys.readouterr().err
