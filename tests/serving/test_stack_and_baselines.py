"""Unit/integration tests for the SUSHI stack and baseline servers."""

import json
from dataclasses import replace
from math import comb
from pathlib import Path

import numpy as np
import pytest

from closed_loop_oracle import byte_hit_ratio, serve_trace
from repro.accelerator.persistent_buffer import CachedSubGraph
from repro.accelerator.platforms import ANALYTIC_DEFAULT
from repro.core.metrics import QueryRecord
from repro.core.policies import Policy
from repro.serving.api import run_scenario
from repro.serving.baselines import (
    NoSushiServer,
    StateUnawareCachingServer,
    baseline_table,
)
from repro.serving.query import QueryTrace
from repro.serving.spec import ScenarioSpec
from repro.serving import stack as stack_module
from repro.serving.stack import CacheSwitchTable, SushiStack, SushiStackConfig
from repro.serving.stack import build_serve_table
from repro.serving.workload import WorkloadGenerator, WorkloadSpec
from repro.supernet.subnet import SubNet

POISSON_POOL = Path(__file__).resolve().parents[2] / "examples" / "scenarios" / "poisson_pool.json"


@pytest.fixture(scope="module")
def trace():
    spec = WorkloadSpec(
        num_queries=40, accuracy_range=(0.758, 0.803), latency_range_ms=(0.3, 2.0)
    )
    return WorkloadGenerator(spec, seed=11).generate()


@pytest.fixture(scope="module")
def stack():
    return SushiStack(
        SushiStackConfig(
            supernet_name="ofa_mobilenetv3", policy=Policy.STRICT_ACCURACY,
            cache_update_period=4, seed=0,
        )
    )


class TestSushiStack:
    def test_serve_produces_record_per_query(self, stack, trace):
        stack.reset()
        records = serve_trace(stack, trace)
        assert len(records) == len(trace)

    def test_records_have_positive_latency(self, stack, trace):
        stack.reset()
        for r in serve_trace(stack, trace):
            assert r.served_latency_ms > 0
            assert 0.0 <= r.cache_hit_ratio <= 1.0

    def test_strict_accuracy_always_met(self, stack, trace):
        stack.reset()
        records = serve_trace(stack, trace)
        assert all(r.served_accuracy >= r.accuracy_constraint - 1e-9 for r in records)

    def test_cache_hit_ratio_grows_with_serving(self, stack, trace):
        stack.reset()
        serve_trace(stack, trace)
        assert byte_hit_ratio(stack.pb.stats) > 0.0

    def test_reset_restores_fresh_state(self, stack, trace):
        stack.reset()
        first = serve_trace(stack, trace)
        stack.reset()
        second = serve_trace(stack, trace)
        assert [r.subnet_name for r in first] == [r.subnet_name for r in second]
        assert [r.served_latency_ms for r in first] == pytest.approx(
            [r.served_latency_ms for r in second]
        )

    def test_pb_capacity_respected(self, stack):
        assert stack.pb.occupancy_bytes <= stack.pb.capacity_bytes

    def test_window_memo_is_bit_identical_to_unmemoized_path(self, stack, trace):
        """Serving from the shared serve table must change nothing.

        The oracle evaluates the accelerator model and the PB on every query,
        exactly as the stack did before serve entries were precomputed;
        records *and* PB byte statistics must match exactly on every serve
        path.
        """
        oracle = stack.clone(seed=7)

        def oracle_start():
            # The oracle's PB is modelled from scratch, never switched
            # through the stack's cache-switch table.
            oracle.pb = oracle.accel.make_persistent_buffer()
            oracle.pb.load(oracle.candidates[oracle.scheduler.cache_state_idx])

        oracle_start()

        def oracle_serve(queries):
            current = oracle.scheduler.cache_state_idx
            subnet_idx = oracle.scheduler.schedule_shared(
                max(q.accuracy_constraint for q in queries),
                min(q.latency_constraint_ms for q in queries) / len(queries),
                len(queries),
            )
            subnet = oracle.subnets[subnet_idx]
            breakdown = oracle.accel.subnet_breakdown(subnet, oracle.pb.cached)
            hit_ratio = oracle.pb.vector_hit_ratio(subnet)
            for _ in queries:
                oracle.pb.record_serve(subnet)
            parts = breakdown.components
            if len(queries) == 1:
                latency_ms = breakdown.latency_ms
            else:
                shared = parts.offchip_weight_ms + parts.onchip_weight_ms
                latency_ms = shared + len(queries) * (parts.total_ms - shared)
            cache_load_ms = 0.0
            if oracle.scheduler.cache_state_idx != current:
                fetched = oracle.pb.load(oracle.candidates[oracle.scheduler.cache_state_idx])
                cache_load_ms = oracle.accel.cache_load_latency_ms(fetched)
            return [
                QueryRecord(
                    query_index=q.index,
                    accuracy_constraint=q.accuracy_constraint,
                    latency_constraint_ms=q.latency_constraint_ms,
                    subnet_name=subnet.name,
                    served_accuracy=oracle.accuracy_model.accuracy(subnet),
                    served_latency_ms=latency_ms,
                    cache_hit_ratio=hit_ratio,
                    offchip_energy_mj=breakdown.offchip_energy_mj,
                    cache_load_ms=cache_load_ms if k == len(queries) - 1 else 0.0,
                )
                for k, q in enumerate(queries)
            ]

        def pb_stats(s):
            return tuple(
                getattr(s.pb.stats, f)
                for f in (
                    "queries_served",
                    "hit_bytes_total",
                    "served_weight_bytes_total",
                    "cache_loads",
                    "cache_load_bytes_total",
                )
            )

        queries = list(trace)
        expected = [r for q in queries for r in oracle_serve([q])]
        served = stack.clone(seed=7)
        assert serve_trace(served, trace) == expected
        assert pb_stats(served) == pb_stats(oracle)

        def record_of(q, served):
            return QueryRecord(
                q.index, q.accuracy_constraint, q.latency_constraint_ms, *served
            )

        per_query = stack.clone(seed=7)
        assert [
            record_of(q, per_query.serve_query(q, q.latency_constraint_ms, q.accuracy_constraint))
            for q in queries
        ] == expected
        assert pb_stats(per_query) == pb_stats(oracle)

        oracle.reset()
        oracle_start()
        batches = [queries[k : k + 3] for k in range(0, len(queries), 3)]
        expected = [r for batch in batches for r in oracle_serve(batch)]
        batched = stack.clone(seed=7)
        got = [
            record_of(q, served)
            for batch in batches
            for q, served in zip(
                batch,
                batched.serve_dispatch_batch(
                    batch,
                    [q.latency_constraint_ms for q in batch],
                    max(q.accuracy_constraint for q in batch),
                ),
            )
        ]
        assert got == expected
        assert pb_stats(batched) == pb_stats(oracle)

    def test_window_memo_reuses_accelerator_evaluations(self, stack, trace):
        """Set-up evaluates each (SubNet, SubGraph) pair once; serving, none."""

        class CountingAccel:
            def __init__(self, inner):
                self.inner = inner
                self.calls = 0

            def subnet_breakdown(self, *args, **kwargs):
                self.calls += 1
                return self.inner.subnet_breakdown(*args, **kwargs)

            def __getattr__(self, name):
                return getattr(self.inner, name)

        clone = stack.clone(seed=7)
        proxy = CountingAccel(clone.accel)
        clone.accel = proxy
        serve_trace(clone, trace)
        assert proxy.calls == 0

        proxy = CountingAccel(stack.accel)
        build_serve_table(stack.subnets, stack.candidates, proxy, stack.accuracy_model)
        assert proxy.calls == len(stack.subnets) * len(stack.candidates)

    def test_table_describes_the_fitted_subgraph(self, stack, trace):
        """A candidate larger than the PB is planned as the PB holds it."""
        largest = max(stack.subnets, key=lambda sn: sn.weight_bytes)
        oversized = CachedSubGraph.from_subnet(largest, name="oversized")
        assert oversized.weight_bytes > stack.pb.capacity_bytes
        s = stack_on(stack, (oversized,))
        names = [sn.name for sn in s.subnets]
        for record in serve_trace(s, trace):
            i = names.index(record.subnet_name)
            assert s.table.latency(i, 0) == record.served_latency_ms
        # The unfitted candidate would have promised latencies never served.
        assert any(
            stack.accel.subnet_latency_ms(sn, oversized) != s.table.latency(i, 0)
            for i, sn in enumerate(s.subnets)
        )


    def test_a_given_table_brings_its_own_candidates(self, stack):
        s = SushiStack(
            replace(stack.config, candidate_set_size=2), serve_table=stack.serve_table
        )
        assert s.candidates is stack.table.candidates
        assert s.subnets is stack.table.subnets
        assert s.accel is stack.switches.accel
        # A given table gets a memo of its own, which its clones share.
        assert s.cache_memo is not stack.cache_memo
        assert s.cache_memo.table is stack.table
        assert s.clone(seed=1).cache_memo is s.cache_memo


def scratch_switch(accel, held, new):
    """A scratch PB that loads ``held`` (``None``: stays empty), then ``new``."""
    pb = accel.make_persistent_buffer()
    if held is not None:
        pb.load(held)
    return pb, pb.load(new)


def stack_on(stack, subgraphs):
    """A stack of ``stack``'s config serving a table built over ``subgraphs``."""
    candidates = replace(stack.candidates, subgraphs=tuple(subgraphs))
    return SushiStack(
        stack.config,
        serve_table=build_serve_table(
            stack.subnets, candidates, stack.accel, stack.accuracy_model
        ),
    )


def oversized_stack(stack):
    """``stack``'s serve key with one candidate larger than the PB first."""
    largest = max(stack.subnets, key=lambda sn: sn.weight_bytes)
    oversized = CachedSubGraph.from_subnet(largest, name="oversized")
    assert oversized.weight_bytes > stack.pb.capacity_bytes
    return stack_on(stack, (oversized, *stack.candidates.subgraphs))


class TestCacheSwitchTable:
    """Every (held, new) entry is what a scratch PB's two loads give."""

    @pytest.fixture(
        scope="class", params=["sushi", "sushi_oversized", "no_pb", "with_pb"]
    )
    def tables(self, request, stack):
        """(accelerator model, candidates, switch table) of one serve table."""
        if request.param == "sushi":
            return stack.accel, stack.candidates, stack.switches
        if request.param == "sushi_oversized":
            s = oversized_stack(stack)
            return s.accel, s.candidates, s.switches
        built = baseline_table(
            "ofa_mobilenetv3", ANALYTIC_DEFAULT, with_pb=request.param == "with_pb"
        )
        return built.switches.accel, built.table.candidates, built.switches

    def test_every_entry_matches_scratch_loads(self, tables):
        accel, candidates, switches = tables
        assert len(switches.fitted) == len(candidates)
        # -1 is the empty PB.
        sources = [*enumerate(candidates), (-1, None)]
        for i, held in sources:
            for j, new in enumerate(candidates):
                scratch, fetched = scratch_switch(accel, held, new)
                switch = switches.switch(i, j)
                assert switch.fetched_bytes == fetched
                assert switch.load_ms == accel.cache_load_latency_ms(fetched)
                pb = accel.make_persistent_buffer()
                if held is not None:
                    first = switches.switch(-1, i)
                    pb.hold(first.fitted, first.fetched_bytes)
                pb.hold(switch.fitted, switch.fetched_bytes)
                assert pb.cached == scratch.cached
                assert pb.stats == scratch.stats

    def test_fitting_shows_in_the_table(self, stack):
        # Not vacuous: the oversized candidate is held truncated, and
        # switching to a candidate already held fetches nothing.
        s = oversized_stack(stack)
        fitted = s.switches.switch(-1, 0).fitted
        assert fitted != s.candidates[0]
        assert fitted.weight_bytes <= s.pb.capacity_bytes
        for j in range(len(s.candidates)):
            assert s.switches.switch(j, j).fetched_bytes == 0
            assert s.switches.switch(-1, j).fetched_bytes > 0

    def test_clones_share_the_table_and_names(self, stack):
        clone = stack.clone(seed=7)
        assert clone.serve_table is stack.serve_table
        assert clone.switches is stack.switches
        assert clone._names is stack._names is stack.table.subnet_names

    def test_entries_are_computed_once_at_first_use(self, stack, trace, monkeypatch):
        # A fresh table computes only the pairs a run visits, each once,
        # for every stack that shares it.
        fresh = build_serve_table(
            stack.subnets, stack.candidates, stack.accel, stack.accuracy_model
        )
        fetches = {"calls": 0}
        fetch_bytes = CachedSubGraph.fetch_bytes

        def counting_fetch_bytes(new, held):
            fetches["calls"] += 1
            return fetch_bytes(new, held)

        visited = []
        switch = CacheSwitchTable.switch

        def recording_switch(table, held, new):
            visited.append((held, new))
            return switch(table, held, new)

        monkeypatch.setattr(CachedSubGraph, "fetch_bytes", counting_fetch_bytes)
        monkeypatch.setattr(CacheSwitchTable, "switch", recording_switch)
        template = SushiStack(stack.config, serve_table=fresh)
        want = serve_trace(template.clone(seed=3), trace)
        assert len(set(visited)) > 2  # not vacuous: the run switched caches
        assert fetches["calls"] == len(set(visited))
        calls, first_run = fetches["calls"], len(visited)
        assert serve_trace(template.clone(seed=3), trace) == want
        assert len(visited) - first_run == first_run - 1  # less the template's
        assert fetches["calls"] == calls


class TestSharedSchedulerState:
    """Clones share the scheduler's encodings and caching-decision memo."""

    def test_clone_encodes_nothing_and_shares_the_memo(self, stack, monkeypatch):
        calls = []
        for cls in (SubNet, CachedSubGraph):
            original = cls.encode

            def counted(self, *args, _original=original, _name=cls.__name__):
                calls.append(_name)
                return _original(self, *args)

            monkeypatch.setattr(cls, "encode", counted)
        clones = [stack.clone(seed=s) for s in range(3)]
        assert calls == []
        for clone in clones:
            assert clone.cache_memo is stack.cache_memo
            assert clone.scheduler.memo is stack.scheduler.memo

    def test_a_clone_is_configured_and_seeded_as_replace_and_default_rng_would(
        self, stack, monkeypatch
    ):
        num_subgraphs = stack.table.num_subgraphs
        seeds = [0, 1, 7, 123_456, 2**40]
        for seed in seeds:
            clone = stack.clone(seed=seed)
            want = replace(stack.config, seed=seed)
            assert clone.config == want and hash(clone.config) == hash(want)
            assert type(clone.config) is SushiStackConfig
            drawn = int(np.random.default_rng(seed).integers(0, num_subgraphs))
            assert clone.scheduler.initial_cache_idx == drawn
            assert clone.scheduler.cache_state_idx == drawn
        assert stack.clone().config is stack.config
        # A seed already seen seeds no generator: a birth in a repeated run
        # only looks its initial index up.
        seeded = []
        default_rng = np.random.default_rng
        monkeypatch.setattr(
            np.random, "default_rng", lambda *a: seeded.append(a) or default_rng(*a)
        )
        again = [stack.clone(seed=seed) for seed in seeds]
        assert seeded == []
        assert [c.scheduler.initial_cache_idx for c in again] == [
            stack.cache_memo.initial_indices[seed] for seed in seeds
        ]

    def test_memo_stays_within_the_multiset_bound(self, monkeypatch):
        # A cold cache: the process memo also holds other periods' windows.
        monkeypatch.setattr(stack_module, "_TABLES", {})
        spec = ScenarioSpec.from_dict(json.loads(POISSON_POOL.read_text()))
        spec = spec.override("num_queries", 4000)
        run_scenario(spec)
        ((tables, memo),) = stack_module._TABLES.values()
        num_subnets = tables.table.num_subnets
        period = spec.group_cache_update_period(spec.replica_groups[0])
        assert 0 < len(memo.decisions) <= comb(num_subnets + period - 1, period)
        assert all(len(key) == period for key in memo.decisions)

    def test_estimate_is_the_latency_schedule_would_pick(self, stack, trace):
        for policy in Policy:
            sushi = SushiStack(replace(stack.config, policy=policy))
            assert sushi.cache_memo is stack.cache_memo
            sched = sushi.scheduler
            for query in trace:
                state = (sched.cache_state_idx, sched.queries_seen, sched.decisions_made)
                estimate = sushi.estimate_service_ms(query)
                assert (sched.cache_state_idx, sched.queries_seen, sched.decisions_made) == state
                decision = sched.schedule(
                    accuracy_constraint=query.accuracy_constraint,
                    latency_constraint_ms=query.latency_constraint_ms,
                )
                assert estimate == sushi.table.latency(
                    decision.subnet_idx, decision.cache_state_idx
                )


class TestBaselines:
    @pytest.fixture(scope="class")
    def shared(self):
        return tuple(
            baseline_table("ofa_mobilenetv3", ANALYTIC_DEFAULT, with_pb=with_pb)
            for with_pb in (True, False)
        )

    def test_no_sushi_serves_all_queries(self, shared, trace):
        _, no_pb = shared
        server = NoSushiServer(no_pb)
        records = serve_trace(server, trace)
        assert len(records) == len(trace)
        assert all(r.cache_hit_ratio == 0.0 for r in records)

    def test_no_sushi_strict_accuracy_met(self, shared, trace):
        _, no_pb = shared
        server = NoSushiServer(no_pb)
        for r in serve_trace(server, trace):
            assert r.served_accuracy >= r.accuracy_constraint - 1e-9

    def test_state_unaware_gets_cache_hits(self, shared, trace):
        with_pb, _ = shared
        server = StateUnawareCachingServer(with_pb, cache_update_period=4)
        records = serve_trace(server, trace)
        assert any(r.cache_hit_ratio > 0 for r in records[5:])

    def test_state_unaware_invalid_period_rejected(self, shared):
        with_pb, _ = shared
        with pytest.raises(ValueError):
            StateUnawareCachingServer(with_pb, cache_update_period=0)

    def test_sushi_no_worse_than_no_sushi(self, shared, stack, trace):
        _, no_pb = shared
        no_sushi = NoSushiServer(no_pb)
        base = serve_trace(no_sushi, trace)
        stack.reset()
        sushi = serve_trace(stack, trace)
        mean = lambda rs: sum(r.served_latency_ms for r in rs) / len(rs)
        assert mean(sushi) <= mean(base) * 1.001

    def test_strict_latency_policy_baseline(self, shared, trace):
        _, no_pb = shared
        server = NoSushiServer(no_pb, policy=Policy.STRICT_LATENCY)
        records = serve_trace(server, trace)
        assert len(records) == len(trace)
