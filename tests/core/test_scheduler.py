"""Unit tests for SushiSched (Algorithm 1)."""

import numpy as np
import pytest

from repro.accelerator.analytic_model import SushiAccelModel
from repro.accelerator.platforms import ANALYTIC_DEFAULT
from repro.core.candidates import build_candidate_set
from repro.core.latency_table import LatencyTable
from repro.core.policies import Policy
from repro.core.scheduler import CacheDecisionMemo, SushiSched
from repro.supernet.accuracy import AccuracyModel
from repro.supernet.subnet import SubNet
from repro.supernet.zoo import load_supernet, paper_pareto_subnets


@pytest.fixture(scope="module")
def setup():
    supernet = load_supernet("ofa_mobilenetv3")
    subnets = paper_pareto_subnets(supernet)
    accel = SushiAccelModel(ANALYTIC_DEFAULT, with_pb=True)
    candidates = build_candidate_set(subnets, capacity_bytes=accel.pb_capacity_bytes)
    accuracy = AccuracyModel(supernet)
    table = LatencyTable.build(subnets, candidates, accel.subnet_latency_ms, accuracy.accuracy)
    return supernet, table


def make_scheduler(setup, **kwargs):
    supernet, table = setup
    defaults = dict(policy=Policy.STRICT_ACCURACY, cache_update_period=4, initial_cache_idx=0)
    defaults.update(kwargs)
    return SushiSched(table, supernet, **defaults)


class TestScheduling:
    def test_decision_fields(self, setup):
        sched = make_scheduler(setup)
        decision = sched.schedule(accuracy_constraint=0.78, latency_constraint_ms=5.0)
        assert 0 <= decision.subnet_idx < sched.table.num_subnets
        assert decision.cache_state_idx == 0
        assert decision.predicted_latency_ms > 0
        assert decision.subnet_accuracy >= 0.78

    def test_cache_updates_every_q_queries(self, setup):
        q = 4
        sched = make_scheduler(setup, cache_update_period=q)
        for i in range(12):
            decision = sched.schedule(accuracy_constraint=0.78, latency_constraint_ms=5.0)
            expected_update = (i + 1) % q == 0
            # A "cache update" decision point happens every Q queries; the new
            # state may coincide with the old one, but between update points
            # the state must not change.
            if not expected_update:
                assert decision.next_cache_state_idx == decision.cache_state_idx

    def test_constant_workload_caches_served_subnet_region(self, setup):
        supernet, table = setup
        sched = make_scheduler(setup, cache_update_period=4)
        for _ in range(8):
            decision = sched.schedule(accuracy_constraint=0.80, latency_constraint_ms=5.0)
        # After two update periods of identical queries, the cached SubGraph
        # should be the candidate closest to the served SubNet's encoding.
        served_vec = table.subnets[decision.subnet_idx].encode()
        cached_vec = table.candidates[sched.cache_state_idx].encode(supernet)
        distances = [
            np.linalg.norm(served_vec - sg.encode(supernet)) for sg in table.candidates
        ]
        assert np.linalg.norm(served_vec - cached_vec) == pytest.approx(min(distances))

    def test_queries_seen_counter(self, setup):
        sched = make_scheduler(setup)
        for _ in range(5):
            sched.schedule(accuracy_constraint=0.76, latency_constraint_ms=5.0)
        assert sched.queries_seen == 5
        assert sched.decisions_made == 5

    def test_reset_clears_history(self, setup):
        sched = make_scheduler(setup)
        sched.schedule(accuracy_constraint=0.76, latency_constraint_ms=5.0)
        sched.reset(initial_cache_idx=0)
        assert sched.queries_seen == 0
        assert sched.decisions_made == sched.cache_updates == 0
        assert sched.cache_state_idx == 0

    def test_strict_latency_policy(self, setup):
        sched = make_scheduler(setup, policy=Policy.STRICT_LATENCY)
        decision = sched.schedule(accuracy_constraint=0.80, latency_constraint_ms=1.0)
        assert decision.predicted_latency_ms <= 1.0

    def test_random_initial_cache_is_deterministic_with_rng(self, setup):
        supernet, table = setup
        a = SushiSched(table, supernet, rng=np.random.default_rng(5))
        b = SushiSched(table, supernet, rng=np.random.default_rng(5))
        assert a.cache_state_idx == b.cache_state_idx

    def test_invalid_parameters_rejected(self, setup):
        supernet, table = setup
        with pytest.raises(ValueError):
            SushiSched(table, supernet, cache_update_period=0)
        with pytest.raises(IndexError):
            SushiSched(table, supernet, initial_cache_idx=10**6)
        sched = make_scheduler(setup)
        with pytest.raises(IndexError):
            sched.reset(initial_cache_idx=10**6)

    def test_cache_update_count(self, setup):
        sched = make_scheduler(setup, cache_update_period=2)
        decisions = [
            sched.schedule(accuracy_constraint=0.79, latency_constraint_ms=5.0)
            for _ in range(10)
        ]
        assert 0 <= sched.cache_update_count() <= 5
        assert sched.cache_update_count() == sum(d.cache_updated for d in decisions)


class TestResetSemantics:
    def test_reset_without_argument_restores_initial_cache(self, setup):
        sched = make_scheduler(setup, initial_cache_idx=1)
        # Drive enough queries that a caching decision moves the state.
        for _ in range(20):
            sched.schedule(accuracy_constraint=0.80, latency_constraint_ms=5.0)
        sched.cache_state_idx = (sched.cache_state_idx + 1) % sched.table.num_subgraphs
        sched.reset()
        assert sched.cache_state_idx == 1
        assert sched.queries_seen == 0

    def test_random_initial_cache_restored_after_reset(self, setup):
        supernet, table = setup
        sched = SushiSched(table, supernet, rng=np.random.default_rng(7))
        initial = sched.cache_state_idx
        for _ in range(12):
            sched.schedule(accuracy_constraint=0.78, latency_constraint_ms=5.0)
        sched.reset()
        assert sched.cache_state_idx == initial


class TestCacheDecisionMemo:
    def test_fractional_encoding_rejected(self, setup, monkeypatch):
        supernet, table = setup
        target = table.subnets[0]
        original = SubNet.encode

        def encode(self):
            vec = original(self)
            if self is target:
                vec[0] += 0.5
            return vec

        monkeypatch.setattr(SubNet, "encode", encode)
        with pytest.raises(ValueError, match="integer-valued") as excinfo:
            CacheDecisionMemo(table, supernet)
        assert target.name in str(excinfo.value)
        with pytest.raises(ValueError, match="integer-valued"):
            SushiSched(table, supernet)

    def test_memo_of_another_table_rejected(self, setup):
        supernet, table = setup
        other = LatencyTable(
            table.subnets, table.candidates, table.latencies_ms, table.accuracies
        )
        with pytest.raises(ValueError, match="different latency table"):
            SushiSched(table, supernet, memo=CacheDecisionMemo(other, supernet))
