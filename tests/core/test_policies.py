"""Unit tests for SubNet selection policies."""

import numpy as np
import pytest

from repro.accelerator.analytic_model import SushiAccelModel
from repro.accelerator.platforms import ANALYTIC_DEFAULT
from repro.core.candidates import build_candidate_set
from repro.core.latency_table import LatencyTable
from repro.core.policies import Policy, select_subnet
from repro.supernet.accuracy import AccuracyModel
from repro.supernet.zoo import load_supernet, paper_pareto_subnets


@pytest.fixture(scope="module")
def table():
    supernet = load_supernet("ofa_resnet50")
    subnets = paper_pareto_subnets(supernet)
    accel = SushiAccelModel(ANALYTIC_DEFAULT, with_pb=True)
    candidates = build_candidate_set(subnets, capacity_bytes=accel.pb_capacity_bytes)
    accuracy = AccuracyModel(supernet)
    return LatencyTable.build(subnets, candidates, accel.subnet_latency_ms, accuracy.accuracy)


class TestStrictAccuracy:
    def test_meets_accuracy_bound(self, table):
        idx = select_subnet(
            table, Policy.STRICT_ACCURACY,
            accuracy_constraint=0.78, latency_constraint_ms=100.0, cache_state_idx=0,
        )
        assert table.accuracy(idx) >= 0.78

    def test_low_bound_selects_fastest(self, table):
        idx = select_subnet(
            table, Policy.STRICT_ACCURACY,
            accuracy_constraint=0.01, latency_constraint_ms=100.0, cache_state_idx=0,
        )
        assert idx == int(np.argmin(table.column(0)))

    def test_impossible_bound_falls_back_to_most_accurate(self, table):
        idx = select_subnet(
            table, Policy.STRICT_ACCURACY,
            accuracy_constraint=0.999, latency_constraint_ms=100.0, cache_state_idx=0,
        )
        assert idx == int(np.argmax(table.accuracies))

    def test_tighter_bound_never_lowers_accuracy(self, table):
        loose = select_subnet(
            table, Policy.STRICT_ACCURACY,
            accuracy_constraint=0.755, latency_constraint_ms=100.0, cache_state_idx=0,
        )
        tight = select_subnet(
            table, Policy.STRICT_ACCURACY,
            accuracy_constraint=0.795, latency_constraint_ms=100.0, cache_state_idx=0,
        )
        assert table.accuracy(tight) >= table.accuracy(loose)


class TestStrictLatency:
    def test_meets_latency_bound(self, table):
        bound = float(np.median(table.column(0)))
        idx = select_subnet(
            table, Policy.STRICT_LATENCY,
            accuracy_constraint=0.8, latency_constraint_ms=bound, cache_state_idx=0,
        )
        assert table.latency(idx, 0) <= bound

    def test_selects_most_accurate_feasible(self, table):
        bound = float(table.latencies_ms.max()) + 1.0
        idx = select_subnet(
            table, Policy.STRICT_LATENCY,
            accuracy_constraint=0.8, latency_constraint_ms=bound, cache_state_idx=0,
        )
        assert table.accuracy(idx) == pytest.approx(float(table.accuracies.max()))

    def test_impossible_bound_falls_back_to_fastest(self, table):
        idx = select_subnet(
            table, Policy.STRICT_LATENCY,
            accuracy_constraint=0.8, latency_constraint_ms=1e-9, cache_state_idx=0,
        )
        assert idx == int(np.argmin(table.column(0)))


class TestValidation:
    def test_bad_cache_index_rejected(self, table):
        with pytest.raises(IndexError):
            select_subnet(
                table, Policy.STRICT_ACCURACY,
                accuracy_constraint=0.78, latency_constraint_ms=10.0,
                cache_state_idx=table.num_subgraphs,
            )

    def test_policy_enum_values(self):
        assert Policy("strict_accuracy") is Policy.STRICT_ACCURACY
        assert Policy("strict_latency") is Policy.STRICT_LATENCY


def numpy_select_batch(table, policy, accs, lats, cache_idx):
    """The vectorized numpy selection the table used to ship (the oracle)."""
    col = table.column(cache_idx)
    if policy == Policy.STRICT_ACCURACY:
        mask = table.accuracies[None, :] >= accs[:, None]
        best = np.argmin(np.where(mask, col[None, :], np.inf), axis=1)
        fallback = np.argmax(table.accuracies)
    else:
        mask = col[None, :] <= lats[:, None]
        best = np.argmax(np.where(mask, table.accuracies[None, :], -np.inf), axis=1)
        fallback = np.argmin(col)
    return np.where(mask.any(axis=1), best, fallback)


class TestBatchSelection:
    @pytest.mark.parametrize("policy", [Policy.STRICT_ACCURACY, Policy.STRICT_LATENCY])
    def test_batch_matches_scalar_selection(self, table, policy):
        rng = np.random.default_rng(3)
        n = 200
        # Span feasible, infeasible-low and infeasible-high bounds so both
        # fallback branches are exercised.
        accs = rng.uniform(0.5, 0.99, size=n)
        lats = rng.uniform(0.01, 2 * float(table.latencies_ms.max()), size=n)
        for cache_idx in (0, table.num_subgraphs - 1):
            batch = numpy_select_batch(table, policy, accs, lats, cache_idx)
            scalar = [
                select_subnet(
                    table,
                    policy,
                    accuracy_constraint=float(a),
                    latency_constraint_ms=float(l),
                    cache_state_idx=cache_idx,
                )
                for a, l in zip(accs, lats)
            ]
            assert batch.tolist() == scalar
