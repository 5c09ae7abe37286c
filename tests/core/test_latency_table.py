"""Unit tests for the SushiAbs latency lookup table."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.accelerator.analytic_model import SushiAccelModel
from repro.accelerator.platforms import ANALYTIC_DEFAULT
from repro.core.candidates import build_candidate_set
from repro.core.latency_table import LatencyTable
from repro.core.policies import Policy, select_subnet
from repro.supernet.accuracy import AccuracyModel


# The vectorized numpy selection the table used to ship, kept as the oracle
# its bisect lookups must reproduce: one entry per bound, -1 where no SubNet
# is feasible.
def numpy_best_under_accuracy(table, bounds, subgraph_idx):
    bounds = np.asarray(bounds, dtype=np.float64)
    mask = table.accuracies[None, :] >= bounds[:, None]
    masked = np.where(mask, table.column(subgraph_idx)[None, :], np.inf)
    return np.where(mask.any(axis=1), np.argmin(masked, axis=1), -1).tolist()


def numpy_best_under_latency(table, bounds, subgraph_idx):
    bounds = np.asarray(bounds, dtype=np.float64)
    mask = table.column(subgraph_idx)[None, :] <= bounds[:, None]
    masked = np.where(mask, table.accuracies[None, :], -np.inf)
    return np.where(mask.any(axis=1), np.argmax(masked, axis=1), -1).tolist()


def scalar(lookup, bounds, subgraph_idx):
    return [
        -1 if (idx := lookup(float(b), subgraph_idx)) is None else idx for b in bounds
    ]


@pytest.fixture(scope="module")
def table(request):
    from repro.supernet.zoo import load_supernet, paper_pareto_subnets

    supernet = load_supernet("ofa_mobilenetv3")
    subnets = paper_pareto_subnets(supernet)
    accel = SushiAccelModel(ANALYTIC_DEFAULT, with_pb=True)
    candidates = build_candidate_set(subnets, capacity_bytes=accel.pb_capacity_bytes)
    accuracy = AccuracyModel(supernet)
    return LatencyTable.build(subnets, candidates, accel.subnet_latency_ms, accuracy.accuracy)


class TestConstruction:
    def test_shape(self, table):
        assert table.latencies_ms.shape == (table.num_subnets, table.num_subgraphs)

    def test_all_latencies_positive(self, table):
        assert np.all(table.latencies_ms > 0)

    def test_shape_mismatch_rejected(self, table):
        with pytest.raises(ValueError):
            LatencyTable(table.subnets, table.candidates, np.ones((2, 2)), table.accuracies)

    def test_bad_accuracy_rejected(self, table):
        bad_acc = np.ones(table.num_subnets)  # accuracy of exactly 1.0 invalid
        with pytest.raises(ValueError):
            LatencyTable(table.subnets, table.candidates, table.latencies_ms, bad_acc)

    def test_nan_entries_rejected(self, table):
        bad = table.latencies_ms.copy()
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            LatencyTable(table.subnets, table.candidates, bad, table.accuracies)
        bad_acc = table.accuracies.copy()
        bad_acc[0] = np.nan
        with pytest.raises(ValueError):
            LatencyTable(table.subnets, table.candidates, table.latencies_ms, bad_acc)

    def test_arrays_are_read_only(self, table):
        with pytest.raises(ValueError):
            table.latencies_ms[0, 0] = 1.0

    def test_nonpositive_latency_rejected(self, table):
        bad = table.latencies_ms.copy()
        bad[0, 0] = 0.0
        with pytest.raises(ValueError):
            LatencyTable(table.subnets, table.candidates, bad, table.accuracies)


class TestLookups:
    def test_latency_lookup_matches_matrix(self, table):
        assert table.latency(0, 0) == pytest.approx(float(table.latencies_ms[0, 0]))

    def test_column_vector(self, table):
        col = table.column(0)
        assert col.shape == (table.num_subnets,)

    def test_subnet_index_roundtrip(self, table):
        for i, sn in enumerate(table.subnets):
            assert table.subnet_index(sn) == i

    def test_unknown_subnet_raises(self, table, resnet50_subnets):
        with pytest.raises(KeyError):
            table.subnet_index(resnet50_subnets[0])

    def test_best_under_accuracy_feasible(self, table):
        idx = table.best_under_accuracy(0.76, 0)
        assert idx is not None
        assert table.accuracy(idx) >= 0.76

    def test_best_under_accuracy_is_fastest_feasible(self, table):
        bound = 0.77
        idx = table.best_under_accuracy(bound, 0)
        col = table.column(0)
        feasible = [i for i in range(table.num_subnets) if table.accuracy(i) >= bound]
        assert col[idx] == min(col[i] for i in feasible)

    def test_best_under_accuracy_infeasible_returns_none(self, table):
        assert table.best_under_accuracy(0.999, 0) is None

    def test_best_under_latency_feasible(self, table):
        loose = float(table.latencies_ms.max()) + 1.0
        idx = table.best_under_latency(loose, 0)
        assert idx is not None
        # With every SubNet feasible, the most accurate one must be selected.
        assert table.accuracy(idx) == pytest.approx(float(table.accuracies.max()))

    def test_best_under_latency_infeasible_returns_none(self, table):
        assert table.best_under_latency(1e-6, 0) is None

    def test_summary_fields(self, table):
        summary = table.summary()
        assert summary["num_subnets"] == table.num_subnets
        assert summary["min_latency_ms"] <= summary["max_latency_ms"]


class TestBatchLookups:
    def test_latency_batch_matches_scalar(self, table):
        idxs = list(range(table.num_subnets)) * 2
        batch = table.latencies_ms[idxs, 0]
        assert batch.tolist() == [table.latency(i, 0) for i in idxs]

    def test_best_under_accuracy_batch_matches_scalar(self, table):
        rng = np.random.default_rng(0)
        bounds = rng.uniform(0.5, 0.99, size=100)
        batch = numpy_best_under_accuracy(table, bounds, 0)
        assert batch == scalar(table.best_under_accuracy, bounds, 0)

    def test_best_under_latency_batch_matches_scalar(self, table):
        rng = np.random.default_rng(1)
        hi = float(table.latencies_ms.max())
        bounds = rng.uniform(0.0, 1.5 * hi, size=100)
        batch = numpy_best_under_latency(table, bounds, 1)
        assert batch == scalar(table.best_under_latency, bounds, 1)


SPECIAL_BOUNDS = [-np.inf, -1.0, -0.0, 0.0, np.inf, np.nan]


@st.composite
def random_tables(draw):
    """Tables up to 12 SubNets x 300 columns, drawn from small value pools
    so latencies tie within a column and accuracies tie across SubNets."""
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    latency_pool = rng.uniform(0.05, 10.0, size=draw(st.integers(1, n)))
    accuracy_pool = rng.uniform(0.5, 0.95, size=draw(st.integers(1, n)))
    latencies = rng.choice(latency_pool, size=(n, m))
    accuracies = rng.choice(accuracy_pool, size=n)
    return LatencyTable(range(n), range(m), latencies, accuracies)


def probe_bounds(values):
    """Every breakpoint exactly, its two float neighbours, and the specials."""
    values = np.unique(values)
    return np.concatenate(
        [values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf), SPECIAL_BOUNDS]
    )


class TestBisectMatchesNumpy:
    @given(random_tables())
    @settings(max_examples=40, deadline=None)
    def test_strict_accuracy(self, table):
        bounds = probe_bounds(table.accuracies)
        for j in range(table.num_subgraphs):
            expected = numpy_best_under_accuracy(table, bounds, j)
            assert scalar(table.best_under_accuracy, bounds, j) == expected

    @given(random_tables())
    @settings(max_examples=40, deadline=None)
    def test_strict_latency(self, table):
        bounds = probe_bounds(table.latencies_ms)
        for j in range(table.num_subgraphs):
            expected = numpy_best_under_latency(table, bounds, j)
            assert scalar(table.best_under_latency, bounds, j) == expected

    @given(random_tables())
    @settings(max_examples=40, deadline=None)
    def test_select_subnet_fallbacks(self, table):
        acc_bounds = probe_bounds(table.accuracies)
        lat_bounds = probe_bounds(table.latencies_ms)
        for j in range(table.num_subgraphs):
            fallback = int(np.argmax(table.accuracies))
            expected = [
                fallback if idx < 0 else idx
                for idx in numpy_best_under_accuracy(table, acc_bounds, j)
            ]
            got = [
                select_subnet(
                    table, Policy.STRICT_ACCURACY, accuracy_constraint=float(b),
                    latency_constraint_ms=1.0, cache_state_idx=j,
                )
                for b in acc_bounds
            ]
            assert got == expected
            fallback = int(np.argmin(table.column(j)))
            expected = [
                fallback if idx < 0 else idx
                for idx in numpy_best_under_latency(table, lat_bounds, j)
            ]
            got = [
                select_subnet(
                    table, Policy.STRICT_LATENCY, accuracy_constraint=0.5,
                    latency_constraint_ms=float(b), cache_state_idx=j,
                )
                for b in lat_bounds
            ]
            assert got == expected
