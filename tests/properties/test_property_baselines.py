"""The table-driven baseline servers against the per-query oracle.

``repro.serving.baselines`` serves each baseline from a table evaluated
once: selection through ``LatencyTable``'s breakpoints on the empty-PB
column, records from ``ServeEntry`` fields, and the state-unaware PB loading
the table's truncation columns.  ``tests/baseline_oracle.py`` keeps the
servers that selected with numpy over static arrays and ran
``subnet_breakdown`` and ``vector_hit_ratio`` on every query.  Every served
tuple and record of the two must be bit-identical — compared by ``repr`` and
by the type of every field, so an ``np.float64`` accuracy or a last-digit
difference fails —
on both families, both policies, three PB sizes and ``Q`` in 1..8, over
streams mixing single and batched dispatches, runs of queries served with
their nominal budgets, effective budgets, and constraints that are NaN,
infinite or outside the family's range.  The state-unaware PB statistics
must match too, across ``reset``.  The selection rules are also held to numpy's first-index
tie-breaking on synthetic tables full of ties.
"""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import baseline_oracle as oracle
from repro.accelerator.analytic_model import SushiAccelModel
from repro.accelerator.persistent_buffer import CachedSubGraph
from repro.accelerator.platforms import ANALYTIC_DEFAULT
from repro.core.candidates import CandidateSet, truncate_to_capacity
from repro.core.latency_table import LatencyTable
from repro.core.policies import Policy
from repro.serving.baselines import (
    FixedSubNetServer,
    NoSushiServer,
    StateUnawareCachingServer,
    baseline_table,
)
from repro.serving.query import Query
from repro.serving.stack import ServeTable, supernet_family

FAMILIES = ("ofa_mobilenetv3", "ofa_resnet50")
PB_KB = (432.0, 864.0, 1728.0)
POLICIES = (Policy.STRICT_ACCURACY, Policy.STRICT_LATENCY)
KINDS = ("no_sushi", "state_unaware", "static_subnet")

_MODELS: dict = {}


def oracle_model(pb_kb: float, with_pb: bool) -> SushiAccelModel:
    """The oracle's own accelerator models, separate from the tables'."""
    key = (pb_kb, with_pb)
    if key not in _MODELS:
        _MODELS[key] = SushiAccelModel(ANALYTIC_DEFAULT.with_pb(pb_kb), with_pb=with_pb)
    return _MODELS[key]


def server_pair(kind, name, pb_kb, policy, period, subnet_name):
    """(oracle server, table-driven server) of one baseline configuration."""
    family = supernet_family(name)
    platform = ANALYTIC_DEFAULT.with_pb(pb_kb)
    args = (family.supernet, list(family.subnets))
    if kind == "no_sushi":
        return (
            oracle.NoSushiServer(
                *args, oracle_model(pb_kb, False), family.accuracy_model, policy=policy
            ),
            NoSushiServer(baseline_table(name, platform, with_pb=False), policy=policy),
        )
    if kind == "state_unaware":
        return (
            oracle.StateUnawareCachingServer(
                *args,
                oracle_model(pb_kb, True),
                family.accuracy_model,
                policy=policy,
                cache_update_period=period,
            ),
            StateUnawareCachingServer(
                baseline_table(name, platform, with_pb=True),
                policy=policy,
                cache_update_period=period,
            ),
        )
    return (
        oracle.FixedSubNetServer(
            *args, oracle_model(pb_kb, False), family.accuracy_model, subnet_name=subnet_name
        ),
        FixedSubNetServer(
            baseline_table(name, platform, with_pb=False), subnet_name=subnet_name
        ),
    )


def raw_query(index: int, accuracy: float, latency: float) -> Query:
    """A query whose constraints skip validation (NaN, inf, out of range)."""
    query = object.__new__(Query)
    for field, value in (
        ("index", index),
        ("accuracy_constraint", accuracy),
        ("latency_constraint_ms", latency),
        ("arrival_ms", 0.0),
    ):
        object.__setattr__(query, field, value)
    return query


def constraint(exact: list[float], lo: float, hi: float):
    """Values on the table's breakpoints, inside and around its range, and
    the non-finite ones."""
    return st.one_of(
        st.sampled_from(exact),
        st.floats(min_value=lo, max_value=hi),
        st.floats(min_value=-2 * hi, max_value=3 * hi),
        st.sampled_from([float("nan"), float("inf"), -float("inf"), 0.0, -0.0]),
    )


@st.composite
def cases(draw):
    name = draw(st.sampled_from(FAMILIES))
    pb_kb = draw(st.sampled_from(PB_KB))
    kind = draw(st.sampled_from(KINDS))
    policy = draw(st.sampled_from(POLICIES))
    period = draw(st.integers(min_value=1, max_value=8))
    family = supernet_family(name)
    subnet_name = draw(st.sampled_from([None, *(sn.name for sn in family.subnets)]))
    table = baseline_table(name, ANALYTIC_DEFAULT.with_pb(pb_kb), with_pb=False).table
    lats = [row[0] for row in table.latency_rows]
    accs = table.accuracy_list
    accuracy = constraint(accs, min(accs) - 0.01, max(accs) + 0.01)
    latency = constraint(lats, min(lats) / 2, 2 * max(lats))
    ops = []
    index = 0
    for _ in range(draw(st.integers(min_value=1, max_value=25))):
        op = draw(st.sampled_from(("single", "batch", "batch", "stream", "reset")))
        size = 1 if op == "single" else draw(st.integers(min_value=1, max_value=8))
        queries = [
            raw_query(index + i, draw(accuracy), draw(latency)) for i in range(size)
        ]
        index += size
        effective = None
        if draw(st.booleans()):
            effective = [draw(latency) for _ in queries]
        ops.append((op, queries, effective))
    return (kind, name, pb_kb, policy, period, subnet_name), ops


def values(r) -> tuple:
    """A served tuple as it is; a record's field values."""
    return r if isinstance(r, tuple) else tuple(getattr(r, f.name) for f in fields(r))


def assert_same_records(expected, got):
    assert [repr(r) for r in got] == [repr(r) for r in expected]
    for a, b in zip(expected, got):
        assert [type(v) for v in values(b)] == [type(v) for v in values(a)]
        assert type(b[1] if isinstance(b, tuple) else b.served_accuracy) is float


@settings(max_examples=120, deadline=None)
@given(cases())
def test_records_match_the_per_query_oracle(case):
    config, ops = case
    kind = config[0]
    ref, server = server_pair(*config)
    for op, queries, effective in ops:
        budgets = effective or [q.latency_constraint_ms for q in queries]
        floor = max(q.accuracy_constraint for q in queries)
        if op == "single":
            args = (queries[0], budgets[0], floor)
            expected, got = [ref.serve_query(*args)], [server.serve_query(*args)]
        elif op == "batch":
            expected = ref.serve_dispatch_batch(queries, budgets, floor)
            got = server.serve_dispatch_batch(queries, budgets, floor)
        elif op == "stream":
            # One query at a time, each with its nominal budget and floor.
            expected, got = (
                [
                    s.serve_query(q, q.latency_constraint_ms, q.accuracy_constraint)
                    for q in queries
                ]
                for s in (ref, server)
            )
        elif kind != "state_unaware":
            continue
        else:
            # reset() is a fresh server: an empty PB and a zero counter.
            ref = server_pair(*config)[0]
            server.reset()
            continue
        assert_same_records(expected, got)
        if kind == "static_subnet":
            for query in queries:
                assert repr(server.estimate_service_ms(query)) == repr(
                    ref.estimate_service_ms(query)
                )
        if kind == "state_unaware":
            # cache_loads, cache_load_bytes_total and the hit counters.
            assert repr(server.pb.stats) == repr(ref.pb.stats)
            assert server.pb.cached.slices == ref.pb.cached.slices


@pytest.mark.parametrize("pb_kb", PB_KB)
@pytest.mark.parametrize("name", FAMILIES)
def test_table_columns_are_the_oracles_breakdowns(name, pb_kb):
    # An empty-PB column is subnet_breakdown(s, None); column s + 1 is the
    # truncation of s the oracle loads; latencies are components.total_ms.
    family = supernet_family(name)
    platform = ANALYTIC_DEFAULT.with_pb(pb_kb)
    for with_pb in (False, True):
        tables = baseline_table(name, platform, with_pb=with_pb)
        model = oracle_model(pb_kb, with_pb)
        capacity = model.pb_capacity_bytes
        cached = [None]
        if with_pb:
            cached += [
                truncate_to_capacity(
                    CachedSubGraph.from_subnet(sn), capacity, supernet=family.supernet
                )
                for sn in family.subnets
            ]
        assert len(tables.table.candidates) == len(cached)
        for i, subnet in enumerate(family.subnets):
            for j, subgraph in enumerate(cached):
                breakdown = model.subnet_breakdown(subnet, subgraph)
                entry = tables.entries[i][j]
                assert repr(entry.total_ms) == repr(breakdown.latency_ms)
                assert repr(entry.total_ms) == repr(breakdown.components.total_ms)
                assert repr(tables.table.latency(i, j)) == repr(breakdown.latency_ms)
                assert repr(entry.offchip_energy_mj) == repr(breakdown.offchip_energy_mj)
                if j == 0:
                    assert repr(breakdown.latency_ms) == repr(
                        model.subnet_latency_ms(subnet)
                    )
                    assert entry.vector_hit_ratio == 0.0
                    assert entry.hit_bytes == 0


@st.composite
def tied_tables(draw):
    # Few distinct values, so equal latencies and equal accuracies abound.
    n = draw(st.integers(min_value=1, max_value=8))
    accs = draw(st.lists(st.sampled_from([0.71, 0.74, 0.77, 0.8]), min_size=n, max_size=n))
    lats = draw(st.lists(st.sampled_from([0.5, 1.0, 1.5, 2.0]), min_size=n, max_size=n))
    levels = [0.5, 0.71, 0.72, 0.74, 0.77, 0.8, 0.9, 0.4, 1.0, 1.5, 2.0, 2.5]
    specials = [float("nan"), float("inf"), -float("inf")]
    probes = draw(
        st.lists(
            st.tuples(st.sampled_from(levels + specials), st.sampled_from(levels + specials)),
            min_size=1,
            max_size=20,
        )
    )
    return accs, lats, probes


@settings(max_examples=200, deadline=None)
@given(tied_tables(), st.sampled_from(POLICIES))
def test_selection_breaks_ties_like_numpy(case, policy):
    accs, lats, probes = case
    family = supernet_family("ofa_mobilenetv3")
    subnets = [family.subnets[0]] * len(accs)
    empty = CandidateSet("ofa_mobilenetv3", (CachedSubGraph.empty(),), 0)
    table = LatencyTable(subnets, empty, [[lat] for lat in lats], accs)
    server = NoSushiServer(ServeTable(table, (), None), policy=policy)
    ref = object.__new__(oracle.NoSushiServer)
    ref.policy = policy
    ref.accuracies = np.array(accs)
    ref.static_latency_ms = np.array(lats)
    for accuracy, latency in probes:
        assert server._select(accuracy, latency) == ref._select(accuracy, latency)
