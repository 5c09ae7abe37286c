"""Property tests of the telemetry bus against numpy and its oracle.

``metrics.percentile`` and ``telemetry.mean`` replace ``np.percentile`` and
``np.mean(services)`` in every control tick's snapshot (and the percentile
in every result summary), so they must return the same bits: their
results' ``float.hex`` equals numpy's over finite floats with duplicates,
zeros, subnormals, all-equal windows and sizes on both sides of numpy's
pairwise-summation block edges, for plain lists and numpy arrays alike.

The bus itself is held to ``tests/telemetry_oracle.py``, the bus as it
rebuilt every field from tuple deques at each tick: fed the same ordered
event stream, every :class:`MetricsSnapshot` field of the two agrees bit
for bit, across ``reset()``.  The bus takes a dispatch pickup in one
``on_pickup`` call; the oracle takes it as the engine used to feed it, one
``on_batch`` and then one ``on_dispatch`` per member.  A bus tracking only
a registered policy's ``reads`` is fed only the events of its signals, as
the engine feeds it, and must still agree with the oracle, fed everything,
on every field the policy reads.

Every registered policy keeps to its ``reads``: it decides on drawn
snapshots whose other fields raise when read.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from telemetry_oracle import TelemetryBus as OracleBus

from repro.core.metrics import percentile
from repro.serving.autoscale.policies import POLICY_NAMES, GroupStatus, make_policy
from repro.serving.autoscale.telemetry import (
    ARRIVALS,
    DROPS,
    FAILURES,
    FIELD_SIGNALS,
    PICKUPS,
    SERVICES,
    SNAPSHOT_FIELDS,
    MetricsSnapshot,
    TelemetryBus,
    mean,
)
from repro.serving.query import QueuedQuery

finite = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
waits = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)

windows = st.one_of(
    st.lists(finite, min_size=1, max_size=500),
    st.lists(waits, min_size=1, max_size=500),
    # Heavy duplication, zeros included: neighbours often tie.
    st.lists(st.sampled_from([0.0, 0.0, 0.25, 1.0, 3.5]), min_size=1, max_size=500),
    # All-equal windows.
    st.builds(lambda v, n: [v] * n, finite, st.integers(min_value=1, max_value=500)),
)


quantiles = st.sampled_from([50, 95, 99])


@settings(max_examples=500, deadline=None)
@given(windows, quantiles)
def test_percentile_is_numpy_percentile_bit_for_bit(values, q):
    want = float(np.percentile(values, q)).hex()
    assert percentile(values, q).hex() == want
    assert percentile(np.array(values), q).hex() == want


@given(windows, quantiles)
def test_percentile_ignores_input_order(values, q):
    assert percentile(values, q).hex() == percentile(list(reversed(values)), q).hex()


# ------------------------------------------------------------------ mean
#: Service durations: any finite value a window can hold (the pairwise sum
#: must match numpy's for negatives too), plus subnormals and zeros.
durations = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-300]),
)
#: Sizes at and around numpy's pairwise edges: the 8-accumulator unroll
#: (7, 8, 9, 15, 16, 17) and the 128-element block (127, 128, 129, 255,
#: 256, 257), where the sum splits into two halves.
edge_sizes = st.sampled_from([1, 2, 7, 8, 9, 15, 16, 17, 127, 128, 129, 255, 256, 257])

mean_windows = st.one_of(
    st.lists(durations, min_size=1, max_size=600),
    edge_sizes.flatmap(lambda n: st.lists(durations, min_size=n, max_size=n)),
    st.lists(st.sampled_from([0.0, 0.0, 0.25, 1.0, 3.5, 5e-324]), min_size=1, max_size=300),
    st.builds(lambda v, n: [v] * n, durations, st.integers(min_value=1, max_value=300)),
)


@settings(max_examples=500, deadline=None)
@given(mean_windows)
def test_mean_is_numpy_mean_bit_for_bit(values):
    assert mean(values).hex() == float(np.mean(values)).hex()


@given(mean_windows, st.integers(min_value=0, max_value=600))
def test_mean_of_a_suffix_is_numpy_mean_of_the_slice(values, lo):
    # The bus reads a window as the tail of a column from its cursor.
    lo = min(lo, len(values) - 1)
    assert mean(values, lo).hex() == float(np.mean(values[lo:])).hex()


@pytest.mark.parametrize("n", [1000, 8191, 8192, 8193, 10_000, 16_385, 65_537])
def test_mean_is_numpy_mean_above_the_buffer_size(n):
    # Past numpy's 8192-element iterator buffer the pairwise recursion must
    # still cover the whole array in one sum.
    rng = np.random.default_rng(n)
    values = (rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)).tolist()
    assert mean(values).hex() == float(np.mean(values)).hex()


# ------------------------------------------------------------ bus oracle
#: Event gaps and windows on a coarse grid as well as arbitrary floats, so
#: event times land exactly on the window's horizon and on its midpoint
#: (the slope's split), where ``<`` and ``<=`` part ways.
gap = st.one_of(
    st.just(0.0),
    st.sampled_from([0.25, 0.5, 1.0, 2.0]),
    st.floats(min_value=0.0, max_value=5.0),
    st.floats(min_value=0.0, max_value=20.0),
)
window = st.one_of(
    st.sampled_from([1.0, 2.0, 4.0, 10.0, 30.0]), st.floats(min_value=0.5, max_value=60.0)
)
replica = st.integers(min_value=0, max_value=3)
value_ms = st.floats(min_value=0.0, max_value=30.0)

#: A pickup's members, by how long each waited since its arrival.
ages = st.lists(value_ms, min_size=1, max_size=8)

event = st.one_of(
    st.tuples(st.just("arrival"), gap),
    st.tuples(st.just("drop"), gap),
    # A drop inside a per-query pickup carries the member's later start
    # time, so the drops arrive out of time order.
    st.tuples(st.just("late_drop"), gap, value_ms),
    st.tuples(st.just("failure"), gap),
    st.tuples(st.just("pickup"), gap, replica, ages),
    # A completion on a replica with no open dispatch takes the
    # ``now - service_ms`` fallback start.
    st.tuples(st.just("completion"), gap, replica, value_ms),
    # Bursts fill the window past numpy's 8-value unroll, where the
    # pairwise mean and a left-to-right sum part ways, and give p95 long
    # windows.  Each member completes and, maybe, picks up again at once.
    st.tuples(
        st.just("burst"),
        gap,
        st.lists(st.tuples(replica, ages, value_ms, st.booleans()), min_size=1, max_size=40),
    ),
    st.tuples(
        st.just("snapshot"),
        gap,
        st.fixed_dictionaries(
            {
                "num_active": st.integers(0, 6),
                "num_draining": st.integers(0, 3),
                "queue_depth": st.integers(0, 20),
                "capacity_replicas": st.one_of(st.none(), st.integers(0, 9)),
                "num_provisioning": st.integers(0, 3),
                "num_failed_replicas": st.integers(0, 3),
            }
        ),
    ),
    st.tuples(st.just("reset"), st.just(0.0)),
)


def assert_same_snapshot(
    got: MetricsSnapshot, want: MetricsSnapshot, tracked=SNAPSHOT_FIELDS
) -> None:
    """``got`` has ``want``'s bits on every ``tracked`` field and the pool
    facts, and NaN on every other windowed field."""
    for field in dataclasses.fields(MetricsSnapshot):
        a = getattr(got, field.name)
        b = getattr(want, field.name)
        if field.name not in tracked and field.name in FIELD_SIGNALS:
            assert a != a, field.name  # NaN
        elif isinstance(b, float):
            assert isinstance(a, float), field.name
            assert a.hex() == b.hex(), field.name
        else:
            assert a == b, field.name


def pickup(bus, oracle, now: float, idx: int, ages: list[float], feed: bool = True) -> None:
    """One pickup on replica ``idx``: one call to the bus (when ``feed``),
    the oracle fed ``on_batch`` and then ``on_dispatch`` member by member."""
    members = [(QueuedQuery(0, 0.5, 10.0, now - age),) for age in ages]
    if feed:
        bus.on_pickup(now, idx, members)
    oracle.on_batch(now, batch_size=len(members))
    for (item,) in members:
        oracle.on_dispatch(now, replica_index=idx, wait_ms=now - item.arrival_ms)


def replay(bus, oracle, events) -> int:
    """Feed both buses ``events``; compare every snapshot.  Returns how many.

    The oracle is fed every event; the bus only the events of the signals
    it tracks, as the engine feeds it, and its snapshots are compared on
    the fields it tracks.
    """
    signals = bus.signals
    arrivals = ARRIVALS in signals
    pickups = PICKUPS in signals or SERVICES in signals
    completions = SERVICES in signals
    drops = DROPS in signals
    failures = FAILURES in signals
    now = 0.0
    snapshots = 0
    for kind, step, *args in events:
        if kind == "reset":
            # A new run: the clock starts over.
            bus.reset()
            oracle.reset()
            now = 0.0
            continue
        now += step
        if kind == "arrival":
            if arrivals:
                bus.on_arrival(now)
            oracle.on_arrival(now)
        elif kind == "drop":
            if drops:
                bus.on_drop(now)
            oracle.on_drop(now)
        elif kind == "late_drop":
            (ahead,) = args
            if drops:
                bus.on_drop(now + ahead)
            oracle.on_drop(now + ahead)
        elif kind == "failure":
            if failures:
                bus.on_failure(now)
            oracle.on_failure(now)
        elif kind == "pickup":
            idx, waited = args
            pickup(bus, oracle, now, idx, waited, pickups)
        elif kind == "completion":
            idx, service = args
            if completions:
                bus.on_completion(now, idx, service)
            oracle.on_completion(now, replica_index=idx, service_ms=service)
        elif kind == "burst":
            (members,) = args
            for idx, waited, service, redispatch in members:
                if completions:
                    bus.on_completion(now, idx, service)
                oracle.on_completion(now, replica_index=idx, service_ms=service)
                if redispatch:
                    pickup(bus, oracle, now, idx, waited, pickups)
        else:
            (kwargs,) = args
            assert_same_snapshot(
                bus.snapshot(now, **kwargs), oracle.snapshot(now, **kwargs), bus.fields
            )
            snapshots += 1
    return snapshots


@settings(max_examples=400, deadline=None)
@given(window, st.lists(event, min_size=1, max_size=300))
def test_bus_snapshots_match_the_oracle_field_for_field(window_ms, events):
    replay(TelemetryBus(window_ms), OracleBus(window_ms), events)


@settings(max_examples=100, deadline=None)
@given(window, st.lists(event.filter(lambda e: e[0] != "reset"), min_size=1, max_size=150))
def test_bus_snapshot_every_event(window_ms, events):
    # A snapshot after every event, so each prune step is checked, the
    # young windows (``now`` below the window length) included.
    probe = ("snapshot", 0.0, {"num_active": 2})
    stream = [e for ev in events for e in (ev, probe)]
    bus, oracle = TelemetryBus(window_ms), OracleBus(window_ms)
    assert replay(bus, oracle, stream) >= len(events)
    # Reset, then replay the same stream: a second run reads the same bits.
    bus.reset()
    oracle.reset()
    replay(bus, oracle, stream)


# ------------------------------------------------------- signal sets
#: Knobs a registered policy needs beyond its defaults: a plan for
#: ``scheduled``, and a horizon (the controller's derived one) so
#: ``predictive`` takes its backlog branch.
KNOBS = {"scheduled": {"schedule": [(0.0, 1)]}, "predictive": {"horizon_ms": 4.0}}


def registered_policy(name: str):
    """The registered policy ``name``."""
    return make_policy(name, **KNOBS.get(name, {}))


@pytest.mark.parametrize("name", POLICY_NAMES)
@settings(max_examples=150, deadline=None)
@given(window_ms=window, events=st.lists(event, min_size=1, max_size=300))
def test_a_policys_bus_matches_the_oracle_on_its_reads(name, window_ms, events):
    bus = TelemetryBus(window_ms)
    bus.track(registered_policy(name).reads)
    replay(bus, OracleBus(window_ms), events)


class ReadsOnly:
    """A snapshot whose fields outside ``reads`` raise when read.

    Properties and methods of :class:`MetricsSnapshot` run on the guarded
    view, so the fields they read are checked too.
    """

    def __init__(self, snapshot: MetricsSnapshot, reads: frozenset[str]) -> None:
        self._snapshot = snapshot
        self._reads = reads

    def __getattr__(self, name: str):
        if name in SNAPSHOT_FIELDS:
            if name not in self._reads:
                raise AssertionError(f"read {name!r}, which is not in its reads")
            return getattr(self._snapshot, name)
        member = getattr(MetricsSnapshot, name)
        if isinstance(member, property):
            return member.fget(self)
        return member.__get__(self)


unit = st.floats(min_value=0.0, max_value=1.0)
snapshots = st.builds(
    MetricsSnapshot,
    time_ms=st.floats(min_value=0.0, max_value=1e4),
    window_ms=st.floats(min_value=0.5, max_value=100.0),
    num_active=st.integers(0, 8),
    num_draining=st.integers(0, 3),
    queue_depth=st.integers(0, 60),
    arrival_rate_per_ms=st.floats(min_value=0.0, max_value=20.0),
    drop_rate=unit,
    utilization=unit,
    p95_wait_ms=st.floats(min_value=0.0, max_value=50.0),
    mean_service_ms=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=5.0)),
    mean_batch_occupancy=st.floats(min_value=0.0, max_value=8.0),
    num_provisioning=st.integers(0, 3),
    arrival_rate_slope_per_ms2=st.floats(min_value=-1.0, max_value=1.0),
    num_failed_replicas=st.integers(0, 3),
    failure_rate_per_ms=st.floats(min_value=0.0, max_value=1.0),
)
statuses = st.builds(
    GroupStatus,
    name=st.just(None),
    cost_weight=st.floats(min_value=0.5, max_value=4.0),
    startup_delay_ms=st.floats(min_value=0.0, max_value=10.0),
    min_replicas=st.integers(0, 2),
    max_replicas=st.integers(2, 8),
    num_active=st.integers(0, 8),
    num_provisioning=st.integers(0, 3),
    num_draining=st.integers(0, 3),
    queue_depth=st.integers(0, 30),
)


@pytest.mark.parametrize("name", POLICY_NAMES)
@settings(max_examples=200, deadline=None)
@given(
    ticks=st.lists(snapshots, min_size=1, max_size=4),
    groups=st.lists(statuses, min_size=1, max_size=3),
    cost_budget=st.one_of(st.none(), st.floats(min_value=1.0, max_value=30.0)),
)
def test_a_policy_reads_only_its_declared_fields(name, ticks, groups, cost_budget):
    policy = registered_policy(name)
    if name != "tier_aware":
        groups = groups[:1]
    groups = [dataclasses.replace(g, name=f"g{i}") for i, g in enumerate(groups)]
    # Consecutive ticks, so a stateful policy (predictive) reads its
    # state's inputs too.
    for snapshot in ticks:
        policy.desired_by_group(
            ReadsOnly(snapshot, policy.reads), groups, cost_budget=cost_budget
        )
