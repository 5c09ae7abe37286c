"""Property-based tests on scheduler and latency-model invariants."""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.accelerator.analytic_model import SushiAccelModel
from repro.accelerator.persistent_buffer import CachedSubGraph
from repro.accelerator.platforms import ANALYTIC_DEFAULT
from repro.core.candidates import build_candidate_set
from repro.core.latency_table import LatencyTable
from repro.core.encoding import nearest_index
from repro.core.policies import Policy, select_subnet
from repro.core.running_average import RunningAverageNet
from repro.core.scheduler import CacheDecisionMemo, SchedulerDecision, SushiSched
from repro.supernet.accuracy import AccuracyModel
from repro.supernet.zoo import load_supernet, paper_pareto_subnets

_SUPERNET = load_supernet("ofa_mobilenetv3")
_SUBNETS = paper_pareto_subnets(_SUPERNET)
_ACCEL = SushiAccelModel(ANALYTIC_DEFAULT, with_pb=True)
_CANDIDATES = build_candidate_set(_SUBNETS, capacity_bytes=_ACCEL.pb_capacity_bytes)
_ACCURACY = AccuracyModel(_SUPERNET)
_TABLE = LatencyTable.build(_SUBNETS, _CANDIDATES, _ACCEL.subnet_latency_ms, _ACCURACY.accuracy)

acc_bounds = st.floats(min_value=0.70, max_value=0.85)
lat_bounds = st.floats(min_value=0.05, max_value=5.0)
cache_idxs = st.integers(min_value=0, max_value=len(_CANDIDATES) - 1)


class TestPolicyProperties:
    @given(acc_bounds, lat_bounds, cache_idxs)
    @settings(max_examples=60, deadline=None)
    def test_selection_always_valid_index(self, acc, lat, cache_idx):
        for policy in (Policy.STRICT_ACCURACY, Policy.STRICT_LATENCY):
            idx = select_subnet(
                _TABLE, policy, accuracy_constraint=acc,
                latency_constraint_ms=lat, cache_state_idx=cache_idx,
            )
            assert 0 <= idx < _TABLE.num_subnets

    @given(acc_bounds, cache_idxs)
    @settings(max_examples=60, deadline=None)
    def test_strict_accuracy_feasibility(self, acc, cache_idx):
        idx = select_subnet(
            _TABLE, Policy.STRICT_ACCURACY, accuracy_constraint=acc,
            latency_constraint_ms=1.0, cache_state_idx=cache_idx,
        )
        feasible_exists = bool(np.any(_TABLE.accuracies >= acc))
        if feasible_exists:
            assert _TABLE.accuracy(idx) >= acc

    @given(lat_bounds, cache_idxs)
    @settings(max_examples=60, deadline=None)
    def test_strict_latency_feasibility(self, lat, cache_idx):
        idx = select_subnet(
            _TABLE, Policy.STRICT_LATENCY, accuracy_constraint=0.8,
            latency_constraint_ms=lat, cache_state_idx=cache_idx,
        )
        col = _TABLE.column(cache_idx)
        if bool(np.any(col <= lat)):
            assert col[idx] <= lat


class TestLatencyModelProperties:
    @given(st.integers(min_value=0, max_value=len(_SUBNETS) - 1), cache_idxs)
    @settings(max_examples=40, deadline=None)
    def test_caching_never_hurts_latency(self, subnet_idx, cache_idx):
        subnet = _SUBNETS[subnet_idx]
        cached = _CANDIDATES[cache_idx]
        assert _ACCEL.subnet_latency_ms(subnet, cached) <= _ACCEL.subnet_latency_ms(subnet) + 1e-9

    @given(st.integers(min_value=0, max_value=len(_SUBNETS) - 1))
    @settings(max_examples=20, deadline=None)
    def test_self_cache_is_best_possible(self, subnet_idx):
        subnet = _SUBNETS[subnet_idx]
        own = _ACCEL.subnet_latency_ms(subnet, CachedSubGraph.from_subnet(subnet))
        for cached in _CANDIDATES:
            assert own <= _ACCEL.subnet_latency_ms(subnet, cached) + 1e-9


class TestRunningAverageProperties:
    @given(st.lists(st.floats(min_value=0, max_value=1000), min_size=1, max_size=30),
           st.integers(min_value=1, max_value=10))
    @settings(max_examples=60)
    def test_average_within_observed_range(self, values, window):
        avg = RunningAverageNet(dimension=1, window=window)
        for v in values:
            avg.update(np.array([v]))
        recent = values[-window:]
        assert min(recent) - 1e-9 <= avg.value()[0] <= max(recent) + 1e-9


def _family_table(name):
    supernet = load_supernet(name)
    subnets = paper_pareto_subnets(supernet)
    candidates = build_candidate_set(subnets, capacity_bytes=_ACCEL.pb_capacity_bytes)
    table = LatencyTable.build(
        subnets, candidates, _ACCEL.subnet_latency_ms, AccuracyModel(supernet).accuracy
    )
    return supernet, table


_FAMILIES = {
    "ofa_mobilenetv3": (_SUPERNET, _TABLE),
    "ofa_resnet50": _family_table("ofa_resnet50"),
}
# One memo per family, shared by every example as clones of one stack share
# it: windows of earlier examples are answered from it in later ones.
_MEMOS = {name: CacheDecisionMemo(table, supernet) for name, (supernet, table) in _FAMILIES.items()}


class _ReferenceSched:
    """Algorithm 1 on vectors: one running-average row per served query."""

    def __init__(self, table, supernet, policy, period, initial_cache_idx):
        self.table = table
        self.policy = policy
        self.period = period
        self.avg = RunningAverageNet(dimension=2 * supernet.num_layers, window=period)
        self.subnet_encodings = [sn.encode() for sn in table.subnets]
        self.candidate_encodings = table.candidates.encodings(supernet)
        self.initial_cache_idx = initial_cache_idx
        self.reset()

    def reset(self):
        self.avg.reset()
        self.cache_state_idx = self.initial_cache_idx
        self.seen = 0

    def schedule_shared(self, *, accuracy_constraint, latency_constraint_ms, batch_size):
        current = self.cache_state_idx
        idx = select_subnet(
            self.table, self.policy, accuracy_constraint=accuracy_constraint,
            latency_constraint_ms=latency_constraint_ms, cache_state_idx=current,
        )
        for _ in range(batch_size):
            self.avg.update(self.subnet_encodings[idx])
        before = self.seen
        self.seen += batch_size
        following = current
        if self.seen // self.period > before // self.period:
            following = nearest_index(self.avg.value(), self.candidate_encodings)
            self.cache_state_idx = following
        return SchedulerDecision(
            query_index=before,
            subnet_idx=idx,
            cache_state_idx=current,
            next_cache_state_idx=following,
            cache_updated=following != current,
            predicted_latency_ms=self.table.latency(idx, current),
            subnet_accuracy=self.table.accuracy(idx),
        )


@st.composite
def _scheduler_runs(draw):
    family = draw(st.sampled_from(sorted(_FAMILIES)))
    policy = draw(st.sampled_from(list(Policy)))
    period = draw(st.integers(min_value=1, max_value=16))
    _, table = _FAMILIES[family]
    initial = draw(st.integers(min_value=0, max_value=table.num_subgraphs - 1))
    # Half the constraints sit exactly on the table's breakpoints, so every
    # SubNet (and both fallbacks) is served often enough to vary the window.
    accuracies = st.one_of(
        st.sampled_from(sorted(set(table.accuracy_list))),
        st.floats(min_value=0.70, max_value=0.85),
    )
    latencies = st.one_of(
        st.sampled_from(sorted(set(table.latencies_ms.ravel().tolist()))),
        st.floats(min_value=0.1, max_value=10.0),
    )
    calls = draw(
        st.lists(
            st.tuples(accuracies, latencies, st.integers(min_value=1, max_value=2 * period)),
            min_size=1,
            max_size=80,
        )
    )
    reset_at = draw(st.integers(min_value=0, max_value=len(calls)))
    return family, policy, period, initial, calls, reset_at


_RESNET_LEVELS = sorted(set(_FAMILIES["ofa_resnet50"][1].accuracy_list))


class TestSchedulerMatchesVectorReference:
    """SushiSched on indices + a multiset memo == Algorithm 1 on vectors."""

    @given(_scheduler_runs())
    # Windows (2, 1, 1) then (1, 2, 2): one support, two multisets, two
    # different nearest candidates -- a set-keyed memo answers both alike.
    @example(
        (
            "ofa_resnet50", Policy.STRICT_ACCURACY, 3, 3,
            [(_RESNET_LEVELS[k], 5.0, 2) for k in (2, 1, 2)], 3,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_every_decision_matches(self, run):
        family, policy, period, initial, calls, reset_at = run
        supernet, table = _FAMILIES[family]
        sched = SushiSched(
            table, supernet, policy=policy, cache_update_period=period,
            initial_cache_idx=initial, memo=_MEMOS[family],
        )
        reference = _ReferenceSched(table, supernet, policy, period, initial)
        for i, (accuracy, latency, batch) in enumerate(calls):
            if i == reset_at:
                sched.reset()
                reference.reset()
            expected = reference.schedule_shared(
                accuracy_constraint=accuracy,
                latency_constraint_ms=latency,
                batch_size=batch,
            )
            if batch == 1:
                # schedule() reports the whole decision of a batch of one.
                assert sched.schedule(
                    accuracy_constraint=accuracy, latency_constraint_ms=latency
                ) == expected
            else:
                assert sched.schedule_shared(accuracy, latency, batch) == expected.subnet_idx
            assert sched.cache_state_idx == reference.cache_state_idx
