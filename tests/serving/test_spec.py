"""Serialization and validation tests for the declarative scenario specs.

The contract under test: ``Spec.from_dict(spec.to_dict()) == spec`` with
JSON-safe dicts only, across every backend kind, arrival kind and workload
pattern — so any scenario can live in a version-controlled ``.json`` file
and run via ``python -m repro serve``.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accelerator.platforms import ANALYTIC_DEFAULT, ZCU104
from repro.core.policies import Policy
from repro.serving.api import run_scenario
from repro.serving.domain import FieldError
from repro.serving.spec import (
    ARRIVAL_KINDS,
    BACKEND_KINDS,
    MIN_CYCLE_ARRIVALS,
    MIN_SUSHI_PB_KB,
    ArrivalSpec,
    AutoscalerSpec,
    ReplicaGroupSpec,
    RetryPolicy,
    ScenarioSpec,
)
from repro.serving.trace_io import TraceFit
from repro.serving.workload import PATTERNS, WorkloadSpec
from repro.sweep import CellResult, SweepAxis, SweepResult, SweepSpec

SCENARIOS = Path(__file__).resolve().parents[2] / "examples" / "scenarios"


INLINE_PLATFORM = ScenarioSpec(
    replica_groups=(ReplicaGroupSpec(platform=ANALYTIC_DEFAULT),)
)
FIT = TraceFit(
    num_events=3,
    span_ms=2.0,
    nominal_rate_per_ms=1.0,
    cv_interarrival=0.5,
    peak_to_mean=1.0,
    num_burst_windows=0,
    segments=((2.0, 1.0),),
)
_SWEEP = SweepSpec(base=ScenarioSpec(), axes=(SweepAxis("seed", (1,)),))
SWEEP_RESULT = SweepResult(
    spec=_SWEEP,
    cells=(CellResult(index=0, overrides=_SWEEP.cells()[0], error="boom"),),
)


def with_value(data, path, value):
    """``data`` with the dotted ``path`` set to ``value`` (in place)."""
    node = data
    *parents, leaf = path.split(".")
    for part in parents:
        node = node[int(part)] if isinstance(node, list) else node[part]
    node[leaf] = value
    return data


def roundtrip(spec):
    """Serialize through actual JSON text, not just dicts."""
    return type(spec).from_dict(json.loads(json.dumps(spec.to_dict())))


def make_arrivals(kind: str) -> ArrivalSpec:
    if kind == "time_varying":
        return ArrivalSpec(kind=kind, segments=((10.0, 0.5), (5.0, 2.0)), seed=3)
    if kind == "trace":
        return ArrivalSpec(
            kind=kind, events=(0.5, 1.25, 3.0), rate_scale=2.0, limit=3, seed=3
        )
    return ArrivalSpec(kind=kind, rate_per_ms=0.75, seed=3)


class TestArrivalSpec:
    @pytest.mark.parametrize("kind", ARRIVAL_KINDS)
    def test_roundtrip(self, kind):
        spec = make_arrivals(kind)
        assert roundtrip(spec) == spec

    def test_poisson_matches_engine_arrivals(self):
        from repro.serving.engine import poisson_arrivals

        spec = ArrivalSpec(kind="poisson", rate_per_ms=0.4, seed=11)
        expected = poisson_arrivals(
            50, 0.4, rng=np.random.default_rng(11)
        )
        np.testing.assert_array_equal(spec.generate(50), expected)

    def test_deterministic_evenly_spaced(self):
        spec = ArrivalSpec(kind="deterministic", rate_per_ms=2.0)
        arrivals = spec.generate(4)
        np.testing.assert_allclose(arrivals, [0.5, 1.0, 1.5, 2.0])

    def test_time_varying_monotone_and_rate_tracks_segments(self):
        # 100 ms at 0.1/ms then 100 ms at 5/ms, cycling: arrivals must be
        # strictly increasing and dense segments must hold more arrivals.
        spec = ArrivalSpec(
            kind="time_varying", segments=((100.0, 0.1), (100.0, 5.0)), seed=0
        )
        arrivals = spec.generate(400)
        assert np.all(np.diff(arrivals) > 0)
        phase = (arrivals % 200.0) >= 100.0  # True inside the dense segment
        assert phase.sum() > 3 * (~phase).sum()
        assert spec.nominal_rate_per_ms() == pytest.approx((10.0 + 500.0) / 200.0)

    def test_time_varying_deterministic_given_seed(self):
        spec = make_arrivals("time_varying")
        np.testing.assert_array_equal(spec.generate(64), spec.generate(64))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(kind="warp"),
            dict(kind="poisson"),  # missing rate
            dict(kind="poisson", rate_per_ms=-1.0),
            dict(kind="poisson", rate_per_ms=1.0, segments=((1.0, 1.0),)),
            dict(kind="time_varying"),  # missing segments
            dict(kind="time_varying", segments=((0.0, 1.0),)),
            dict(kind="time_varying", segments=((1.0, -2.0),)),
            dict(kind="time_varying", rate_per_ms=1.0, segments=((1.0, 1.0),)),
            dict(kind="time_varying", segments=((0.001, 0.001),)),  # ~0 per cycle
            dict(kind="trace"),  # needs path or events
            dict(kind="trace", path="x.csv", events=(1.0,)),  # not both
            dict(kind="trace", rate_per_ms=1.0, events=(1.0,)),
            dict(kind="trace", events=(2.0, 1.0)),  # decreasing
            dict(kind="trace", events=(-1.0, 1.0)),  # negative
            dict(kind="trace", events=(1.0,), rate_scale=0.0),
            dict(kind="trace", events=(1.0,), time_scale=-1.0),
            dict(kind="trace", events=(1.0,), limit=0),
            dict(kind="poisson", rate_per_ms=1.0, rate_scale=2.0),
            dict(kind="poisson", rate_per_ms=1.0, events=(1.0,)),
            dict(kind="poisson", rate_per_ms=1.0, path="x.csv"),
            dict(kind="trace", events=(0.0, 0.0)),  # spans no time
            dict(kind="trace", events=(0.0, 1.0), limit=1),  # limited to none
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ArrivalSpec(**kwargs)

    def test_a_limit_that_cuts_events_to_zero_time_is_named(self):
        inline = ScenarioSpec().override_many(
            [("arrivals", {"kind": "trace", "events": [0.0, 0.5, 1.0]}), ("num_queries", 1)]
        )
        with pytest.raises(ValueError, match="at 'arrivals.limit': .*positive time"):
            inline.override("arrivals.limit", 1)
        assert inline.override("arrivals.limit", 2).arrivals.generate(2).tolist() == [0.0, 0.5]

    def test_a_cycle_expecting_almost_no_arrivals_is_named(self):
        # Each query would walk ~1 / sum(d * r) segments: 10^6 here.
        base = ScenarioSpec().override("num_queries", 3)
        tiny = {"kind": "time_varying", "segments": [[0.001, 0.001]]}
        with pytest.raises(ValueError, match="at 'arrivals.segments': .*at least 0.01"):
            base.override("arrivals", tiny)
        with pytest.raises(ValueError, match="arrivals.segments"):
            base.override("arrivals", {**tiny, "segments": [[1.0, 0.001], [4.0, 0.001]]})
        # At the floor the cycle parses and generates (100 segments a query).
        floor = base.override("arrivals", {**tiny, "segments": [[10.0, 0.001]]})
        assert floor.arrivals.nominal_rate_per_ms() == pytest.approx(0.001)
        assert len(floor.arrivals.generate(3)) == 3

    def test_trace_replays_inline_events_exactly(self):
        spec = ArrivalSpec(kind="trace", events=(0.5, 1.0, 2.5, 7.0))
        np.testing.assert_array_equal(spec.generate(4), [0.5, 1.0, 2.5, 7.0])
        np.testing.assert_array_equal(spec.generate(2), [0.5, 1.0])
        assert spec.nominal_rate_per_ms() == pytest.approx(4.0 / 7.0)
        with pytest.raises(ValueError):
            spec.generate(5)  # log exhausted

    def test_trace_scaling_and_limit(self):
        spec = ArrivalSpec(
            kind="trace", events=(1.0, 2.0, 4.0, 8.0), rate_scale=2.0, limit=3
        )
        np.testing.assert_array_equal(spec.generate(3), [0.5, 1.0, 2.0])
        # time_scale converts units (e.g. s -> ms), rate_scale divides.
        lifted = ArrivalSpec(
            kind="trace", events=(1.0, 2.0), time_scale=1000.0
        )
        np.testing.assert_array_equal(lifted.generate(2), [1000.0, 2000.0])


class TestReplicaGroupSpec:
    @pytest.mark.parametrize("kind", BACKEND_KINDS)
    def test_roundtrip_all_backend_kinds(self, kind):
        spec = ReplicaGroupSpec(
            count=3,
            kind=kind,
            platform="zcu104",
            pb_kb=256.0,
            policy=Policy.STRICT_LATENCY,
            cache_update_period=8,
            discipline="edf",
            subnet_name="C" if kind == "static_subnet" else None,
            name="tier",
        )
        assert roundtrip(spec) == spec

    def test_inline_platform_roundtrip(self):
        spec = ReplicaGroupSpec(platform=ZCU104.scaled(bandwidth_gbps=40.0))
        back = roundtrip(spec)
        assert back == spec
        assert back.platform.off_chip_bandwidth_gbps == 40.0

    def test_resolved_platform_applies_pb_override(self):
        spec = ReplicaGroupSpec(platform="analytic-default", pb_kb=432.0)
        assert spec.resolved_platform() == ANALYTIC_DEFAULT.with_pb(432.0)
        assert ReplicaGroupSpec().resolved_platform() == ANALYTIC_DEFAULT

    def test_policy_accepts_string(self):
        assert ReplicaGroupSpec(policy="strict_latency").policy is Policy.STRICT_LATENCY

    def test_bad_policy_string_names_the_field(self):
        # Built in Python, the same error decoding raises.
        message = (
            "invalid value at 'policy': expected one of "
            "['strict_accuracy', 'strict_latency'], got 'bogus'"
        )
        with pytest.raises(FieldError) as built:
            ReplicaGroupSpec(policy="bogus")
        assert str(built.value) == message
        with pytest.raises(FieldError) as decoded:
            ScenarioSpec.from_dict({"replica_groups": [{"policy": "bogus"}]})
        assert str(decoded.value) == message.replace("'policy'", "'replica_groups.0.policy'")

    def test_non_finite_inline_platform_refused_at_parse_by_path(self):
        # Parsed, then written back as ``Infinity``, which is not JSON.
        data = ScenarioSpec(replica_groups=(ReplicaGroupSpec(platform=ZCU104),)).to_dict()
        data["replica_groups"][0]["platform"]["clock_mhz"] = float("inf")
        with pytest.raises(FieldError) as decoded:
            ScenarioSpec.from_json(json.dumps(data))
        assert str(decoded.value) == (
            "invalid value at 'replica_groups.0.platform.clock_mhz': "
            "expected float in [1, 100000.0], got inf"
        )
        with pytest.raises(FieldError, match="at 'platform.clock_mhz': "):
            ReplicaGroupSpec(platform=dataclasses.replace(ZCU104, clock_mhz=float("inf")))

    @pytest.mark.parametrize(
        "field, value",
        [("clock_mhz", -1.0), ("kp", 0), ("kp", 1.5), ("off_chip_bandwidth_gbps", float("nan")),
         ("dram_contention_factor", 0.5), ("query_overhead_cycles", 2**70)],
    )
    def test_out_of_range_inline_platform_value_names_its_path(self, field, value):
        data = ReplicaGroupSpec(platform=ZCU104).to_dict()
        data["platform"][field] = value
        with pytest.raises(FieldError, match=f"at 'replica_groups.0.platform.{field}': expected "):
            ReplicaGroupSpec.from_dict(data, path="replica_groups.0")

    def test_inline_platform_whose_buffers_overflow_its_budget_is_refused(self):
        # The DPE array's fixed buffers outgrow the on-chip budget: refused
        # at parse, not when the first stack is built.
        with pytest.raises(FieldError, match="at 'platform': .*too small for the fixed buffers"):
            ReplicaGroupSpec(platform=dataclasses.replace(ZCU104, kp=4096))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(count=0),
            dict(kind="gpu"),
            dict(platform="not-a-platform"),
            dict(pb_kb=-1.0),
            dict(cache_update_period=0),
            # -1 used to serve a truncated candidate set without complaint,
            # and 0 failed only inside build_engine.
            dict(candidate_set_size=0),
            dict(candidate_set_size=-1),
            dict(subnet_name="C"),  # only valid for static_subnet
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ReplicaGroupSpec(**kwargs)


class TestScenarioSpec:
    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_roundtrip_all_workload_patterns(self, pattern):
        spec = ScenarioSpec(
            name="rt",
            workload=WorkloadSpec(num_queries=32, pattern=pattern),
        )
        assert roundtrip(spec) == spec

    def test_roundtrip_heterogeneous_scenario(self):
        spec = ScenarioSpec(
            name="hetero",
            supernet_name="ofa_mobilenetv3",
            policy=Policy.STRICT_LATENCY,
            replica_groups=(
                ReplicaGroupSpec(count=2, pb_kb=1728.0, name="large", discipline="edf"),
                ReplicaGroupSpec(count=2, pb_kb=432.0, name="small", discipline="edf"),
            ),
            router="jsq",
            admission="drop_expired",
            workload=WorkloadSpec(
                num_queries=64, accuracy_range=None, latency_range_ms=None
            ),
            arrivals=ArrivalSpec(
                kind="time_varying", segments=((60.0, 1.0), (40.0, 6.0))
            ),
            seed=7,
        )
        assert roundtrip(spec) == spec
        assert spec.num_replicas == 4

    def test_replica_groups_normalized_to_tuple(self):
        spec = ScenarioSpec(replica_groups=[ReplicaGroupSpec(count=2)])
        assert isinstance(spec.replica_groups, tuple)

    def test_group_level_overrides_inherit_scenario_defaults(self):
        scenario = ScenarioSpec(
            policy=Policy.STRICT_LATENCY,
            cache_update_period=6,
            seed=9,
            replica_groups=(
                ReplicaGroupSpec(),
                ReplicaGroupSpec(
                    policy=Policy.STRICT_ACCURACY, cache_update_period=2, seed=1
                ),
            ),
        )
        inherit, override = scenario.replica_groups
        assert scenario.group_policy(inherit) is Policy.STRICT_LATENCY
        assert scenario.group_cache_update_period(inherit) == 6
        assert scenario.group_seed(inherit) == 9
        assert scenario.group_policy(override) is Policy.STRICT_ACCURACY
        assert scenario.group_cache_update_period(override) == 2
        assert scenario.group_seed(override) == 1

    def test_override_dotted_paths(self):
        spec = ScenarioSpec(
            replica_groups=(ReplicaGroupSpec(count=1), ReplicaGroupSpec(count=1)),
        )
        assert spec.override("num_queries", 42).num_queries == 42
        assert spec.override("replica_groups.1.count", 5).replica_groups[1].count == 5
        assert (
            spec.override("arrivals.rate_per_ms", 0.25).arrivals.rate_per_ms == 0.25
        )
        assert spec.override("workload.pattern", "bursty").workload.pattern == "bursty"

    def test_override_many_is_atomic(self):
        """Interdependent overrides validate once, after all are applied:
        switching the scaling policy to ``scheduled`` requires its schedule
        to land in the same step (either alone is invalid)."""
        spec = ScenarioSpec(autoscaler=AutoscalerSpec(policy="reactive"))
        with pytest.raises(ValueError):
            spec.override("autoscaler.policy", "scheduled")
        with pytest.raises(ValueError):
            spec.override("autoscaler.schedule", [[0.0, 1]])
        switched = spec.override_many(
            [
                ("autoscaler.policy", "scheduled"),
                ("autoscaler.schedule", [[0.0, 1], [50.0, 3]]),
                ("autoscaler.period_ms", 120.0),
            ]
        )
        assert switched.autoscaler.policy == "scheduled"
        assert switched.autoscaler.schedule == ((0.0, 1), (50.0, 3))

    def test_override_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="'no_such_field'"):
            ScenarioSpec().override("no_such_field", 1)
        with pytest.raises(ValueError, match="'arrivals.flux'"):
            ScenarioSpec().override("arrivals.flux", 1)

    @pytest.mark.parametrize(
        "path, message",
        [
            ("replica_groups.3.count", "index 3 is out of range for list 'replica_groups'"),
            ("replica_groups.-2.count", "index -2 is out of range"),
            ("replica_groups.x.count", "'x' is not an index into list 'replica_groups'"),
            ("replica_groups.0.no_such_field", "unknown field 'no_such_field'"),
            ("replica_groups.0.batching.flux", "unknown field 'flux'"),
            ("workload.pattern.kind", "descends through scalar 'workload.pattern'"),
            ("autoscaler.policy", "descends through scalar 'autoscaler'"),
            ("replica_groups.0.count.1", "descends through scalar 'replica_groups.0.count'"),
        ],
    )
    def test_bad_override_path_names_the_path(self, path, message):
        # One ValueError naming the dotted path, never a bare KeyError,
        # IndexError or int() error.
        with pytest.raises(ValueError, match=message) as info:
            ScenarioSpec().override(path, 2)
        assert repr(path) in str(info.value)

    def test_negative_override_index_addresses_from_the_end(self):
        spec = ScenarioSpec(replica_groups=(ReplicaGroupSpec(), ReplicaGroupSpec()))
        assert spec.override("replica_groups.-1.count", 3).replica_groups[1].count == 3

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpec(replica_groups=())
        with pytest.raises(ValueError):
            ScenarioSpec(num_queries=0)
        with pytest.raises(ValueError):
            ScenarioSpec(cache_update_period=0)

    def test_bad_policy_string_names_the_field(self):
        # Built in Python, the same error decoding raises.
        with pytest.raises(FieldError) as built:
            ScenarioSpec(policy="bogus")
        with pytest.raises(FieldError) as decoded:
            ScenarioSpec.from_dict({"policy": "bogus"})
        assert str(built.value) == str(decoded.value) == (
            "invalid value at 'policy': expected one of "
            "['strict_accuracy', 'strict_latency'], got 'bogus'"
        )

    @pytest.mark.parametrize(
        "path, value, message",
        [
            ("router", "random", "at 'router': expected one of .*, got 'random'"),
            ("admission", "admit_some", "at 'admission': expected one of .*'admit_some'"),
            (
                "replica_groups.0.discipline",
                "lifo",
                "at 'replica_groups.0.discipline': expected one of .*'lifo'",
            ),
            ("supernet_name", "vgg16", "at 'supernet_name': unknown SuperNet 'vgg16'"),
        ],
    )
    def test_unknown_names_fail_at_parse(self, path, value, message):
        # Each used to parse and fail only inside build_engine/build_trace.
        with pytest.raises(ValueError, match=message):
            ScenarioSpec().override(path, value)
        data = ScenarioSpec().to_dict()
        node = data
        *parents, leaf = path.split(".")
        for part in parents:
            node = node[int(part)] if isinstance(node, list) else node[part]
        node[leaf] = value
        with pytest.raises(ValueError, match=message):
            ScenarioSpec.from_dict(data)

    def test_supernet_aliases_still_parse(self):
        spec = ScenarioSpec().override("supernet_name", "mobv3")
        assert spec.supernet_name == "mobv3"
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_duplicate_group_names_rejected_at_parse(self):
        # Ambiguous group references must fail when the spec is built, not
        # deep inside engine construction.
        with pytest.raises(ValueError, match="unique"):
            ScenarioSpec(
                replica_groups=(
                    ReplicaGroupSpec(name="pool"),
                    ReplicaGroupSpec(name="pool"),
                )
            )
        # Several unnamed groups stay legal.
        ScenarioSpec(
            replica_groups=(ReplicaGroupSpec(), ReplicaGroupSpec(pb_kb=432.0))
        )

    def test_json_text_roundtrip(self):
        spec = ScenarioSpec(name="files")
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    @pytest.mark.parametrize(
        ("spec", "path"),
        [
            pytest.param(ScenarioSpec(), "fast_path", id="fast_path"),
            pytest.param(
                ScenarioSpec(), "replica_groups.0.bogus", id="replica_groups.0.bogus"
            ),
            pytest.param(ScenarioSpec(), "arrivals.bogus", id="arrivals.bogus"),
            pytest.param(
                INLINE_PLATFORM,
                "replica_groups.0.platform.bogus",
                id="replica_groups.0.platform.bogus",
            ),
            pytest.param(FIT, "bogus", id="TraceFit.bogus"),
            pytest.param(SWEEP_RESULT, "cells.0.bogus", id="cells.0.bogus"),
            pytest.param(SWEEP_RESULT, "bogus", id="SweepResult.bogus"),
        ],
    )
    def test_unknown_key_names_its_dotted_path(self, spec, path):
        data = with_value(spec.to_dict(), path, True)
        with pytest.raises(ValueError, match=f"unknown key '{path}'"):
            type(spec).from_dict(data)

    @pytest.mark.parametrize(
        ("path", "value"),
        [
            ("replica_groups.0.count", "3"),
            ("arrivals.rate_per_ms", "fast"),
            ("replica_groups.0.batching.max_batch", "a"),
            ("replica_groups.0.count", True),
            ("arrivals.rate_per_ms", False),
            ("replica_groups.0.platform", 7),
            ("workload.accuracy_range", [0.7]),
            ("workload.latency_range_ms", [1.0, 2.0, 3.0]),
            ("workload.accuracy_range", "wide"),
            ("workload.pattern", "zigzag"),
            ("policy", "greedy"),
            ("autoscaler", 3),
        ],
    )
    def test_wrong_typed_value_names_its_dotted_path(self, path, value):
        data = with_value(ScenarioSpec().to_dict(), path, value)
        with pytest.raises(ValueError, match=f"at '{path}'"):
            ScenarioSpec.from_dict(data)

    def test_lenient_values_stay_accepted(self):
        # An int in a float field is kept as an int (so the bytes
        # round-trip), a null retry falls back to the default (as a null
        # batching does), and an Any-typed axis value takes any JSON value.
        data = with_value(ScenarioSpec().to_dict(), "arrivals.rate_per_ms", 2)
        data["faults"] = {"retry": None}
        spec = ScenarioSpec.from_dict(data)
        assert type(spec.arrivals.rate_per_ms) is int
        assert spec.faults is not None and spec.faults.retry == RetryPolicy()
        assert json.loads(spec.to_json())["arrivals"]["rate_per_ms"] == 2
        axis = SweepAxis.from_dict({"path": "seed", "values": [None, "x", [1, [2]]]})
        assert axis.values == (None, "x", (1, (2,)))

    def test_unknown_key_deep_in_a_sweep_names_its_path(self):
        data = {"base": {"faults": {"retry": {"tries": 2}}}, "axes": []}
        with pytest.raises(ValueError, match="unknown key 'base.faults.retry.tries'"):
            SweepSpec.from_dict(data)


# ------------------------------------------------- values that failed mid-run
def committed(name: str) -> ScenarioSpec:
    return ScenarioSpec.from_json((SCENARIOS / f"{name}.json").read_text())


#: Values that used to parse and then fail or hang inside the run, with
#: what each does now: ``None`` is refused at parse time by one
#: ``ValueError`` naming ``path``; ``"runs"`` is ruled legal and runs.
MID_RUN_FAILURES = [
    ("poisson_pool", "arrivals.seed", -1, None),
    ("poisson_pool", "seed", -5, None),
    ("faulty_pool", "faults.seed", -1, None),
    ("poisson_pool", "replica_groups.0.pb_kb", 0, None),
    ("poisson_pool", "replica_groups.0.pb_kb", 1e308, None),
    ("poisson_pool", "replica_groups.0.cache_update_period", 2**70, None),
    ("poisson_pool", "num_queries", 2**70, None),
    ("poisson_pool", "replica_groups.0.candidate_set_size", 2**70, None),
    ("poisson_pool", "replica_groups.0.count", 2**70, None),
    ("faulty_pool", "faults.straggler_factor", float("inf"), None),
    ("autoscale_pool", "autoscaler.control_interval_ms", 1e-300, None),
    ("poisson_pool", "arrivals.rate_per_ms", float("inf"), None),
    ("poisson_pool", "replica_groups.0.cost_weight", float("inf"), None),
    ("autoscale_pool", "autoscaler.control_interval_ms", float("inf"), None),
    # A knob of a policy the autoscaler does not run is still checked.
    ("autoscale_pool", "autoscaler.target_utilization", 5.0, None),
    # The smallest PB a sushi replica serves from, and the control-interval
    # floor, are legal and run.
    ("poisson_pool", "replica_groups.0.pb_kb", MIN_SUSHI_PB_KB, "runs"),
    ("autoscale_pool", "autoscaler.control_interval_ms", 0.1, "runs"),
]


@pytest.mark.parametrize(
    ("name", "path", "value", "outcome"),
    MID_RUN_FAILURES,
    ids=[f"{name}:{path}={value!r}" for name, path, value, _ in MID_RUN_FAILURES],
)
def test_value_that_failed_mid_run_is_refused_at_parse_or_runs(name, path, value, outcome):
    base = committed(name)
    if outcome == "runs":
        spec = base.override_many([(path, value), ("num_queries", 100)])
        result = run_scenario(spec)
        assert result.num_served + result.num_dropped == 100
        return
    with pytest.raises(ValueError, match=f"at {path!r}: "):
        base.override(path, value)
    # The same value in a scenario file (json.loads reads Infinity too).
    text = json.dumps(with_value(base.to_dict(), path, value))
    with pytest.raises(ValueError, match=f"at {path!r}: "):
        ScenarioSpec.from_json(text)


# ----------------------------------------------------------- property-based
arrival_specs = st.one_of(
    st.builds(
        ArrivalSpec,
        kind=st.sampled_from(["poisson", "deterministic"]),
        rate_per_ms=st.floats(0.01, 10.0, allow_nan=False),
        seed=st.integers(0, 2**16),
    ),
    st.builds(
        ArrivalSpec,
        kind=st.just("time_varying"),
        # A valid cycle expects at least MIN_CYCLE_ARRIVALS arrivals.
        segments=st.lists(
            st.tuples(st.floats(0.5, 100.0), st.floats(0.01, 10.0)),
            min_size=1,
            max_size=4,
        )
        .filter(lambda segments: sum(d * r for d, r in segments) >= MIN_CYCLE_ARRIVALS)
        .map(tuple),
        seed=st.integers(0, 2**16),
    ),
)

replica_groups = st.builds(
    ReplicaGroupSpec,
    count=st.integers(1, 8),
    kind=st.sampled_from([k for k in BACKEND_KINDS if k != "static_subnet"]),
    platform=st.sampled_from(["analytic-default", "zcu104", "alveo-u50"]),
    pb_kb=st.one_of(st.none(), st.floats(MIN_SUSHI_PB_KB, 1024.0)),
    policy=st.one_of(st.none(), st.sampled_from(list(Policy))),
    cache_update_period=st.one_of(st.none(), st.integers(1, 16)),
    seed=st.one_of(st.none(), st.integers(0, 100)),
    discipline=st.sampled_from(["fifo", "edf", "priority_by_slack"]),
    cost_weight=st.floats(0.1, 8.0, allow_nan=False),
    startup_delay_ms=st.floats(0.0, 100.0, allow_nan=False),
    name=st.one_of(st.none(), st.text(min_size=1, max_size=8)),
)

autoscaler_specs = st.one_of(
    st.builds(
        AutoscalerSpec,
        policy=st.just("reactive"),
        control_interval_ms=st.floats(1.0, 100.0),
        window_ms=st.one_of(st.none(), st.floats(1.0, 200.0)),
        min_replicas=st.integers(1, 2),
        max_replicas=st.integers(2, 8),
        up_cooldown_ms=st.floats(0.0, 50.0),
        down_cooldown_ms=st.floats(0.0, 50.0),
        max_drop_rate=st.floats(0.0, 0.5),
        max_queue_per_replica=st.floats(0.5, 16.0),
        min_utilization=st.floats(0.0, 1.0),
        scale_up_step=st.integers(1, 3),
        scale_down_step=st.integers(1, 3),
    ),
    st.builds(
        AutoscalerSpec,
        policy=st.just("target_utilization"),
        control_interval_ms=st.floats(1.0, 100.0),
        target_utilization=st.floats(0.1, 1.0),
        deadband=st.floats(0.0, 0.3),
    ),
    st.builds(
        AutoscalerSpec,
        policy=st.just("predictive"),
        control_interval_ms=st.floats(1.0, 100.0),
        horizon_ms=st.one_of(st.none(), st.floats(0.0, 200.0)),
        target_utilization=st.floats(0.1, 1.0),
        deadband=st.floats(0.0, 0.3),
    ),
    st.builds(
        AutoscalerSpec,
        policy=st.just("tier_aware"),
        control_interval_ms=st.floats(1.0, 100.0),
        cost_budget=st.one_of(st.none(), st.floats(1.0, 64.0)),
        max_drop_rate=st.floats(0.0, 0.5),
        max_queue_per_replica=st.floats(0.5, 16.0),
        min_utilization=st.floats(0.0, 1.0),
    ),
    st.builds(
        AutoscalerSpec,
        policy=st.just("scheduled"),
        control_interval_ms=st.floats(1.0, 100.0),
        schedule=st.lists(
            st.tuples(st.floats(0.0, 100.0), st.integers(1, 6)),
            min_size=1,
            max_size=4,
            unique_by=lambda e: e[0],
        ).map(lambda entries: tuple(sorted(entries))),
    ),
)

scenario_specs = st.builds(
    ScenarioSpec,
    name=st.text(min_size=1, max_size=12),
    supernet_name=st.sampled_from(["ofa_resnet50", "ofa_mobilenetv3"]),
    policy=st.sampled_from(list(Policy)),
    cache_update_period=st.integers(1, 16),
    replica_groups=st.lists(replica_groups, min_size=1, max_size=3).map(
        # Non-None group names must be unique within a scenario; suffix
        # duplicates the strategy happens to draw.
        lambda groups: tuple(
            g
            if g.name is None
            else dataclasses.replace(g, name=f"{g.name}~{i}")
            for i, g in enumerate(groups)
        )
    ),
    router=st.sampled_from(["round_robin", "jsq", "least_loaded"]),
    admission=st.sampled_from(["admit_all", "drop_expired"]),
    workload=st.builds(
        WorkloadSpec,
        num_queries=st.integers(1, 500),
        accuracy_range=st.one_of(st.none(), st.just((0.7, 0.8))),
        latency_range_ms=st.one_of(st.none(), st.just((1.0, 20.0))),
        pattern=st.sampled_from(PATTERNS),
    ),
    arrivals=arrival_specs,
    autoscaler=st.one_of(st.none(), autoscaler_specs),
    num_queries=st.one_of(st.none(), st.integers(1, 500)),
    seed=st.integers(0, 2**16),
)


@settings(max_examples=60, deadline=None)
@given(spec=scenario_specs)
def test_property_scenario_roundtrip(spec):
    """Any valid ScenarioSpec survives a to_dict → JSON → from_dict cycle."""
    assert roundtrip(spec) == spec
