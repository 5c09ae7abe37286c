"""Tests for fault injection and self-healing (``docs/robustness.md``).

Covers the :class:`FaultInjector` unit semantics (seeded replay, retry
backoff, the brownout ladder; every rejected value is tested against
``FaultSpec``/``RetryPolicy``, the one place that validates it), the engine-level fault plane
(crash loss + retries, stragglers, transient dispatch failures, shedding
with a dead pool, the scale-down/crash race), the declarative
``FaultSpec`` wiring and round-trip, the self-healing scenario checked in
at ``examples/scenarios/faulty_pool.json``, the fault view of the trace
summaries and ``tools/validate_trace.py``, and the
``resilience_frontier`` experiment's acceptance bar.  The bit-identity of
``faults: null`` lives in ``tests/properties/test_property_faults.py``.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from engine_oracle import EventHeap
from fakes import ConstantServer
from numpy.random import default_rng

from repro.analysis.reporting import jsonable
from repro.core.policies import Policy
from repro.experiments import resilience_frontier
from repro.experiments.registry import EXPERIMENTS
from repro.serving import (
    ArrivalSpec,
    AutoscalerSpec,
    FaultSpec,
    ReplicaGroupSpec,
    RetryPolicy,
    ScenarioSpec,
    WorkloadSpec,
    run_scenario,
    scenario_schema,
)
from repro.serving.api import build_engine, build_trace
from repro.serving.engine import (
    AcceleratorReplica,
    FaultInjector,
    ServingEngine,
)
from repro.serving.engine.events import ArrayEventQueue
from repro.serving.obs import (
    TraceRecorder,
    chrome_trace,
    summarize_chrome_trace,
)
from repro.serving.query import QueryTrace

REPO_ROOT = Path(__file__).resolve().parents[2]
VALIDATOR = REPO_ROOT / "tools" / "validate_trace.py"
FAULTY_SCENARIO = REPO_ROOT / "examples" / "scenarios" / "faulty_pool.json"


def make_trace(n, *, latency_ms=50.0):
    return QueryTrace([0.77] * n, [latency_ms] * n)


def make_engine(num_replicas, *, service_ms=1.0, admission="admit_all", **fault_kwargs):
    engine = ServingEngine(
        [AcceleratorReplica(ConstantServer(service_ms)) for _ in range(num_replicas)],
        admission=admission,
    )
    if fault_kwargs:
        engine.faults = FaultInjector(FaultSpec(**fault_kwargs))
    return engine


class TestFaultInjectorUnit:
    def test_reset_replays_identical_fault_schedule(self):
        fi = FaultInjector(
            FaultSpec(
                seed=7,
                crash_mtbf_ms=30.0,
                straggler_mtbf_ms=20.0,
                straggler_duration_ms=5.0,
                straggler_factor=2.0,
            )
        )
        fi.horizon_ms = 100.0

        def sample():
            events = []
            for index in range(3):
                fi.schedule_replica(index, 0.0, lambda *event: events.append(event))
            return events

        first = sample()
        fi.reset()
        fi.horizon_ms = 100.0
        assert sample() == first

    def test_horizon_gates_crash_but_consumes_the_draw(self):
        # Replica 0's crash draw lands past a zero horizon and must not be
        # scheduled — but the draw is still consumed, so replica 1 crashes
        # at the same time as in an ungated injector.
        gated = FaultInjector(FaultSpec(seed=3, crash_mtbf_ms=50.0))
        open_ = FaultInjector(FaultSpec(seed=3, crash_mtbf_ms=50.0))
        open_.horizon_ms = float("inf")
        reference = []
        open_.schedule_replica(0, 0.0, lambda *event: reference.append(event))
        open_.schedule_replica(1, 0.0, lambda *event: reference.append(event))

        gated.horizon_ms = 0.0
        none = []
        gated.schedule_replica(0, 0.0, lambda *event: none.append(event))
        assert none == []
        gated.horizon_ms = float("inf")
        second = []
        gated.schedule_replica(1, 0.0, lambda *event: second.append(event))
        assert second[0][0] == reference[1][0]  # the crash times agree

    def test_retry_backoff_grows_then_exhausts(self):
        fi = FaultInjector(
            FaultSpec(
                retry=RetryPolicy(
                    max_attempts=3, backoff_base_ms=2.0, backoff_multiplier=3.0
                )
            )
        )
        item = _queued(0, arrival=0.0, deadline_ms=1000.0)
        assert fi.next_retry_ms(item, 10.0) == pytest.approx(12.0)  # base
        assert fi.next_retry_ms(item, 20.0) == pytest.approx(26.0)  # base*mult
        assert fi.next_retry_ms(item, 30.0) is None  # attempts exhausted
        assert fi.num_retries == 2

    def test_retry_refused_past_the_deadline(self):
        fi = FaultInjector(
            FaultSpec(retry=RetryPolicy(max_attempts=5, backoff_base_ms=4.0))
        )
        item = _queued(0, arrival=0.0, deadline_ms=10.0)
        assert fi.next_retry_ms(item, 8.0) is None  # 8 + 4 >= deadline

    def test_brownout_ladder_up_capped_and_back_down(self):
        fi = FaultInjector(
            FaultSpec(
                brownout_threshold=0.25,
                brownout_accuracy_step=0.02,
                brownout_max_steps=3,
            )
        )
        fi.update_brownout(0, 4)
        assert (fi.brownout_level, fi.accuracy_relax) == (0, 0.0)
        fi.update_brownout(1, 3)  # pressure 0.25 -> level 1
        assert fi.brownout_level == 1
        assert fi.accuracy_relax == pytest.approx(0.02)
        fi.update_brownout(4, 0)  # total loss -> capped at max_steps
        assert fi.brownout_level == 3
        assert fi.accuracy_relax == pytest.approx(0.06)
        fi.update_brownout(0, 4)  # replacements joined -> back to 0
        assert (fi.brownout_level, fi.accuracy_relax) == (0, 0.0)

    def test_group_coverage(self):
        assert FaultInjector(FaultSpec()).covers_group(None)
        assert FaultInjector(FaultSpec()).covers_group("pool")
        scoped = FaultInjector(FaultSpec(groups=("pool",)))
        assert scoped.covers_group("pool")
        assert not scoped.covers_group("other")
        assert not scoped.covers_group(None)


def _no_dispatch(replica, now):
    raise AssertionError("a straggle_end recovery must not dispatch")


def _queued(index, *, arrival, deadline_ms):
    from repro.serving.engine import QueuedQuery

    return QueuedQuery(index, 0.77, deadline_ms - arrival, arrival)


class TestEngineFaults:
    def test_sole_replica_crash_fails_and_sheds(self):
        # The crash time is the injector's first exponential draw — predict
        # it from the same seeded stream the injector uses.
        seed, mtbf = 0, 20.0
        crash_ms = float(default_rng(seed).exponential(mtbf))
        n = 30
        arrivals = np.arange(n, dtype=float)
        assert crash_ms < arrivals[-1]
        engine = make_engine(
            1, seed=seed, crash_mtbf_ms=mtbf, retry=RetryPolicy(max_attempts=2)
        )
        result = engine.run(make_trace(n), arrivals)

        assert result.num_crashes == 1
        assert len(result.outcomes) + len(result.dropped) == n
        # Every served query completed before the crash; everything after
        # either exhausted its retries ("failed") or found no routable
        # replica on arrival ("shed").
        assert all(o.start_ms + o.service_ms <= crash_ms for o in result.outcomes)
        reasons = result.drop_reasons
        assert reasons.get("failed", 0) > 0
        assert reasons.get("shed", 0) > 0
        shed = [d for d in result.dropped if d.reason == "shed"]
        assert all(d.replica_index == -1 for d in shed)
        assert all(d.arrival_ms > crash_ms for d in shed)

    def test_crash_on_one_replica_retries_onto_the_survivor(self):
        seed, mtbf = 12, 20.0
        rng = default_rng(seed)
        crash0 = float(rng.exponential(mtbf))
        crash1 = float(rng.exponential(mtbf))
        n = 30
        arrivals = np.arange(n, dtype=float)
        assert crash0 < arrivals[-1] < crash1  # only replica 0 dies
        engine = make_engine(
            2,
            seed=seed,
            crash_mtbf_ms=mtbf,
            retry=RetryPolicy(max_attempts=3, backoff_base_ms=0.5),
        )
        result = engine.run(make_trace(n), arrivals)

        assert result.num_crashes == 1
        assert len(result.outcomes) + len(result.dropped) == n
        # The survivor absorbs the stream: with generous deadlines and a
        # retry budget, everything lost in the crash is re-served.
        assert result.drop_reasons.get("shed", 0) == 0
        assert engine.faults.num_retries >= 0
        survivors = {o.replica_index for o in result.outcomes if o.arrival_ms > crash0}
        assert survivors == {1}

    def test_straggler_inflates_latency_and_is_recorded(self):
        seed, mtbf = 2, 10.0
        n = 40
        arrivals = np.arange(n, dtype=float) * 0.5
        kwargs = dict(
            seed=seed,
            straggler_mtbf_ms=mtbf,
            straggler_duration_ms=8.0,
            straggler_factor=4.0,
        )
        healthy = make_engine(1, service_ms=0.4).run(make_trace(n), arrivals)
        engine = make_engine(1, service_ms=0.4, **kwargs)
        engine.recorder = TraceRecorder()
        slowed = engine.run(make_trace(n), arrivals)

        assert len(slowed.outcomes) == len(healthy.outcomes) == n
        assert slowed.num_crashes == 0
        # Straggle intervals scale the simulated service time, so the run
        # takes strictly longer end to end.
        assert slowed.duration_ms > healthy.duration_ms
        kinds = [f.kind for f in slowed.trace.faults]
        assert "straggle" in kinds and "straggle_end" in kinds
        onsets = [f for f in slowed.trace.faults if f.kind == "straggle"]
        assert all(f.detail == pytest.approx(4.0) for f in onsets)

    def test_dispatch_failures_retried_to_completion(self):
        n = 50
        arrivals = np.arange(n, dtype=float)
        engine = make_engine(
            1,
            service_ms=0.3,
            seed=9,
            dispatch_failure_prob=0.3,
            retry=RetryPolicy(max_attempts=6, backoff_base_ms=0.1),
        )
        engine.recorder = TraceRecorder()
        result = engine.run(make_trace(n), arrivals)

        assert engine.faults.num_dispatch_failures > 0
        assert engine.faults.num_retries > 0
        # Transient blips with a generous retry budget lose nothing.
        assert len(result.outcomes) == n
        assert not result.dropped
        recorded = [f for f in result.trace.faults if f.kind == "dispatch_failure"]
        assert len(recorded) == engine.faults.num_dispatch_failures

    def test_brownout_relaxes_the_accuracy_floor_after_a_crash(self):
        seed, mtbf = 12, 20.0
        crash_ms = float(default_rng(seed).exponential(mtbf))
        n = 40
        arrivals = np.arange(n, dtype=float) * 0.8
        assert crash_ms < arrivals[-1]
        step = 0.05
        engine = make_engine(
            2,
            service_ms=0.3,
            seed=seed,
            crash_mtbf_ms=mtbf,
            brownout_threshold=0.5,  # 1 failed / (1+1) hits it exactly
            brownout_accuracy_step=step,
        )
        result = engine.run(make_trace(n), arrivals)

        assert result.num_crashes == 1
        floors = [
            floor
            for replica in engine.replicas
            for floor in replica.server.accuracy_floors
        ]
        assert pytest.approx(0.77) in floors  # pre-crash: nominal floor
        assert min(floors) == pytest.approx(0.77 - step)  # degraded dispatches
        # Outcomes keep the query's nominal constraint — degradation is
        # visible to attainment metrics, not hidden by rewriting the query.
        assert all(
            o.record.accuracy_constraint <= 0.77 + 1e-12 for o in result.outcomes
        )

    def test_reset_with_pending_faults_replays_identically(self):
        n = 40
        arrivals = np.arange(n, dtype=float) * 0.7
        engine = make_engine(
            2,
            seed=11,
            crash_mtbf_ms=15.0,
            straggler_mtbf_ms=10.0,
            straggler_duration_ms=4.0,
            straggler_factor=3.0,
            dispatch_failure_prob=0.1,
            retry=RetryPolicy(max_attempts=3, backoff_base_ms=0.5),
        )
        first = engine.run(make_trace(n), arrivals)
        assert first.num_crashes > 0  # the replay is exercised under faults
        second = engine.run(make_trace(n), arrivals)  # reset=True default
        assert second.outcomes == first.outcomes
        assert second.dropped == first.dropped
        assert second.replica_stats == first.replica_stats
        assert second.duration_ms == first.duration_ms
        assert second.num_crashes == first.num_crashes

    def test_scale_down_racing_a_crash_is_a_deterministic_noop(self):
        # Whichever of retire and crash lands first wins; the loser must
        # no-op without touching counters, queues or the event heap.
        engine = make_engine(2, seed=0, crash_mtbf_ms=1000.0)
        engine.faults.horizon_ms = 0.0
        heap = EventHeap()
        dropped = []

        retired = engine.replicas[0]
        retired.retire(5.0)
        engine._handle_fault(6.0, ("crash", 0), heap, dropped)
        assert engine.faults.num_crashes == 0
        assert not dropped and len(heap) == 0

        # And the mirror race: fault events landing on an already-crashed
        # replica (straggle onset/end, duplicate crash) are inert too.
        crashed = engine.replicas[1]
        crashed.enqueue(_queued(0, arrival=0.0, deadline_ms=100.0))
        engine._handle_fault(7.0, ("crash", 1), heap, dropped)
        assert engine.faults.num_crashes == 1
        state = (crashed.stats.num_dropped, len(dropped), engine.faults.num_crashes)
        engine._handle_fault(8.0, ("crash", 1), heap, dropped)
        engine._handle_fault(8.0, ("straggle", 1, 4.0), heap, dropped)
        engine._handle_recovery(
            9.0, ("straggle_end", 1), heap, dropped, dispatch=_no_dispatch
        )
        assert crashed.straggle_factor == 1.0
        assert (
            crashed.stats.num_dropped,
            len(dropped),
            engine.faults.num_crashes,
        ) == state


class TestFaultSpec:
    def full_spec(self) -> ScenarioSpec:
        return ScenarioSpec(
            name="faulty",
            supernet_name="ofa_mobilenetv3",
            policy=Policy.STRICT_LATENCY,
            replica_groups=(ReplicaGroupSpec(count=2, name="pool"),),
            workload=WorkloadSpec(num_queries=20),
            arrivals=ArrivalSpec(kind="poisson", rate_per_ms=0.5),
            faults=FaultSpec(
                seed=4,
                crash_mtbf_ms=100.0,
                straggler_mtbf_ms=50.0,
                straggler_duration_ms=5.0,
                straggler_factor=2.0,
                dispatch_failure_prob=0.05,
                retry=RetryPolicy(max_attempts=4, backoff_base_ms=0.5),
                brownout_threshold=0.5,
                brownout_accuracy_step=0.02,
                brownout_max_steps=2,
                groups=("pool",),
            ),
        )

    def test_roundtrip_exact(self):
        spec = self.full_spec()
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_faults_default_to_null(self):
        spec = ScenarioSpec(
            replica_groups=(ReplicaGroupSpec(),),
            workload=WorkloadSpec(num_queries=5),
            arrivals=ArrivalSpec(kind="poisson", rate_per_ms=0.5),
        )
        assert spec.faults is None
        assert spec.to_dict()["faults"] is None
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_retry_null_means_default_policy(self):
        payload = self.full_spec().to_dict()
        payload["faults"]["retry"] = None
        assert ScenarioSpec.from_dict(payload).faults.retry == RetryPolicy()

    def test_mapping_coerced_in_constructor(self):
        spec = FaultSpec(retry={"max_attempts": 2})
        assert spec.retry == RetryPolicy(max_attempts=2)

    def test_unknown_fault_group_rejected(self):
        with pytest.raises(ValueError, match="names no replica group"):
            dataclasses.replace(
                self.full_spec(),
                faults=FaultSpec(crash_mtbf_ms=10.0, groups=("nope",)),
            )

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(crash_mtbf_ms=0.0),
            dict(crash_mtbf_ms=-1.0),
            dict(crash_mtbf_ms=-5.0),
            dict(straggler_mtbf_ms=0.0, straggler_duration_ms=2.0),
            dict(straggler_mtbf_ms=5.0),  # stragglers without a duration
            dict(straggler_mtbf_ms=10.0, straggler_duration_ms=2.0, straggler_factor=0.5),
            dict(dispatch_failure_prob=1.0),
            dict(dispatch_failure_prob=-0.1),
            dict(brownout_threshold=0.0),
            dict(brownout_threshold=1.5),
            dict(brownout_threshold=2.0),
            dict(brownout_threshold=0.5, brownout_accuracy_step=0.0),
            dict(brownout_threshold=0.5, brownout_max_steps=0),
            dict(retry=RetryPolicy(max_attempts=1), groups=("a", "a")),
        ],
    )
    def test_invalid_fault_spec_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FaultSpec(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(max_attempts=0),
            dict(backoff_base_ms=0.0),
            dict(backoff_multiplier=0.5),
            dict(backoff_multiplier=0.9),
        ],
    )
    def test_invalid_retry_policy_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_schema_exposes_faults_and_retry(self):
        schema = scenario_schema()
        assert schema["defaults"]["faults"] == FaultSpec().to_dict()
        assert schema["defaults"]["retry"] == RetryPolicy().to_dict()


class TestFaultyPoolScenario:
    """The checked-in self-healing scenario CI serves in cli-smoke."""

    @pytest.fixture(scope="class")
    def result(self):
        spec = ScenarioSpec.from_json(FAULTY_SCENARIO.read_text(encoding="utf-8"))
        return spec, run_scenario(spec)

    def test_self_healing_replaces_crashes(self, result):
        spec, res = result
        assert res.num_crashes > 0
        assert res.autoscale is not None and res.autoscale.num_scale_ups > 0
        # Replacement capacity keeps the pool serving: the overwhelming
        # majority of the stream still lands despite the crashes.
        offered = len(res.outcomes) + len(res.dropped)
        assert offered == spec.workload.num_queries
        assert len(res.outcomes) / offered > 0.9

    def test_fault_free_override_is_quiet(self, result):
        spec, _ = result
        quiet = run_scenario(dataclasses.replace(spec, faults=None))
        assert quiet.num_crashes == 0
        assert "failed" not in quiet.drop_reasons
        assert "shed" not in quiet.drop_reasons

    def test_event_heap_holds_one_straggle_per_live_replica(self, monkeypatch):
        # Straggles are pushed one at a time per live replica, and a dead
        # replica's rest are dropped: the heap stays about the size of the
        # live pool (pushing every sampled episode at creation peaked at
        # 274 entries on this draw).
        spec = ScenarioSpec.from_json(
            FAULTY_SCENARIO.read_text(encoding="utf-8")
        ).override("num_queries", 2000)
        engine = build_engine(spec)
        sizes: list[int] = []
        push = ArrayEventQueue.push

        def sized_push(queue, time_ms, kind, payload):
            sizes.append(len(queue._heap))
            push(queue, time_ms, kind, payload)

        monkeypatch.setattr(ArrayEventQueue, "push", sized_push)
        trace = build_trace(spec)
        result = engine.run(trace, spec.arrivals.generate(len(trace)))
        assert result.num_crashes > 0 and result.autoscale.num_scale_ups > 0
        assert max(sizes) <= 40
        assert sum(sizes) / len(sizes) <= 20
        assert not engine.faults._straggles

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "known defect (ROADMAP): a crash skips the replica's COMPLETION, "
            "so the telemetry bus never closes its open busy interval and "
            "utilization counts dead replicas as busy"
        ),
    )
    def test_crash_closes_the_replicas_busy_interval(self):
        spec = ScenarioSpec.from_json(
            FAULTY_SCENARIO.read_text(encoding="utf-8")
        ).override("num_queries", 2000)
        engine = build_engine(spec)
        bus = engine.autoscaler.bus
        snapshot = bus.snapshot
        dead_open: list[int] = []

        def checked_snapshot(now_ms, **kwargs):
            live = {r.index for r in engine.replicas if not r.is_retired}
            dead_open.append(sum(1 for i in bus._in_service_starts if i not in live))
            return snapshot(now_ms, **kwargs)

        bus.snapshot = checked_snapshot
        trace = build_trace(spec)
        result = engine.run(trace, spec.arrivals.generate(len(trace)))
        assert result.num_crashes > 0 and dead_open
        assert max(dead_open) == 0


class TestFaultObservability:
    @pytest.fixture(scope="class")
    def traced(self):
        n = 40
        arrivals = np.arange(n, dtype=float)
        engine = make_engine(
            2,
            seed=5,
            crash_mtbf_ms=20.0,
            straggler_mtbf_ms=15.0,
            straggler_duration_ms=4.0,
            straggler_factor=3.0,
            dispatch_failure_prob=0.1,
            retry=RetryPolicy(max_attempts=2, backoff_base_ms=0.5),
        )
        engine.recorder = TraceRecorder()
        result = engine.run(make_trace(n), arrivals)
        assert result.num_crashes > 0
        return result

    def test_summary_reports_drop_reasons_and_downtime(self, traced):
        trace = traced.trace
        text = summarize_chrome_trace(chrome_trace(trace))
        reasons = {s.drop_reason for s in trace.spans if s.status == "dropped"}
        assert "drops by reason: " in text
        assert all(f"{reason}=" in text for reason in reasons - {None})
        assert f"fault instants: {len(trace.faults)}\n" in text
        crashes = sum(1 for fault in trace.faults if fault.kind == "crash")
        assert text.count(" ms down)") == crashes > 0

    def test_chrome_trace_gains_a_fault_track(self, traced):
        payload = chrome_trace(traced.trace)
        instants = [
            e
            for e in payload["traceEvents"]
            if e.get("ph") == "i" and e.get("cat") == "fault"
        ]
        assert len(instants) == len(traced.trace.faults)
        tids = {e["tid"] for e in instants}
        assert len(tids) == 1  # one dedicated fault track
        names = {
            e["args"]["name"]
            for e in payload["traceEvents"]
            if e.get("ph") == "M" and e.get("name") == "thread_name"
        }
        assert "faults" in names
        summary = summarize_chrome_trace(payload)
        assert "fault instants:" in summary

    def test_validator_accepts_the_fault_trace(self, traced, tmp_path):
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(chrome_trace(traced.trace)), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, str(VALIDATOR), str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "fault instants" in proc.stdout

    def test_validator_rejects_incoherent_faults(self, traced, tmp_path):
        payload = chrome_trace(traced.trace)
        crash = next(
            e
            for e in payload["traceEvents"]
            if e.get("cat") == "fault" and e["name"].startswith("crash")
        )
        replica = crash["args"]["replica_index"]
        payload["traceEvents"].append(
            {
                "ph": "i",
                "s": "g",
                "cat": "fault",
                "name": f"straggle replica {replica}",
                "pid": 1,
                "tid": crash["tid"],
                "ts": crash["ts"] + 1.0,
                "args": {"replica_index": replica},
            }
        )
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, str(VALIDATOR), str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert "after its crash" in proc.stdout

    def test_validator_exits_2_on_missing_file(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, str(VALIDATOR), str(tmp_path / "nope.json")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2


class TestResilienceFrontier:
    def test_registered(self):
        assert "resilience_frontier" in EXPERIMENTS

    def test_trace_scenario_is_the_resilient_cell(self):
        spec = resilience_frontier.trace_scenario()
        assert spec.faults is not None
        assert spec.autoscaler is not None
        assert spec.autoscaler.min_replicas == spec.replica_groups[0].count

    def test_acceptance_bar_holds(self):
        # run() asserts the acceptance property itself: at the most
        # aggressive crash rate, resilient strictly beats oblivious on
        # goodput and attainment within the bounded cost premium.
        result = resilience_frontier.run(crash_mtbfs=(400.0,))
        oblivious, resilient = result.pair(400.0)
        assert oblivious.num_crashes > 0  # the baseline really got hurt
        assert resilient.scale_ups > 0  # and the healing really ran
        fault_free, _ = result.pair(None)
        assert fault_free.num_crashes == 0
        report = resilience_frontier.report(result)
        assert "Resilience frontier" in report
        json.dumps(jsonable(result))  # JSON-safe
