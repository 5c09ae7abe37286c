"""Property-based tests of the fault plane (``serving/engine/faults``).

Families of properties, over hypothesis-generated workloads:

* **The ``faults: null`` rung** — an engine with no injector, and an
  engine with an *inert* injector (all processes disabled — the runtime
  image of ``FaultSpec()``'s defaults), must both be bit-identical to the
  pre-fault engine: same outcomes, drops, replica stats and duration on
  the engine's event loop and the reference loop
  (``engine_oracle.reference_run``).  Equality is structural equality of
  frozen dataclasses over raw floats, so a 1-ulp divergence fails.

* **Loop identity under live faults** — with crashes, stragglers and
  transient dispatch failures actually firing, the engine's loop (its
  single-query dispatch and direct serve included) must still match the
  reference loop bit for bit.

* **Determinism** — a faulty engine re-run after ``reset()`` (including
  pending fault events, retries in flight at the end of the first run,
  and the injector's RNG position) replays identical records; recording
  the run changes nothing.

* **Lazy straggles ≡ eager straggles** — the injector pushes one straggle
  event per live replica at a time; ``tests/fault_oracle.py`` pushes a
  replica's whole straggle schedule at its creation, as the fault plane
  once did.  On small autoscaled faulty pools both give the same
  outcomes, drops, autoscale report (``num_controls`` included), recorded
  fault events and summary metrics, run after run on one engine.

* **Bulk draws ≡ scalar draws** — the injector draws a birth's straggle
  schedule in one block and dispatch-failure uniforms in blocks of 256;
  driven directly through any interleaving of births, dispatch draws and
  resets, it and the oracle's one-draw-at-a-time sampling push the same
  events, return the same draws and leave the same generator state.
"""

from __future__ import annotations

from unittest.mock import patch

import numpy as np
from engine_oracle import reference_run
from fault_oracle import EagerFaultInjector
from hypothesis import given, settings, strategies as st

from repro.serving.autoscale import AutoscaleController, ScaledGroup
from repro.serving.engine import AcceleratorReplica, FaultInjector, ServingEngine
from repro.serving.engine import faults as faults_module
from repro.serving.obs import TraceRecorder
from repro.serving.query import QueryTrace
from repro.serving.spec import AutoscalerSpec, FaultSpec, RetryPolicy


class IndexedServer:
    """Synthetic backend whose service time is fixed per query index."""

    def __init__(self, services_ms):
        self.services_ms = list(services_ms)

    def serve_query(self, query, budget_ms, accuracy_floor):
        return ("synthetic", 0.78, self.services_ms[query.index], 0.0, 0.0, 0.0)


positive = st.floats(min_value=0.01, max_value=20.0, allow_nan=False)

workload = st.integers(min_value=2, max_value=25).flatmap(
    lambda n: st.tuples(
        st.lists(positive, min_size=n, max_size=n),  # arrival gaps
        st.lists(positive, min_size=n, max_size=n),  # service times
        st.lists(positive, min_size=n, max_size=n),  # latency constraints
    )
)

disciplines = st.sampled_from(["fifo", "edf", "priority_by_slack"])
routers = st.sampled_from(["round_robin", "jsq", "least_loaded"])
admissions = st.sampled_from(["admit_all", "drop_expired"])

#: Live fault processes aggressive enough to fire inside the short
#: hypothesis workloads (scales are in the same ms units as the gaps).
fault_params = st.builds(
    FaultSpec,
    seed=st.integers(min_value=0, max_value=15),
    crash_mtbf_ms=st.floats(min_value=5.0, max_value=60.0),
    straggler_mtbf_ms=st.floats(min_value=5.0, max_value=60.0),
    straggler_duration_ms=st.floats(min_value=0.5, max_value=10.0),
    straggler_factor=st.floats(min_value=1.0, max_value=5.0),
    dispatch_failure_prob=st.floats(min_value=0.0, max_value=0.4),
    retry=st.builds(
        RetryPolicy,
        max_attempts=st.integers(min_value=1, max_value=4),
        backoff_base_ms=st.floats(min_value=0.1, max_value=2.0),
    ),
    brownout_threshold=st.one_of(st.none(), st.floats(min_value=0.2, max_value=1.0)),
    brownout_accuracy_step=st.floats(min_value=0.01, max_value=0.2),
)


def build_engine(
    wl, *, num_replicas, discipline, router, admission, faults=None, max_batch=1
):
    gaps, services, constraints = wl
    engine = ServingEngine(
        [
            AcceleratorReplica(
                IndexedServer(services), discipline=discipline, max_batch=max_batch
            )
            for _ in range(num_replicas)
        ],
        router=router,
        admission=admission,
    )
    engine.faults = faults
    return engine


def run_one(wl, *, faults=None, recorder=False, **engine_kwargs):
    gaps, services, constraints = wl
    trace = QueryTrace([0.77] * len(gaps), list(constraints))
    arrivals = np.cumsum(gaps)
    engine = build_engine(wl, faults=faults, **engine_kwargs)
    if recorder:
        engine.recorder = TraceRecorder()
    return engine, engine.run(trace, arrivals)


def assert_identical(result, reference):
    assert result.outcomes == reference.outcomes
    assert result.dropped == reference.dropped
    assert result.replica_stats == reference.replica_stats
    assert result.duration_ms == reference.duration_ms


class TestFaultsNullRung:
    @given(workload, disciplines, routers, admissions, st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_inert_injector_is_bit_identical_reference_and_fast(
        self, wl, discipline, router, admission, num_replicas
    ):
        """FaultSpec()'s defaults must cost nothing and change nothing.

        The inert injector forces the fault-aware code paths (every fault
        hook live, the routable-pool scan instead of the static pool)
        whose every hook must degenerate to the pre-fault behavior.
        """
        kwargs = dict(
            num_replicas=num_replicas,
            discipline=discipline,
            router=router,
            admission=admission,
        )
        gaps, services, constraints = wl
        trace = QueryTrace([0.77] * len(gaps), list(constraints))
        arrivals = np.cumsum(gaps)

        plain = build_engine(wl, **kwargs).run(trace, arrivals)
        for run in (ServingEngine.run, reference_run):
            inert = build_engine(wl, faults=FaultInjector(FaultSpec()), **kwargs)
            assert_identical(run(inert, trace, arrivals), plain)
            assert inert.faults.num_crashes == 0
            assert inert.faults.num_dispatch_failures == 0

    @given(workload, disciplines, routers, admissions, st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_no_injector_identical_across_all_three_paths(
        self, wl, discipline, router, admission, num_replicas
    ):
        """With ``faults=None`` the engine's loop matches the reference loop.

        Guards the static-pool hoists: with no injector every fault hook
        is one dead ``is not None`` check and the pool is never scanned.
        """
        kwargs = dict(
            num_replicas=num_replicas,
            discipline=discipline,
            router=router,
            admission=admission,
        )
        gaps, services, constraints = wl
        trace = QueryTrace([0.77] * len(gaps), list(constraints))
        arrivals = np.cumsum(gaps)

        reference = reference_run(build_engine(wl, **kwargs), trace, arrivals)
        assert_identical(build_engine(wl, **kwargs).run(trace, arrivals), reference)


class TestLiveFaultIdentityAndDeterminism:
    @given(
        workload,
        fault_params,
        disciplines,
        routers,
        admissions,
        st.integers(1, 3),
        st.sampled_from([1, 3]),
    )
    @settings(max_examples=60, deadline=None)
    def test_fast_path_identical_under_live_faults(
        self, wl, params, discipline, router, admission, num_replicas, max_batch
    ):
        kwargs = dict(
            num_replicas=num_replicas,
            discipline=discipline,
            router=router,
            admission=admission,
            max_batch=max_batch,
        )
        gaps, services, constraints = wl
        trace = QueryTrace([0.77] * len(gaps), list(constraints))
        arrivals = np.cumsum(gaps)

        reference = reference_run(
            build_engine(wl, faults=FaultInjector(params), **kwargs), trace, arrivals
        )
        fast = build_engine(wl, faults=FaultInjector(params), **kwargs).run(
            trace, arrivals
        )
        assert_identical(fast, reference)
        assert fast.num_crashes == reference.num_crashes
        assert fast.drop_reasons == reference.drop_reasons

    @given(
        st.integers(min_value=10, max_value=40).flatmap(
            lambda n: st.tuples(
                st.lists(positive, min_size=n, max_size=n),
                st.lists(positive, min_size=n, max_size=n),
                st.lists(positive, min_size=n, max_size=n),
            )
        ),
        st.integers(min_value=0, max_value=15),
        st.floats(min_value=5.0, max_value=40.0),
        st.floats(min_value=0.2, max_value=0.5),
        routers,
        st.sampled_from([1, 3]),
    )
    @settings(max_examples=40, deadline=None)
    def test_brownout_identical_under_crashes(
        self, wl, seed, crash_mtbf_ms, threshold, router, max_batch
    ):
        """Crashes in a 3-replica pool step the brownout ladder, so later
        dispatches relax accuracy floors: both loops must relax alike."""
        kwargs = dict(
            num_replicas=3,
            discipline="fifo",
            router=router,
            admission="admit_all",
            max_batch=max_batch,
        )
        gaps, services, constraints = wl
        trace = QueryTrace([0.77] * len(gaps), list(constraints))
        arrivals = np.cumsum(gaps)

        def injector():
            return FaultInjector(
                FaultSpec(
                    seed=seed,
                    crash_mtbf_ms=crash_mtbf_ms,
                    brownout_threshold=threshold,
                    brownout_accuracy_step=0.1,
                )
            )

        reference = reference_run(
            build_engine(wl, faults=injector(), **kwargs), trace, arrivals
        )
        fast = build_engine(wl, faults=injector(), **kwargs).run(trace, arrivals)
        assert_identical(fast, reference)

    @given(workload, fault_params, disciplines, routers, admissions, st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_reset_replays_faulty_runs_identically(
        self, wl, params, discipline, router, admission, num_replicas
    ):
        engine, first = run_one(
            wl,
            faults=FaultInjector(params),
            num_replicas=num_replicas,
            discipline=discipline,
            router=router,
            admission=admission,
        )
        gaps, services, constraints = wl
        trace = QueryTrace([0.77] * len(gaps), list(constraints))
        second = engine.run(trace, np.cumsum(gaps))  # reset=True default
        assert_identical(second, first)
        assert second.num_crashes == first.num_crashes

    @given(workload, fault_params, disciplines, routers, admissions, st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_recording_changes_nothing_under_faults(
        self, wl, params, discipline, router, admission, num_replicas
    ):
        kwargs = dict(
            num_replicas=num_replicas,
            discipline=discipline,
            router=router,
            admission=admission,
        )
        _, plain = run_one(wl, faults=FaultInjector(params), **kwargs)
        engine, observed = run_one(
            wl, faults=FaultInjector(params), recorder=True, **kwargs
        )
        assert_identical(observed, plain)
        # Every injected fault the run saw is on the trace, every fault
        # kind recorded is a real one.
        trace = observed.trace
        assert trace is not None
        crashes = [f for f in trace.faults if f.kind == "crash"]
        assert len(crashes) == observed.num_crashes
        assert {f.kind for f in trace.faults} <= {
            "crash",
            "straggle",
            "straggle_end",
            "dispatch_failure",
        }


#: Fault specs for the lazy-vs-eager oracle: each process alone, both, and
#: zero-length straggles.  A straggle duration must be positive, so the
#: last uses a scale whose every draw rounds ``onset + duration`` back onto
#: the onset: each straggle ends at the very timestamp it began.
straggle_spec = st.fixed_dictionaries(
    {
        "straggler_mtbf_ms": st.floats(min_value=2.0, max_value=40.0),
        "straggler_duration_ms": st.floats(min_value=0.5, max_value=15.0),
        "straggler_factor": st.floats(min_value=1.0, max_value=4.0),
    }
)
crash_spec = st.fixed_dictionaries(
    {"crash_mtbf_ms": st.floats(min_value=5.0, max_value=80.0)}
)
fault_specs = st.one_of(
    crash_spec,
    straggle_spec,
    st.builds(lambda a, b: {**a, **b}, crash_spec, straggle_spec),
    st.builds(
        lambda a, b: {**a, **b, "straggler_duration_ms": 1e-300},
        crash_spec,
        straggle_spec,
    ),
)
common_faults = st.fixed_dictionaries(
    {
        "seed": st.integers(min_value=0, max_value=31),
        "dispatch_failure_prob": st.sampled_from([0.0, 0.1]),
        "retry": st.builds(RetryPolicy, max_attempts=st.integers(min_value=1, max_value=3)),
        "brownout_threshold": st.one_of(st.none(), st.just(0.3)),
    }
)


def autoscaled_faulty_engine(wl, injector, *, max_batch):
    gaps, services, constraints = wl

    def replica(position=None):
        return AcceleratorReplica(
            IndexedServer(services), discipline="edf", max_batch=max_batch
        )

    autoscaler = AutoscaleController(
        AutoscalerSpec(
            control_interval_ms=3.0,
            min_replicas=2,
            max_replicas=5,
            down_cooldown_ms=6.0,
        ),
        [ScaledGroup(None, replica, (0, 1), startup_delay_ms=2.0)],
    )
    engine = ServingEngine(
        [replica() for _ in range(2)],
        router="jsq",
        admission="drop_expired",
        autoscaler=autoscaler,
    )
    engine.faults = injector
    engine.recorder = TraceRecorder()
    return engine


def summary(result):
    return (
        result.slo_attainment,
        result.p99_response_ms,
        result.mean_accuracy,
        result.goodput_per_ms,
        result.replica_seconds,
        result.num_crashes,
        result.drop_reasons,
    )


class TestLazyStragglesMatchEager:
    @given(
        st.integers(min_value=5, max_value=60).flatmap(
            lambda n: st.tuples(
                st.lists(st.floats(min_value=0.01, max_value=4.0), min_size=n, max_size=n),
                st.lists(positive, min_size=n, max_size=n),
                st.lists(positive, min_size=n, max_size=n),
            )
        ),
        fault_specs,
        common_faults,
        st.sampled_from([1, 3]),
    )
    @settings(max_examples=80, deadline=None)
    def test_lazy_schedule_is_the_eager_one(self, wl, spec, common, max_batch):
        gaps, services, constraints = wl
        trace = QueryTrace([0.77] * len(gaps), list(constraints))
        arrivals = np.cumsum(gaps)
        params = FaultSpec(**common, **spec)
        lazy = autoscaled_faulty_engine(wl, FaultInjector(params), max_batch=max_batch)
        eager = autoscaled_faulty_engine(
            wl, EagerFaultInjector(params), max_batch=max_batch
        )
        want = eager.run(trace, arrivals)
        for _ in range(2):  # the second run replays after reset()
            got = lazy.run(trace, arrivals)
            assert_identical(got, want)
            assert got.autoscale == want.autoscale
            assert got.autoscale.num_controls == want.autoscale.num_controls
            assert got.trace.faults == want.trace.faults
            assert summary(got) == summary(want)
            # Every sampled straggle schedule was played out or dropped.
            assert not lazy.faults._straggles


#: One step of an injector-level script: a replica born at ``now_ms`` with
#: faults sampled up to ``horizon_ms``, a run of per-pickup dispatch draws
#: (long enough to cross uniform blocks), or a reset.
injector_step = st.one_of(
    st.tuples(
        st.just("birth"),
        st.floats(min_value=0.0, max_value=500.0),
        # Negative: a replacement born after the last arrival samples
        # nothing past its horizon.
        st.floats(min_value=-100.0, max_value=3000.0),
    ),
    st.tuples(st.just("draws"), st.integers(min_value=1, max_value=600)),
    st.tuples(st.just("reset")),
)
injector_spec = st.fixed_dictionaries(
    {
        "seed": st.integers(min_value=0, max_value=63),
        "crash_mtbf_ms": st.one_of(st.none(), st.floats(min_value=1.0, max_value=500.0)),
        "straggler_mtbf_ms": st.one_of(
            st.none(), st.floats(min_value=1.0, max_value=300.0)
        ),
        "straggler_duration_ms": st.one_of(
            st.floats(min_value=0.5, max_value=60.0), st.just(1e-300)
        ),
        "dispatch_failure_prob": st.one_of(
            st.just(0.0), st.floats(min_value=0.01, max_value=0.9)
        ),
    }
)


class TestBulkDrawsMatchScalarDraws:
    """The injector's bulk draws are the oracle's scalar draws.

    Driven directly, with any interleaving of replica births, dispatch
    draws and resets, the bulk-drawing injector and the scalar oracle push
    the same fault events (the lazy schedule played out in full), keep the
    same ``tail_ms``, return the same dispatch draws and leave their
    generators in the same state.  ``slack`` 1 starts every straggle block
    too short, so the block extension runs on nearly every birth.
    """

    @given(
        injector_spec,
        st.lists(injector_step, min_size=1, max_size=25),
        st.sampled_from([1, faults_module.STRAGGLE_SLACK]),
    )
    @settings(max_examples=150, deadline=None)
    def test_same_pushes_tails_draws_and_state(self, spec_kwargs, steps, slack):
        with patch.object(faults_module, "STRAGGLE_SLACK", slack):
            self.replay(FaultSpec(**spec_kwargs), steps)

    @staticmethod
    def replay(spec, steps):
        bulk, scalar = FaultInjector(spec), EagerFaultInjector(spec)
        tail = 0.0
        index = 0
        for step in steps:
            if step[0] == "birth":
                _, now_ms, ahead_ms = step
                bulk.horizon_ms = scalar.horizon_ms = now_ms + ahead_ms
                got, want = [], []
                bulk.schedule_replica(index, now_ms, lambda *event: got.append(event))
                while index in bulk._straggles:
                    bulk.straggle_began(index, lambda *event: got.append(event))
                    bulk.straggle_ended(index, lambda *event: got.append(event))
                scalar.schedule_replica(index, now_ms, lambda *event: want.append(event))
                assert got == want
                tail = max(
                    [tail] + [t for t, _, payload in want if payload[0] != "straggle"]
                )
                assert bulk.tail_ms == tail
                index += 1
            elif step[0] == "draws":
                (_, count) = step
                assert [bulk.dispatch_fails() for _ in range(count)] == [
                    scalar.dispatch_fails() for _ in range(count)
                ]
                assert bulk.num_dispatch_failures == scalar.num_dispatch_failures
            else:
                bulk.reset()
                scalar.reset()
                tail = 0.0
        bulk._settle_uniforms()
        assert bulk._rng.bit_generator.state == scalar._rng.bit_generator.state
