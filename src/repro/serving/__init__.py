"""SUSHI serving stack: query streams, the vertically integrated stack, baselines.

Ties the pieces together: a query stream annotated with (accuracy, latency)
constraints flows through SushiSched, which consults SushiAbs and drives the
SushiAccel model (with its Persistent Buffer), producing per-query serving
records.  Baselines reproduce the paper's comparison points: ``No-SUSHI``
(no PB, no scheduler) and ``SUSHI w/o scheduler`` (PB with state-unaware
caching).

The declarative layer on top (:mod:`repro.serving.spec` +
:mod:`repro.serving.api`) describes whole scenarios — heterogeneous replica
pools, routing/admission, workloads and arrival processes — as
JSON-serializable specs, and builds/runs them through one facade:
``run_scenario(ScenarioSpec(...))``.
"""

from repro.serving.query import Query, QueryTrace
from repro.serving.workload import WorkloadGenerator, WorkloadSpec
from repro.serving.stack import SushiStack, SushiStackConfig
from repro.serving.baselines import (
    FixedSubNetServer,
    NoSushiServer,
    StateUnawareCachingServer,
    baseline_table,
)
from repro.serving.engine import (
    AcceleratorReplica,
    ServingEngine,
    SimulationResult,
)
from repro.serving.autoscale import (
    AutoscaleController,
    AutoscaleReport,
    ScaledGroup,
    ScalingEvent,
    TelemetryBus,
)
from repro.serving.obs import RecordedTrace, TraceRecorder
from repro.serving.trace_io import (
    TraceFit,
    TraceLog,
    fit_piecewise_poisson,
    load_trace_log,
)
from repro.serving.spec import (
    ArrivalSpec,
    AutoscalerSpec,
    BatchingSpec,
    FaultSpec,
    ObservabilitySpec,
    ReplicaGroupSpec,
    RetryPolicy,
    ScenarioSpec,
    scenario_schema,
)
from repro.serving.api import (
    build_engine,
    build_trace,
    format_result_summary,
    run_scenario,
)

__all__ = [
    "Query",
    "QueryTrace",
    "WorkloadGenerator",
    "WorkloadSpec",
    "SushiStack",
    "SushiStackConfig",
    "FixedSubNetServer",
    "NoSushiServer",
    "StateUnawareCachingServer",
    "baseline_table",
    "AcceleratorReplica",
    "ServingEngine",
    "SimulationResult",
    "ArrivalSpec",
    "AutoscaleController",
    "AutoscaleReport",
    "AutoscalerSpec",
    "BatchingSpec",
    "FaultSpec",
    "ObservabilitySpec",
    "RecordedTrace",
    "ReplicaGroupSpec",
    "RetryPolicy",
    "ScaledGroup",
    "ScalingEvent",
    "ScenarioSpec",
    "TelemetryBus",
    "TraceFit",
    "TraceLog",
    "TraceRecorder",
    "build_engine",
    "build_trace",
    "fit_piecewise_poisson",
    "format_result_summary",
    "load_trace_log",
    "run_scenario",
    "scenario_schema",
]
