"""Build and run serving scenarios from declarative specs.

The imperative half of the declarative API: :mod:`repro.serving.spec`
describes a scenario as data; this module turns a :class:`ScenarioSpec` into
live objects — SuperNet families, SUSHI stacks (one clone per replica, each
with its own scheduler and Persistent Buffer), baseline servers, replicas
and the discrete-event engine — and runs it:

>>> from repro.serving import ArrivalSpec, ReplicaGroupSpec, ScenarioSpec
>>> from repro.serving.api import run_scenario
>>> spec = ScenarioSpec(
...     supernet_name="ofa_mobilenetv3",
...     replica_groups=(
...         ReplicaGroupSpec(count=2, pb_kb=1728.0),
...         ReplicaGroupSpec(count=2, pb_kb=432.0),   # heterogeneous pool
...     ),
...     router="jsq",
...     admission="drop_expired",
...     arrivals=ArrivalSpec(kind="poisson", rate_per_ms=0.5),
... )
>>> result = run_scenario(spec)                        # doctest: +SKIP

Guarantees:

* A homogeneous Poisson scenario is **record-identical** to the hand-wired
  path (one ``AcceleratorReplica`` per ``stack.clone(seed=seed + i)`` in a
  ``ServingEngine``, then ``run_open_loop(trace, ...)``): the same stack
  seeds, clone seeds, workload and arrival draws are used.
* Serve tables live in one process cache
  (:func:`~repro.serving.stack.process_table`): a SUSHI table (with its
  caching-decision memo) is built once per serve key (SuperNet, platform,
  ``|S|``), never per policy, seed or ``Q``, and a baseline table once per
  (SuperNet, platform, PB or not).  Every scenario, sweep cell, benchmark
  and CLI run in the process serves from them; replicas serve through
  their own stacks and servers, so the tables only ever gain memoized
  entries that are pure functions of their key.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable

from repro.serving.autoscale import AutoscaleController, ScaledGroup
from repro.serving.baselines import (
    FixedSubNetServer,
    NoSushiServer,
    StateUnawareCachingServer,
    baseline_table,
)
from repro.serving.engine import (
    AcceleratorReplica,
    FaultInjector,
    QueryServer,
    ServingEngine,
    SimulationResult,
)
from repro.serving.query import QueryTrace
from repro.serving.spec import ReplicaGroupSpec, ScenarioSpec
from repro.serving.stack import ServeTable, SushiStack, SushiStackConfig, sushi_table
from repro.serving.trace_io import TraceLog
from repro.serving.workload import (
    WorkloadGenerator,
    feasible_ranges_from_table,
)

__all__ = [
    "build_engine",
    "build_tables",
    "build_trace",
    "format_result_summary",
    "run_scenario",
    "serve_table",
]


def _stack_config(spec: ScenarioSpec, group: ReplicaGroupSpec) -> SushiStackConfig:
    return SushiStackConfig(
        supernet_name=spec.supernet_name,
        platform=group.resolved_platform(),
        policy=spec.group_policy(group),
        cache_update_period=spec.group_cache_update_period(group),
        candidate_set_size=group.candidate_set_size,
        seed=spec.group_seed(group),
    )


def _group_ranges(
    spec: ScenarioSpec, group: ReplicaGroupSpec
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Feasible (accuracy, latency) constraint ranges for one group."""
    if group.kind == "sushi":
        table = sushi_table(_stack_config(spec, group)).table
    else:
        platform = group.resolved_platform()
        table = baseline_table(spec.supernet_name, platform, with_pb=False).table
    return feasible_ranges_from_table(table)


def build_trace(spec: ScenarioSpec, *, log: TraceLog | None = None) -> QueryTrace:
    """The scenario's query trace, with deferred constraint ranges resolved.

    ``None`` ranges in the workload spec resolve to the feasible ranges of
    the scenario's *first* replica group (its latency table for SUSHI-like
    backends, static profiles otherwise), so generated constraints are
    always meaningful for the family being served.

    Trace-replay scenarios (``arrivals.kind == "trace"`` with a ``path``)
    may carry per-request constraint columns: a ``slo_ms`` column replaces
    the drawn latency constraints, an ``accuracy_floor`` column the drawn
    accuracy constraints, so query ``i`` serves exactly what request ``i``
    of the log demanded (see :mod:`repro.serving.trace_io`).  ``log`` is
    the spec's :meth:`~repro.serving.spec.ArrivalSpec.trace_log`, when the
    caller holds it already; ``None`` reads it.
    """
    workload = spec.workload
    if spec.num_queries is not None:
        workload = replace(workload, num_queries=spec.num_queries)
    if not workload.has_resolved_ranges:
        acc_range, lat_range = _group_ranges(spec, spec.replica_groups[0])
        workload = replace(
            workload,
            accuracy_range=workload.accuracy_range or acc_range,
            latency_range_ms=workload.latency_range_ms or lat_range,
        )
    if log is None:
        log = spec.arrivals.trace_log()
    return WorkloadGenerator(workload, seed=spec.seed).generate(
        name=spec.name,
        accuracy_override=None if log is None else log.accuracy_floor,
        latency_override=None if log is None else log.slo_ms,
    )


def serve_table(spec: ScenarioSpec, group: ReplicaGroupSpec) -> ServeTable:
    """What ``group``'s backends serve from: the process's SUSHI table of
    its serve key, or the baseline table (with a PB for the state-unaware
    rule)."""
    if group.kind == "sushi":
        return sushi_table(_stack_config(spec, group))
    return baseline_table(
        spec.supernet_name,
        group.resolved_platform(),
        with_pb=group.kind == "state_unaware",
    )


def build_tables(spec: ScenarioSpec) -> None:
    """Build every serve table ``spec`` reads, and no replica.

    The table half of :func:`build_engine`, plus the table
    :func:`build_trace` draws unresolved constraint ranges from, all into
    the process's one table cache.  A caller that builds them before
    forking hands every worker the tables copy-on-write, so no worker
    builds one.
    """
    if not spec.workload.has_resolved_ranges:
        _group_ranges(spec, spec.replica_groups[0])
    for group in spec.replica_groups:
        serve_table(spec, group)


def _server_builder(
    spec: ScenarioSpec, group: ReplicaGroupSpec
) -> Callable[[int], QueryServer]:
    """A factory producing one group's backends, by engine-global position."""
    if group.kind == "sushi":
        base = SushiStack(_stack_config(spec, group))
        seed = base.config.seed
        # The builder receives the engine-global replica position, so two
        # groups sharing a stack config still get decorrelated clones (a
        # single group gets the stack seed + 0..N-1).
        return lambda position: base.clone(seed=seed + position)

    tables = serve_table(spec, group)
    policy = spec.group_policy(group)
    if group.kind == "no_sushi":
        return lambda position: NoSushiServer(tables, policy=policy)

    if group.kind == "state_unaware":
        period = spec.group_cache_update_period(group)
        return lambda position: StateUnawareCachingServer(
            tables, policy=policy, cache_update_period=period
        )

    if group.kind == "static_subnet":
        return lambda position: FixedSubNetServer(tables, subnet_name=group.subnet_name)

    raise ValueError(f"unknown backend kind {group.kind!r}")  # pragma: no cover


def _replica_builder(
    spec: ScenarioSpec, group: ReplicaGroupSpec
) -> Callable[..., AcceleratorReplica]:
    """``make(position, ordinal=None)``: one replica of ``group``.

    ``position`` is the engine-global replica index (SUSHI groups clone one
    stack — cold PB, shared table — seeded by it).  Build-time replicas are
    named ``{group}-{ordinal}`` by their ordinal within the group; a
    scale-up passes no ordinal and is named ``{group}-{position}``.
    """
    make_server = _server_builder(spec, group)

    def make(position: int, ordinal: int | None = None) -> AcceleratorReplica:
        suffix = position if ordinal is None else ordinal
        return AcceleratorReplica(
            make_server(position),
            discipline=group.discipline,
            name=f"{group.name}-{suffix}" if group.name else None,
            max_batch=group.batching.max_batch,
            batch_policy=group.batching.policy,
            cost_weight=group.cost_weight,
        )

    return make


def build_engine(spec: ScenarioSpec, *, stack_cache: object = None) -> ServingEngine:
    """Construct the serving engine a :class:`ScenarioSpec` describes.

    Walks the replica groups in order, builds each group's backend per
    replica (SUSHI groups clone one stack, seeded stack seed + global
    replica position), and lets the engine assign global replica indices.
    Every backend serves from the process's serve tables.
    """
    # Ignored: benchmarks/e2e/worker.py passes it until the next benchmark change (ROADMAP item 1).
    scaled = spec.scaled_groups() if spec.autoscaler is not None else ()
    scaled_groups: list[ScaledGroup] = []
    replicas: list[AcceleratorReplica] = []
    for group in spec.replica_groups:
        make = _replica_builder(spec, group)
        if any(g is group for g in scaled):
            scaled_groups.append(
                ScaledGroup(
                    name=group.name,
                    replica_factory=make,
                    positions=tuple(range(len(replicas), len(replicas) + group.count)),
                    cost_weight=group.cost_weight,
                    startup_delay_ms=group.startup_delay_ms,
                )
            )
        for j in range(group.count):
            replicas.append(make(len(replicas), j))
    autoscaler = None
    if spec.autoscaler is not None:
        autoscaler = AutoscaleController(spec.autoscaler, scaled_groups)
    engine = ServingEngine(
        replicas,
        router=spec.router,
        admission=spec.admission,
        autoscaler=autoscaler,
        group_names=[g.name for g in spec.replica_groups for _ in range(g.count)],
    )
    if spec.observability is not None:
        if spec.observability.trace:
            from repro.serving.obs import TraceRecorder

            engine.recorder = TraceRecorder()
        if autoscaler is not None:
            autoscaler.keep_metrics = spec.observability.keep_metrics
    if spec.faults is not None:
        engine.faults = FaultInjector(spec.faults)
    return engine


def run_scenario(spec: ScenarioSpec, *, stack_cache: object = None) -> SimulationResult:
    """Run a scenario end to end: trace + arrivals + engine → result.

    The single entry point behind the CLI (``python -m repro serve``), the
    sweep grid runner (``repro sweep`` and the serving experiments) and the
    examples.  For a homogeneous Poisson
    scenario this is record-identical to a hand-wired engine over stack
    clones (see the module docstring).
    """
    # Ignored: benchmarks/e2e/worker.py passes it until the next benchmark change (ROADMAP item 1).
    return _run_with_log(spec, spec.arrivals.trace_log())


def _run_with_log(spec: ScenarioSpec, log: TraceLog | None) -> SimulationResult:
    """:func:`run_scenario` on the spec's request log ``log``, read already:
    the trace, arrivals and nominal rate all read this one copy."""
    trace = build_trace(spec, log=log)
    engine = build_engine(spec)
    arrivals = spec.arrivals.generate(len(trace), log=log)
    return engine.run(
        trace,
        arrivals,
        arrival_rate_per_ms=spec.arrivals.nominal_rate_per_ms(log=log),
    )


def format_result_summary(spec: ScenarioSpec, result: SimulationResult) -> str:
    """Human-readable summary of one scenario run (used by the CLI)."""
    from repro.analysis.reporting import format_table

    rows: dict[str, dict[str, object]] = {
        "scenario": {
            "replicas": sum(g.count for g in spec.replica_groups),
            "offered": result.num_offered,
            "served": result.num_served,
            "dropped": result.num_dropped,
            "rho": result.offered_load,
            "SLO attainment": result.slo_attainment,
            "drop rate": result.drop_rate,
            "mean response (ms)": result.mean_response_ms,
            "p99 response (ms)": result.p99_response_ms,
            "throughput (/ms)": result.achieved_throughput_per_ms,
            "goodput (/ms)": result.goodput_per_ms,
            "mean accuracy (%)": 100.0 * result.mean_accuracy,
            "replica-seconds": result.replica_seconds,
        }
    }
    if any(g.batching.max_batch > 1 for g in spec.replica_groups):
        rows["scenario"]["mean batch occupancy"] = result.mean_batch_occupancy
    if any(g.cost_weight != 1.0 for g in spec.replica_groups):
        rows["scenario"]["weighted replica-seconds"] = (
            result.weighted_replica_seconds
        )
    if result.autoscale is not None:
        rows["autoscaler"] = {
            "policy": result.autoscale.policy,
            "controls": result.autoscale.num_controls,
            "scale-ups": result.autoscale.num_scale_ups,
            "scale-downs": result.autoscale.num_scale_downs,
            "peak replicas": result.autoscale.peak_replicas,
            "mean replicas": result.mean_active_replicas,
        }
        if result.autoscale.cost_budget is not None:
            rows["autoscaler"]["cost budget"] = result.autoscale.cost_budget
    if spec.faults is not None:
        fault_row: dict[str, object] = {"crashes": result.num_crashes}
        for reason, count in sorted(result.drop_reasons.items()):
            fault_row[f"dropped ({reason})"] = count
        rows["faults"] = fault_row
    makespan = result.makespan_ms
    for stats in result.replica_stats:
        # Utilization over the replica's own provisioned time, not the
        # whole run: a scale-up replica alive for a tenth of the run at
        # full tilt is 1.0, not 0.1.
        rows[stats.name] = {
            "served": stats.num_served,
            "dropped": stats.num_dropped,
            "mean queueing (ms)": stats.mean_queueing_ms,
            "utilization": stats.utilization(
                stats.active_ms if stats.active_ms > 0 else makespan
            ),
        }
    return format_table(
        rows,
        title=(
            f"Scenario {spec.name!r} — {spec.supernet_name}, "
            f"{spec.router}/{spec.admission}, arrivals={spec.arrivals.kind}"
            + ("" if spec.autoscaler is None else ", autoscaled")
        ),
        precision=3,
    )
