"""Resilience frontier (extension) — goodput under injected faults.

The robustness question the fault layer exists to answer: when replicas
crash, how much of the lost goodput can a self-healing configuration buy
back, and what does the insurance cost?  This experiment sweeps a crash
MTBF grid and, at every crash rate, runs two configurations over the same
workload, arrivals and fault draws:

* **oblivious** — a static pool with retries disabled
  (``max_attempts: 1``): every crash permanently shrinks the pool, every
  lost query fails immediately.  The fault-unaware baseline.
* **resilient** — the same pool under a reactive autoscaler whose
  ``min_replicas`` equals the pool size (crashed replicas are replaced
  through the provisioning lifecycle), with retries and brownout
  degradation enabled.

The run checks the acceptance property: at the most aggressive nonzero
crash rate the resilient configuration achieves strictly higher goodput
*and* SLO attainment than the oblivious one, while spending at most
``cost_bound`` times the *fault-free* pool's replica-seconds — the
self-healing premium is bounded, not a blank check.  (The fault-free static pool anchors the cost comparison because
the oblivious pool's cost shrinks as crashed replicas stop accruing —
beating a collapsing baseline on cost would be vacuous.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.analysis.reporting import format_table
from repro.core.policies import Policy
from repro.experiments.serving_pool import (
    LabelledPoints,
    fastest_service_ms,
    measured,
    pool_scenario,
)
from repro.serving.engine import SimulationResult
from repro.serving.spec import (
    ArrivalSpec,
    AutoscalerSpec,
    FaultSpec,
    RetryPolicy,
    ScenarioSpec,
)
from repro.serving.stack import SushiStackConfig
from repro.sweep import Grid


@dataclass(frozen=True)
class ResiliencePoint:
    """One (configuration, crash rate) cell of the sweep."""

    label: str
    kind: str
    """``oblivious`` or ``resilient``."""
    crash_mtbf_ms: float | None
    """Mean time between crashes per replica (None: fault-free cell)."""
    slo_attainment: float
    goodput_per_ms: float
    replica_seconds: float
    num_crashes: int
    drop_reasons: tuple[tuple[str, int], ...]
    """Dropped-query counts by reason, sorted by reason."""
    mean_replicas: float
    mean_accuracy: float
    scale_ups: int = 0


@dataclass(frozen=True)
class ResilienceResult(LabelledPoints):
    supernet_name: str
    policy: Policy
    num_queries: int
    pool_size: int
    cost_bound: float
    points: tuple[ResiliencePoint, ...]

    def pair(self, mtbf: float | None) -> tuple[ResiliencePoint, ResiliencePoint]:
        """The (oblivious, resilient) pair at one crash rate."""
        tag = "none" if mtbf is None else f"{mtbf:g}"
        return self.point(f"oblivious-{tag}"), self.point(f"resilient-{tag}")


def _faults(mtbf: float | None, *, resilient: bool, seed: int) -> dict | None:
    """The ``faults`` subtree of one cell (None: the fault-free cell)."""
    if mtbf is None:
        return None
    retry = (
        RetryPolicy(max_attempts=3, backoff_base_ms=1.0, backoff_multiplier=2.0)
        if resilient
        else RetryPolicy(max_attempts=1)
    )
    return FaultSpec(
        seed=seed,
        crash_mtbf_ms=mtbf,
        retry=retry,
        brownout_threshold=0.25 if resilient else None,
    ).to_dict()


def grid(
    supernet_name: str = "ofa_mobilenetv3",
    *,
    policy: Policy = Policy.STRICT_LATENCY,
    num_queries: int = 400,
    pool_size: int = 3,
    crash_mtbfs: tuple[float, ...] = (1500.0, 400.0),
    seed: int = 0,
) -> Grid:
    """Oblivious then self-healing, at each crash rate, over one trace.

    ``crash_mtbfs`` is ordered mild to aggressive; a fault-free cell
    (``None``) is always prepended so the frontier anchors at the no-fault
    goodput.  The two configurations differ in both the ``autoscaler`` and
    the ``faults`` subtree, so every cell is a one-cell sweep.
    """
    config = SushiStackConfig(supernet_name=supernet_name, policy=policy, seed=seed)
    unit_ms = fastest_service_ms(config)
    arrivals = ArrivalSpec(kind="poisson", rate_per_ms=0.6 / unit_ms, seed=seed)
    base = pool_scenario(
        "resilience",
        config,
        arrivals,
        num_queries,
        count=pool_size,
        startup_delay_ms=10.0 * unit_ms,
        name="pool",
    )
    # Self-healing is the min_replicas clamp: a crash drops the active
    # count below the floor and the controller provisions a replacement
    # through the cold-start lifecycle.
    control_interval = 5.0 * unit_ms
    healing = AutoscalerSpec(
        policy="reactive",
        control_interval_ms=control_interval,
        min_replicas=pool_size,
        max_replicas=pool_size + 3,
        down_cooldown_ms=4.0 * control_interval,
        group="pool",
    )
    return Grid(
        base,
        _label,
        *(
            {
                "autoscaler": [auto],
                "faults": [_faults(mtbf, resilient=auto is not None, seed=seed)],
            }
            for mtbf in (None, *crash_mtbfs)
            for auto in (None, healing.to_dict())
        ),
    )


def _label(spec: ScenarioSpec) -> str:
    kind = "oblivious" if spec.autoscaler is None else "resilient"
    tag = "none" if spec.faults is None else f"{spec.faults.crash_mtbf_ms:g}"
    return f"{kind}-{tag}"


def _measure(spec: ScenarioSpec, result: SimulationResult) -> ResiliencePoint:
    return measured(
        ResiliencePoint,
        result,
        label=_label(spec),
        kind="oblivious" if spec.autoscaler is None else "resilient",
        crash_mtbf_ms=None if spec.faults is None else spec.faults.crash_mtbf_ms,
        drop_reasons=tuple(sorted(result.drop_reasons.items())),
        scale_ups=0 if result.autoscale is None else result.autoscale.num_scale_ups,
    )


def run(
    supernet_name: str = "ofa_mobilenetv3",
    *,
    cost_bound: float = 1.5,
    **params: Any,
) -> ResilienceResult:
    """Run :func:`grid` (same parameters) and check the resilience bar.

    The bar, at the last (most aggressive) crash rate: resilient strictly
    beats oblivious on goodput and attainment while spending at most
    ``cost_bound`` times the fault-free static pool's replica-seconds.
    """
    cells = grid(supernet_name, **params)
    out = ResilienceResult(
        supernet_name=supernet_name,
        policy=cells.base.policy,
        num_queries=cells.base.workload.num_queries,
        pool_size=cells.base.replica_groups[0].count,
        cost_bound=cost_bound,
        points=tuple(point for _, point in cells.measure(_measure)),
    )
    oblivious, resilient = out.pair(out.points[-1].crash_mtbf_ms)
    fault_free, _ = out.pair(None)
    if resilient.goodput_per_ms <= oblivious.goodput_per_ms:
        raise RuntimeError(
            f"self-healing did not improve goodput: "
            f"{resilient.goodput_per_ms:.4f} <= {oblivious.goodput_per_ms:.4f}"
        )
    if resilient.slo_attainment <= oblivious.slo_attainment:
        raise RuntimeError(
            f"self-healing did not improve SLO attainment: "
            f"{resilient.slo_attainment:.4f} <= {oblivious.slo_attainment:.4f}"
        )
    if resilient.replica_seconds > cost_bound * fault_free.replica_seconds:
        raise RuntimeError(
            f"self-healing premium unbounded: {resilient.replica_seconds:.3f} > "
            f"{cost_bound} x {fault_free.replica_seconds:.3f} replica-seconds "
            "(fault-free pool cost)"
        )
    return out


def trace_scenario(**params: Any) -> ScenarioSpec:
    """The cell ``repro run resilience_frontier --trace`` flight-records:
    :func:`grid`'s ``resilient-400``, whose crash instants, replacement
    provisioning and fault-driven drops the recorder's fault track shows."""
    return grid(**params).scenario("resilient-400")


def report(result: ResilienceResult) -> str:
    rows = {}
    for p in result.points:
        reasons = ", ".join(f"{k}={v}" for k, v in p.drop_reasons) or "-"
        rows[p.label] = {
            "kind": p.kind,
            "crash MTBF (ms)": (
                "-" if p.crash_mtbf_ms is None else p.crash_mtbf_ms
            ),
            "crashes": p.num_crashes,
            "scale-ups": p.scale_ups,
            "SLO attainment": p.slo_attainment,
            "goodput (/ms)": p.goodput_per_ms,
            "replica-seconds": p.replica_seconds,
            "mean replicas": p.mean_replicas,
            "drops": reasons,
        }
    return format_table(
        rows,
        title=(
            f"Resilience frontier — {result.supernet_name} "
            f"({result.policy.value}), {result.num_queries} queries, "
            f"pool of {result.pool_size}; self-healing premium bounded at "
            f"{result.cost_bound:g}x the fault-free pool's replica-seconds"
        ),
        precision=3,
    )
