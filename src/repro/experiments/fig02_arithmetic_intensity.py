"""Fig. 2 — Arithmetic intensity per convolution layer (ResNet50 & MobV3).

The paper's motivating figure: later layers of both networks have markedly
lower FLOPs/byte, so on bandwidth-constrained platforms they become memory
bound.  We reproduce the per-layer intensity series for the largest SubNet of
each family and report how many layers fall below the analytic platform's
ridge point.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.accelerator.platforms import ANALYTIC_DEFAULT, PlatformConfig
from repro.accelerator.roofline import RooflineModel
from repro.analysis.arithmetic_intensity import subnet_arithmetic_intensity_series
from repro.analysis.reporting import format_kv
from repro.supernet.subnet import max_subnet
from repro.supernet.zoo import load_supernet


@dataclass(frozen=True)
class Fig02Result:
    """Per-layer arithmetic intensities for both SuperNet families."""

    series: dict[str, tuple[list[int], list[float]]]
    ridge_point: float
    memory_bound_fraction: dict[str, float]


def run(platform: PlatformConfig = ANALYTIC_DEFAULT) -> Fig02Result:
    ridge = RooflineModel(platform).ridge_point
    series: dict[str, tuple[list[int], list[float]]] = {}
    memory_bound_fraction: dict[str, float] = {}
    for name in ("ofa_resnet50", "ofa_mobilenetv3"):
        supernet = load_supernet(name)
        subnet = max_subnet(supernet)
        ids, values = subnet_arithmetic_intensity_series(subnet)
        series[name] = (ids, values)
        below = sum(1 for v in values if v < ridge)
        memory_bound_fraction[name] = below / len(values) if values else 0.0
    return Fig02Result(
        series=series, ridge_point=ridge, memory_bound_fraction=memory_bound_fraction
    )


def report(result: Fig02Result) -> str:
    lines = [
        "Fig. 2 — arithmetic intensity per conv layer (max SubNet)",
        f"ridge point (FLOPs/byte): {result.ridge_point:.1f}",
    ]
    for name, (ids, values) in result.series.items():
        head = ", ".join(f"{v:.0f}" for v in values[:6])
        tail = ", ".join(f"{v:.0f}" for v in values[-6:])
        lines.append(
            f"{name}: {len(ids)} conv layers, intensity first [{head}] ... last [{tail}]"
        )
    lines.append(
        format_kv(
            {f"{k} fraction memory-bound": v for k, v in result.memory_bound_fraction.items()}
        )
    )
    return "\n".join(lines)
