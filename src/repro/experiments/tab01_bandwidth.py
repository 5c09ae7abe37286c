"""Table 1 — Minimal bandwidth requirement of each on-chip buffer."""

from __future__ import annotations

from dataclasses import dataclass

from repro.accelerator.buffers import bandwidth_requirements
from repro.accelerator.dpe import DPEArrayConfig
from repro.accelerator.platforms import ANALYTIC_DEFAULT, PlatformConfig
from repro.analysis.reporting import format_table


@dataclass(frozen=True)
class Tab01Result:
    platform_name: str
    requirements_bytes_per_cycle: dict[str, float]
    off_chip_bytes_per_cycle: float


def run(platform: PlatformConfig = ANALYTIC_DEFAULT) -> Tab01Result:
    dpe = DPEArrayConfig(kp=platform.kp, cp=platform.cp, dpe_size=platform.dpe_size)
    reqs = bandwidth_requirements(dpe, platform)
    return Tab01Result(
        platform_name=platform.name,
        requirements_bytes_per_cycle=reqs,
        off_chip_bytes_per_cycle=platform.off_chip_bytes_per_cycle,
    )


def report(result: Tab01Result) -> str:
    rows = {
        name: {"min bandwidth (bytes/cycle)": value}
        for name, value in result.requirements_bytes_per_cycle.items()
    }
    title = (
        f"Table 1 — buffer bandwidth requirements on {result.platform_name} "
        f"(off-chip {result.off_chip_bytes_per_cycle:.1f} B/cycle)"
    )
    return format_table(rows, title=title, precision=1)
