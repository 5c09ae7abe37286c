"""Table 3 — On-chip buffer allocation of SushiAccel on ZCU104 (w/ and w/o PB)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.accelerator.platforms import ZCU104, PlatformConfig
from repro.accelerator.resources import buffer_allocation_table
from repro.analysis.reporting import format_table


@dataclass(frozen=True)
class Tab03Result:
    platform_name: str
    allocation_kb: dict[str, dict[str, float]]


def run(platform: PlatformConfig = ZCU104) -> Tab03Result:
    return Tab03Result(
        platform_name=platform.name, allocation_kb=buffer_allocation_table(platform)
    )


def report(result: Tab03Result) -> str:
    # Transpose so buffers are rows and the two configurations are columns.
    buffers = list(next(iter(result.allocation_kb.values())))
    rows = {
        buf: {config: result.allocation_kb[config][buf] for config in result.allocation_kb}
        for buf in buffers
    }
    return format_table(
        rows,
        title=f"Table 3 — buffer configuration (KB) on {result.platform_name}",
        precision=1,
    )
