"""Table 2 — FPGA resource comparison of SushiAccel (w/ and w/o PB) and the DPU."""

from __future__ import annotations

from dataclasses import dataclass

from repro.accelerator.resources import resource_comparison_table
from repro.analysis.reporting import format_table

#: Published Xilinx DPU (DPUCZDX8G on ZCU104) resources, from Table 2.
DPU_REFERENCE_ROW: dict[str, float] = {
    "LUT": 41640,
    "Register": 69180,
    "BRAM": 0,
    "URAM": 60,
    "DSP": 438,
    "PeakOps/cycle": 2304,
    "GFlops(100MHz)": 230.4,
}


@dataclass(frozen=True)
class Tab02Result:
    rows: dict[str, dict[str, float]]


def run() -> Tab02Result:
    rows = resource_comparison_table()
    rows["Xilinx DPU DPUCZDX8G (zcu104, published)"] = dict(DPU_REFERENCE_ROW)
    return Tab02Result(rows=rows)


def report(result: Tab02Result) -> str:
    return format_table(result.rows, title="Table 2 — resource comparison", precision=1)
