"""Table 4 — Data-reuse comparison of SUSHI against prior accelerators."""

from __future__ import annotations

from dataclasses import dataclass

from repro.accelerator.reuse_matrix import reuse_comparison_table
from repro.analysis.reporting import format_table


@dataclass(frozen=True)
class Tab04Result:
    rows: dict[str, dict[str, str]]


def run() -> Tab04Result:
    return Tab04Result(rows=reuse_comparison_table())


def report(result: Tab04Result) -> str:
    return format_table(result.rows, title="Table 4 — reuse comparison", precision=0)
