"""Export pins: the flight recorder's files are byte-identical run to run.

Each case drives the command line the way the ``cli-smoke`` CI job does —
a traced ``repro serve`` of a committed scenario, or ``repro run
frontier_autoscale`` through its ``trace_scenario()`` hook — with both
``--trace`` and ``--metrics``, then ``repro trace summarize`` on the
exported trace.  It pins the sha256 of the Chrome trace, of the metrics
file and of the summary text, and runs ``tools/validate_trace.py`` on the
trace.  The autoscaled pools export the controller's snapshot rows;
``poisson_pool`` is a fixed pool, so its metrics are the trace-derived
``metrics_rows`` — the one export that reads every query span.

The digests were pinned by hand; a change that moves any of them changes
what a traced run exports.
"""

from __future__ import annotations

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main

ROOT = Path(__file__).resolve().parents[2]
SCENARIOS = ROOT / "examples" / "scenarios"
VALIDATOR = ROOT / "tools" / "validate_trace.py"

CASES = {
    "autoscale_pool": ["serve", "--scenario", str(SCENARIOS / "autoscale_pool.json")],
    "faulty_pool": ["serve", "--scenario", str(SCENARIOS / "faulty_pool.json")],
    "poisson_pool": ["serve", "--scenario", str(SCENARIOS / "poisson_pool.json")],
    "frontier_autoscale": ["run", "frontier_autoscale"],
}

# sha256 of (Chrome trace, metrics CSV, ``trace summarize`` text) per case.
EXPORT_DIGESTS = {
    "autoscale_pool": (
        "377d3127dd09c1b402de38cbfce0c3ac63af844c58714452b6560d4420c7c3c2",
        "a03e9a422bf8801aa9c3589c56a62b7cf7691ccb75e01ad77196591f7b699abb",
        "aacda5b101ebb4d217db0b1321a14b1223b61fa45c462cab9dca295ff3ceb6b4",
    ),
    "faulty_pool": (
        "e6fba0e45f930cca608f31d80636e53711f2e28cfa31ee6df26dfc732f74c068",
        "494516ea9fdc9028ba9564aa19686da3240fd3d95130a2205582e459def7b4ed",
        "65bf2689b00bc1afffeb41c87168ef6c0113e4c1c228962452435993922ae397",
    ),
    "poisson_pool": (
        "3584ffdc25210d47e07664b857c439373dfafaae384fdb6157eeb16b8eb682c9",
        "36172e498ce9a24ad7110e22efcfe8569d5be8770896b2bc0e0acae0b229d9ea",
        "a189235473905c12f978743d72a70319ad30f6cbe50981eadfe087a43ab7c72c",
    ),
    "frontier_autoscale": (
        "be58219d0e3a40fe9d762492617efb1ecfd3bc64ece8722e86df134f0e308de3",
        "c86f4b34c88a84681cd7e15c8ecc88d365df6f0e10395691610c279abb1d12e1",
        "5fc15b77a9b94847895a9ca979e871b42231f5c3d509b14b1873bd4537be6c81",
    ),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def export_digests(case: str, out_dir: Path, capsys) -> tuple[str, str, str]:
    """Run ``case`` traced into ``out_dir``; the digests of its three exports."""
    trace_path = out_dir / f"{case}-trace.json"
    metrics_path = out_dir / f"{case}-metrics.csv"
    argv = [*CASES[case], "--trace", str(trace_path), "--metrics", str(metrics_path)]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(["trace", "summarize", str(trace_path)]) == 0
    summary = capsys.readouterr().out
    return (
        _sha256(trace_path.read_bytes()),
        _sha256(metrics_path.read_bytes()),
        _sha256(summary.encode()),
    )


@pytest.mark.parametrize("case", sorted(CASES))
def test_exports_match_their_pins(case, tmp_path, capsys):
    assert export_digests(case, tmp_path, capsys) == EXPORT_DIGESTS[case]
    proc = subprocess.run(
        [sys.executable, str(VALIDATOR), str(tmp_path / f"{case}-trace.json")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
