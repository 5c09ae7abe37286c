"""Benchmark (extension): the engine's event loop — queries/sec by tier.

Times ``ServingEngine.run`` on a synthetic constant-work pool (a near-free
backend, so the measurement is the event loop itself, not a model).

Each tier runs in a **fresh subprocess** via ``tools/profile_engine.py``:
in-process measurement would be skewed by the hundreds of MB of outcome
objects an earlier run keeps alive (allocator and cache pressure), and a
fresh interpreter per tier (with GC disabled around the timed region,
which the harness does itself) removes that effect.  The subprocesses run
through the ``run_quiet`` fixture so conda activation noise from the CI
image's login shell never reaches the bench logs.

Two tiers run on every PR (10k and 1M queries); the 10M tier only runs when
``BENCH_ENGINE_10M=1`` (nightly / local baselining).  The 10k workload is
also run in-process and checked against a golden digest of its records —
outcomes, drops, per-replica stats and run duration — recorded from the
Event/EventHeap reference loop, so the throughput is never bought with a
behavioral change; the exhaustive identity evidence lives in the
hypothesis property tests under ``tests/``.

Wall-clock queries/sec land in a fresh JSON which CI diffs against the
committed ``benchmarks/BENCH_engine.json`` via ``regression_gate.py --kind
engine`` (wide tolerance: these are wall times on shared runners, unlike
the deterministic simulation metrics the batching gate checks).
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from repro.core.metrics import QueryRecord
from repro.serving.engine import AcceleratorReplica, ServingEngine
from repro.serving.engine.core import poisson_arrivals
from repro.serving.workload import WorkloadGenerator, WorkloadSpec

#: Where the fresh metrics JSON lands (CI diffs it against BENCH_engine.json).
FRESH_JSON = os.environ.get("BENCH_ENGINE_JSON", "benchmark-engine-fresh.json")

REPO_ROOT = Path(__file__).resolve().parents[1]
REPLICAS = 4
RATE_PER_MS = 0.8
SERVICE_MS = 1.2
SEED = 3

#: profile_engine.py's summary line, e.g. "... (231,883 queries/sec; ...".
_QPS_RE = re.compile(r"\(([\d,]+) queries/sec")

#: sha256 of the 10k workload's records (see :func:`_records_digest`) as
#: the Event/EventHeap reference loop produced them.
GOLDEN_10K_DIGEST = "4f6409efb9166c6923ea2f8d0f6717ed537d3eaf0c95a91e0287e09c2f89a8c3"


class ConstantWorkServer:
    """Near-free backend: constant service, one shared record.

    The engine never reads the record's ``query_index`` (outcomes carry the
    query's own index), so sharing one record is safe and keeps
    ``serve_query`` down to an attribute read — the identity runs then
    exercise the event loop, not record construction.  Mirrors the server
    ``tools/profile_engine.py`` uses for the timed cells.
    """

    __slots__ = ("record",)

    def __init__(self) -> None:
        self.record = QueryRecord(
            query_index=-1,
            accuracy_constraint=0.5,
            latency_constraint_ms=1e9,
            subnet_name="bench-stub",
            served_accuracy=0.9,
            served_latency_ms=SERVICE_MS,
        )

    def serve_query(self, query, *, effective_latency_constraint_ms=None):
        return self.record


def _measure_qps(run_quiet, num_queries: int) -> float:
    """queries/sec of one tier in a fresh interpreter."""
    proc = run_quiet(
        [
            sys.executable,
            str(REPO_ROOT / "tools" / "profile_engine.py"),
            "--num-queries", str(num_queries),
            "--replicas", str(REPLICAS),
            "--rate", str(RATE_PER_MS),
            "--service-ms", str(SERVICE_MS),
            "--seed", str(SEED),
        ],
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    match = _QPS_RE.search(proc.stdout)
    assert match, f"no queries/sec in output: {proc.stdout!r}"
    return float(match.group(1).replace(",", ""))


def _tier(run_quiet, num_queries: int) -> dict:
    return {
        "num_queries": num_queries,
        "fast_qps": _measure_qps(run_quiet, num_queries),
    }


def _merge_fresh_json(key: str, tier_metrics: dict) -> None:
    """Read-merge-write so the PR tiers and the 10M tier share one file."""
    path = Path(FRESH_JSON)
    data = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    data[key] = tier_metrics
    path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")


def _show_tier(show, label: str, m: dict) -> None:
    show(f"{label}:  {m['fast_qps']:,.0f} q/s")


def _records_digest(result) -> str:
    """sha256 over every outcome (with its record), drop and replica stat."""

    def values(obj, skip=""):
        return tuple(getattr(obj, f.name) for f in fields(obj) if f.name != skip)

    h = hashlib.sha256()
    for o in result.outcomes:
        h.update(repr((values(o, "record"), values(o.record))).encode())
    for d in result.dropped:
        h.update(repr(values(d)).encode())
    for stats in result.replica_stats:
        h.update(repr(values(stats)).encode())
    h.update(repr(result.duration_ms).encode())
    return h.hexdigest()


def test_engine_modes_identical_at_10k():
    """The timed loop reproduces the reference loop's records exactly."""
    gen = WorkloadGenerator(
        WorkloadSpec(num_queries=10_000, pattern="uniform"), seed=SEED
    )
    arrivals = poisson_arrivals(
        10_000, RATE_PER_MS, rng=np.random.default_rng(SEED + 1)
    )
    engine = ServingEngine(
        [AcceleratorReplica(ConstantWorkServer()) for _ in range(REPLICAS)],
        admission="drop_expired",
    )
    result = engine.run(gen.generate(), arrivals)
    assert result.num_served + result.num_dropped == 10_000
    assert _records_digest(result) == GOLDEN_10K_DIGEST


def test_bench_engine_tiers(show, run_quiet):
    m10k = _tier(run_quiet, 10_000)
    m1m = _tier(run_quiet, 1_000_000)

    _merge_fresh_json("q10k", m10k)
    _merge_fresh_json("q1m", m1m)
    _show_tier(show, "q10k", m10k)
    _show_tier(show, "q1m", m1m)


@pytest.mark.skipif(
    os.environ.get("BENCH_ENGINE_10M") != "1",
    reason="10M tier is nightly/local only (set BENCH_ENGINE_10M=1)",
)
def test_bench_engine_10m(show, run_quiet):
    m10m = _tier(run_quiet, 10_000_000)
    _merge_fresh_json("q10m", m10m)
    _show_tier(show, "q10m", m10m)


def test_profile_hotspots_smoke(run_quiet):
    """The cProfile path of the harness stays runnable."""
    proc = run_quiet(
        [
            sys.executable,
            str(REPO_ROOT / "tools" / "profile_engine.py"),
            "--num-queries", "2000",
            "--hotspots", "3",
        ],
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert "queries/sec" in proc.stdout
    assert "_simulate" in proc.stdout  # the hotspot listing found the loop
