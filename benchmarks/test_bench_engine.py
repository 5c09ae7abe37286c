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

#: sha256 of the 10k workload's records (see :func:`_records_digest`).
#: Each record carries its query's index and constraints, which the engine
#: writes; the stub returns only the served values.
GOLDEN_10K_DIGEST = "1dc38bdff0640024c32a3532e5ad6b60ec2556739e5ea4ba7ad34da637cf6c88"

#: The record fields the engine, not the backend, knows: the query's own
#: index and constraints.
STUB_RECORD_FIELDS = ("query_index", "accuracy_constraint", "latency_constraint_ms")

#: sha256 of the same 10k run with :data:`STUB_RECORD_FIELDS` left out of
#: every record: the timing, drops, stats and served values alone, as the
#: Event/EventHeap reference loop produced them.
GOLDEN_10K_SERVED_DIGEST = "6fe279d8076ace0b1e7adabaa338c2fbd94e038988004098a8a325e7567018d5"


class ConstantWorkServer:
    """Near-free backend: constant service, one shared served tuple.

    ``serve_query`` is an attribute read, so the identity runs exercise the
    event loop, not the backend.  Mirrors the server
    ``tools/profile_engine.py`` uses for the timed cells.
    """

    __slots__ = ("served",)

    def __init__(self) -> None:
        self.served = ("bench-stub", 0.9, SERVICE_MS, 0.0, 0.0, 0.0)

    def serve_query(self, query, budget_ms, accuracy_floor):
        return self.served


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


def _records_digest(result, skip_record: tuple[str, ...] = ()) -> str:
    """sha256 over every outcome (with its record), drop and replica stat.

    ``skip_record`` names record fields left out of the digest.
    """

    def values(obj, skip=()):
        return tuple(getattr(obj, f.name) for f in fields(obj) if f.name not in skip)

    h = hashlib.sha256()
    for o in result.outcomes:
        h.update(repr((values(o, ("record",)), values(o.record, skip_record))).encode())
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
    assert _records_digest(result, STUB_RECORD_FIELDS) == GOLDEN_10K_SERVED_DIGEST


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
