"""End-to-end benchmark of the SUSHI serving simulator on the real stack.

Runs one workload named in ``BENCHMARK.json`` through the public API
(``ScenarioSpec``, ``run_scenario``, ``run_sweep``), each repeat in a fresh
interpreter.  Prints every metric's value and quartiles with its unit, checks
every call's records, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.

    python3 benchmarks/e2e/run.py --workload NAME [--seed S] [--seconds T]
        [--repeats R] [--scale F] [--trace [0|1]] [--json OUT]

Repeat 0 times the *reference* draw, the committed scenario with its own
seeds, so the ``sim_*`` metrics and the records digest do not depend on
``--seed``; repeats 1 to R-1 time the ``--seed`` draw and must reproduce
each other's records.  ``--seconds`` (default: ``run_seconds`` from
``BENCHMARK.json``) is split over the repeats; a repeat times calls until its
share has passed, at least one.  ``--trace 1`` adds one traced call of the
reference draw and puts the per-layer ladder, not the end-to-end metrics, in
the last line; with ``--json OUT`` its spans go to ``OUT.spans.json``.
Exits 1 when a check fails and 2 when the repository (``src/repro``,
``examples/scenarios``) is missing.

Values: ``host_qps`` is the median over every call of every repeat;
``setup_s`` and ``peak_rss_mb`` the median over repeats; each ``sim_*``
metric the reference draw's.  Host times are normalized by the calibration
loop each repeat samples while it times them (``worker.Calibration``):
``raw x mean loop seconds / CALIBRATION_REF_S`` for ``host_qps``, the inverse
for ``setup_s``, so they read as values on the reference host.  The
``--json`` document keeps the raw values and loop times.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKER = HERE / "worker.py"

#: A hung child is killed after this much more than its measuring budget.
CHILD_GRACE_S = 40.0

#: Seconds ``worker.calibration_loop`` takes on the reference host, a quiet
#: 2-vCPU Xeon at 2.0 GHz.  A constant scale: it only sets the unit.
CALIBRATION_REF_S = 0.0055


def parse_args(argv: list[str], bench: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(bench["run_seconds"]))
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--json", type=Path, help="write every value and the ladder here")
    args = parser.parse_args(argv)
    if args.repeats < 1 or args.seconds <= 0 or args.scale <= 0:
        parser.error("--repeats, --seconds and --scale must be positive")
    return args


def spawn(args: list[str], timeout_s: float) -> tuple[dict | None, str]:
    """Run one worker in a fresh interpreter; its last stdout line is JSON.

    The worker leads its own process group (a sweep forks), which is killed
    whenever this returns or raises without the worker having finished.
    """
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=dict(os.environ, PYTHONHASHSEED="0"),
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        return None, f"worker {args} timed out after {timeout_s:.0f} s"
    finally:
        if proc.returncode is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0 or not out.strip():
        return None, f"worker {args} exited {proc.returncode}: {err.strip()[-2000:]}"
    return json.loads(out.strip().splitlines()[-1]), ""


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"value": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def qps(calls: list[list[float]]) -> list[float]:
    """``[raw q/s, calibration s]`` pairs as queries per second on the reference host."""
    return [q * calib_s / CALIBRATION_REF_S for q, calib_s in calls]


class WorkloadResult:
    """Repeats, checks and (when traced) the layer ladder of one workload."""

    def __init__(self) -> None:
        self.reference: dict | None = None
        self.children: list[dict] = []
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.traced: dict | None = None

    def fail(self, error: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.errors.append(error)

    def add(self, draw: str, out: dict, what: str) -> None:
        """Count one child's operations; a draw served twice must agree."""
        self.attempted += out["ops_attempted"]
        self.failed += out["ops_failed"]
        self.errors.extend(out["errors"])
        known = self.digests.setdefault(draw, out["digest"])
        if out["digest"] != known:
            self.fail(f"determinism: {what} on the {draw} draw")

    def add_child(self, draw: str, out: dict) -> None:
        self.add(draw, out, "repeats disagree")
        self.children.append(out)
        if draw == "reference":
            self.reference = out

    def add_traced(self, out: dict) -> None:
        self.add("reference", out, "tracing changed the records")
        self.traced = out

    def rows(self) -> dict[str, dict]:
        """Every metric measured: end-to-end, then (when traced) per layer."""
        rows = {}
        if self.children:
            rows["host_qps"] = summary([q for child in self.children for q in qps(child["calls"])])
            rows["setup_s"] = summary(
                [setup_s * CALIBRATION_REF_S / loop_s for setup_s, loop_s in
                 (c["setup"] for c in self.children)]
            )
            rows["peak_rss_mb"] = summary([child["peak_rss_mb"] for child in self.children])
        if self.reference is not None:
            rows.update({name: summary([v]) for name, v in self.reference["sims"].items()})
        if self.traced is not None and self.reference is not None:
            traced, reference = self.traced, self.reference
            metrics = dict(traced["layer_metrics"])
            metrics["stack.batch_occupancy"] = traced["batch_occupancy"]
            metrics["sweep.parallel_efficiency"] = reference.get("parallel_efficiency", 0.0)
            # Raw rates on the same input, taken seconds apart.  The traced
            # sweep runs in-process, so it is held against the sequential
            # reference pass, not against the 2-worker sweep.
            untraced = reference.get("sequential", reference["calls"][0])[0]
            metrics["trace.overhead"] = untraced / traced["qps"]
            rows.update({name: summary([v]) for name, v in metrics.items()})
        return rows

    def to_json(self, units: dict[str, str], rows: dict[str, dict]) -> dict:
        doc = {
            "metrics": {name: {**row, "unit": units[name]} for name, row in rows.items()},
            "records_digest": self.digests.get("reference"),
            "ops_attempted": self.attempted,
            "ops_failed": self.failed,
            "errors": self.errors,
            "repeats": [
                {k: v for k, v in c.items() if k not in ("sims", "errors")}
                for c in self.children
            ],
        }
        if self.traced is not None:
            doc["functions"] = self.traced["functions"]
        return doc


def host_info() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "platform": platform.platform(),
    }


def main(argv: list[str]) -> int:
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "examples" / "scenarios").is_dir():
        print(f"no repro checkout at {ROOT} (need src/repro and examples/scenarios)", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, bench)
    # Terminated, exit through ``spawn``'s clean-up so no worker outlives us.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    units = {**end_to_end, **per_layer}

    result = WorkloadResult()
    budget = args.seconds / args.repeats
    common = [args.workload, str(args.seed), repr(budget), repr(args.scale)]
    jobs = [("reference", "measure")] + [("seeded", "measure")] * (args.repeats - 1)
    if args.trace:
        jobs.append(("reference", "trace"))
    for draw, mode in jobs:
        out, error = spawn([*common, draw, mode], budget + CHILD_GRACE_S)
        if out is None:
            result.fail(error)
        elif mode == "trace":
            result.add_traced(out)
        else:
            result.add_child(draw, out)

    wanted = per_layer if args.trace else end_to_end
    rows = result.rows()
    missing = [m for m in wanted if m not in rows]
    if missing:
        result.fail(f"metrics not measured: {missing}")
    print(f"{'workload':<16} {'metric':<44} {'value':>14} {'q1':>14} {'q3':>14}  unit")
    for metric, unit in units.items():
        if metric in rows:
            row = rows[metric]
            print(f"{args.workload:<16} {metric:<44} {row['value']:>14.6g} "
                  f"{row['q1']:>14.6g} {row['q3']:>14.6g}  {unit}")
    print(f"{args.workload:<16} ops attempted={result.attempted} failed={result.failed}"
          f" records_digest={(result.digests.get('reference') or '')[:16]}")
    for error in result.errors:
        print(f"{args.workload:<16} FAILED: {error}")

    correct = result.failed == 0
    if args.json is not None:
        doc = {
            "host": host_info(),
            "args": {k: v for k, v in vars(args).items() if k != "json"},
            "correct": correct,
            "workloads": {args.workload: result.to_json(units, rows)},
        }
        args.json.write_text(json.dumps(doc, indent=1) + "\n")
        if result.traced is not None:
            spans = {args.workload: result.traced["spans"]}
            args.json.with_suffix(".spans.json").write_text(json.dumps(spans) + "\n")
    metrics = {m: {"value": rows[m]["value"], "unit": wanted[m]} for m in wanted if m in rows}
    print(json.dumps({"correct": correct, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
