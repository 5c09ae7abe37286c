"""One fresh-interpreter repeat of one benchmark workload.

``run.py`` spawns this script once per repeat, plus once more for the traced
run; it is not meant to be run by hand::

    python benchmarks/e2e/worker.py WORKLOAD SEED SECONDS SCALE DRAW MODE

``DRAW`` names the input: ``reference`` is the committed scenario file with
its own seeds, so its simulated metrics and records do not depend on
``SEED``; ``seeded`` sets ``seed=SEED``, ``arrivals.seed=SEED+1`` and, where
the scenario has a fault plane, ``faults.seed=SEED+2`` (offset so the RNG
streams differ).  Both override only the query count besides.

``MODE`` is ``measure`` (set up, then time calls on the draw until
``SECONDS`` have passed, at least one) or ``trace`` (layer wrappers
installed before anything is built, then one traced call).  Every call is
checked.  The last stdout line is one JSON object.

Times are reported raw, each with the mean time of a calibration loop
sampled while it ran (see :class:`Calibration`); ``run.py`` normalizes them.
The 2-vCPU hosts this benchmark targets slow a process down by up to 2x when
neighbours are busy, in bursts lasting from seconds to minutes, and the loop
slows down alike.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SCENARIOS = ROOT / "examples" / "scenarios"

#: Per workload: scenario file and queries per call at ``--scale 1`` (for
#: ``sweep_grid``, per cell of the 12-cell ``SWEEP_AXES`` grid).  A call takes
#: 1.5 to 2.5 s on a quiet 2-vCPU Xeon at 2.0 GHz.
WORKLOADS: dict[str, tuple[str, int]] = {
    "poisson_sushi": ("poisson_pool.json", 25_000),
    "batched_shared": ("batched_pool.json", 50_000),
    "sharded_rr": ("sharded_pool.json", 25_000),
    "autoscale_churn": ("autoscale_pool.json", 10_000),
    "faulty_heal": ("faulty_pool.json", 12_500),
    "sweep_grid": ("poisson_pool.json", 1_000),
}
SWEEP_AXES = (
    ("replica_groups.0.pb_kb", (432.0, 864.0, 1728.0)),
    ("policy", ("strict_latency", "strict_accuracy")),
    ("replica_groups.0.count", (1, 2)),
)
SWEEP_WORKERS = 2
MIN_QUERIES = 50

#: Seconds between two calibration samples while a section is timed.
SAMPLE_INTERVAL_S = 0.2


class _Item:
    __slots__ = ("t", "key", "value")

    def __init__(self, t: float, key: int, value: int) -> None:
        self.t = t
        self.key = key
        self.value = value


def calibration_loop(iterations: int = 1_000) -> float:
    """Seconds taken by a fixed, simulator-shaped Python loop.

    Heap-ordered events, slotted objects, dict updates and tiny numpy
    lookups, the mix the serving engine and SUSHI stack spend their time on,
    so a host slowdown hits it and the workload alike.  It does not import
    or call ``repro``, so the code under test cannot change it.
    """
    import numpy as np

    column = np.linspace(1.0, 9.0, 31)
    accuracy = np.linspace(0.70, 0.80, 31)
    heap: list = []
    totals: dict[int, float] = {}
    served: list = []
    now = 0.0
    state = 12345
    start = time.perf_counter()
    for i in range(iterations):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        now += (state % 1000) / 1000.0
        heapq.heappush(heap, (now + (state % 97) * 0.1, i, _Item(now, i & 255, state)))
        while heap and heap[0][0] <= now:
            item = heapq.heappop(heap)[2]
            feasible = np.flatnonzero(column <= (item.value % 90) / 10.0)
            best = int(feasible[int(np.argmax(accuracy[feasible]))]) if feasible.size else 0
            totals[item.key] = totals.get(item.key, 0.0) + float(column[best])
            served.append((item.key, best))
    return time.perf_counter() - start


class Calibration:
    """Calibration loop times sampled while a section is timed.

    A context manager around the section: it samples :func:`calibration_loop`
    when the section starts, every :data:`SAMPLE_INTERVAL_S` while it runs
    (from a ``SIGALRM`` handler, between two bytecodes of the section) and
    when it ends.  The collector is off during a sample, and the loop makes
    no reference cycles, so the section's live objects cannot put a
    collection into a sample.  Afterwards ``seconds`` is the section's wall
    time without the sampling, and ``loop_s`` the mean sample.
    """

    def _sample(self, *_) -> None:
        begin = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        self.samples.append(calibration_loop())
        if enabled:
            gc.enable()
        self.spent += time.perf_counter() - begin

    def __enter__(self) -> "Calibration":
        self.samples: list[float] = []
        self.spent = 0.0
        self._sample()
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.seconds = end - self.start - self.spent
        self._sample()
        self.loop_s = statistics.fmean(self.samples)


# ------------------------------------------------------------------ inputs
def num_queries(workload: str, scale: float) -> int:
    return max(MIN_QUERIES, round(WORKLOADS[workload][1] * scale))


def scenario_spec(workload: str, seed: int | None, scale: float):
    """The committed scenario with the benchmark's overrides: size and seeds.

    ``seed=None`` keeps the file's own seeds (the reference draw).
    """
    from repro.serving.spec import ScenarioSpec

    data = json.loads((SCENARIOS / WORKLOADS[workload][0]).read_text())
    overrides: list[tuple[str, object]] = [("num_queries", num_queries(workload, scale))]
    if seed is not None:
        overrides += [("seed", seed), ("arrivals.seed", seed + 1)]
        if data.get("faults") is not None:
            overrides.append(("faults.seed", seed + 2))
    return ScenarioSpec.from_dict(data).override_many(overrides)


def sweep_spec(seed: int | None, scale: float):
    from repro.sweep import SweepAxis, SweepSpec

    return SweepSpec(
        base=scenario_spec("sweep_grid", seed, scale),
        axes=tuple(SweepAxis(path, values) for path, values in SWEEP_AXES),
        name="sweep_grid",
    )


# ------------------------------------------------------------------ checks
def check_result(result, num: int) -> list[str]:
    """Conservation and causality of one simulation result."""
    errors = []
    indices = sorted(
        [o.query_index for o in result.outcomes]
        + [d.query_index for d in result.dropped]
    )
    if indices != list(range(num)):
        errors.append(
            f"conservation: {len(indices)} outcomes+drops do not cover "
            f"range({num}) exactly once"
        )
    acausal = sum(
        1 for o in result.outcomes if not (o.arrival_ms <= o.start_ms and o.service_ms > 0)
    )
    if acausal:
        errors.append(f"causality: {acausal} outcomes start before arrival or take no time")
    return errors


def records_digest(result) -> str:
    """sha256 over every outcome, then every drop, each in query order."""
    h = hashlib.sha256()
    for o in result.outcomes:
        subnet = None if o.record is None else o.record.subnet_name
        h.update(
            repr(
                (o.query_index, o.arrival_ms, o.start_ms, o.service_ms,
                 o.replica_index, o.batch_size, o.served_accuracy, subnet)
            ).encode()
        )
    for d in result.dropped:
        h.update(
            repr(
                (d.query_index, d.arrival_ms, d.dropped_at_ms, d.replica_index, d.reason)
            ).encode()
        )
    return h.hexdigest()


def sim_metrics(result) -> dict[str, float]:
    """Simulated-time metrics of one run (deterministic per input)."""
    import numpy as np

    return {
        "sim_slo_attainment": result.slo_attainment,
        "sim_p50_response_ms": float(np.percentile([o.response_ms for o in result.outcomes], 50)),
        "sim_p99_response_ms": result.p99_response_ms,
        "sim_mean_accuracy_pct": 100.0 * result.mean_accuracy,
        "sim_goodput_per_ms": result.goodput_per_ms,
        "sim_replica_seconds": result.replica_seconds,
    }


def peak_rss_mb() -> float:
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024.0


# ---------------------------------------------------------------- workloads
class Ops:
    """Operations attempted and failed, with the reasons for failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(errors)


class ScenarioRun:
    """A ``run_scenario`` workload: set-up is parse + first ``build_engine``.

    Set-up fills the stack cache, so calls never time a stack build.
    """

    def __init__(self, workload: str, seed: int | None, scale: float, ops: Ops) -> None:
        from repro.serving.api import build_engine

        self.queries = num_queries(workload, scale)
        self.ops = ops
        self.spec = scenario_spec(workload, seed, scale)
        self.cache: dict = {}
        build_engine(self.spec, stack_cache=self.cache)

    def call(self) -> int:
        from repro.serving.api import run_scenario

        self.result = None  # so a second call's peak memory is one call's
        self.result = run_scenario(self.spec, stack_cache=self.cache)
        return self.queries

    def check(self) -> tuple[str, dict[str, float]]:
        """Record the call as one operation; its records digest and sim metrics."""
        result = self.result
        self.ops.record(check_result(result, self.queries))
        self.batch_occupancy = result.mean_batch_occupancy
        return records_digest(result), sim_metrics(result)


class SweepRun:
    """The ``run_sweep`` workload: set-up is import + ``SweepSpec``.

    Every grid cell of every call is one operation.  :meth:`reference_pass`
    reruns the cells through ``run_scenario`` for the record checks and the
    p50 the cell metrics lack.

    While the two workers keep both CPUs busy, calibration samples run in
    this process beside them, so a sweep's calibrated rates read higher than
    the other workloads' by the CPU share our own workers take from the loop.
    """

    def __init__(self, seed: int | None, scale: float, ops: Ops, workers: int) -> None:
        self.spec = sweep_spec(seed, scale)
        self.per_cell = num_queries("sweep_grid", scale)
        self.queries = self.per_cell * self.spec.num_cells
        self.ops = ops
        self.workers = workers

    def call(self) -> int:
        from repro.sweep import run_sweep

        self.result = run_sweep(self.spec, workers=self.workers)
        return self.queries

    def check(self) -> tuple[str, None]:
        for cell in self.result.cells:
            if not cell.ok:
                self.ops.record([f"cell {cell.index}: {cell.error}"])
                continue
            m = cell.metrics
            counts = (m["num_offered"], m["num_served"] + m["num_dropped"])
            self.ops.record(
                [] if counts == (self.per_cell,) * 2
                else [f"cell {cell.index}: conservation: offered, served+dropped = {counts}"]
            )
        ok = [c.metrics["mean_batch_occupancy"] for c in self.result.cells if c.ok]
        self.batch_occupancy = statistics.fmean(ok) if ok else 0.0
        return hashlib.sha256(self.result.to_json().encode()).hexdigest(), None

    def reference_pass(self) -> tuple[list[float], dict[str, float]]:
        """Rerun the last call's cells one after another through ``run_scenario``.

        Starts on a cold stack cache, so the elapsed time is the sequential
        cost the parallel sweep is measured against.  Each cell's records
        are checked and its metrics must equal the sweep's.  Returns
        ``[queries per second, mean loop seconds]`` and the mean sim metrics
        over cells.
        """
        from repro.serving.api import run_scenario
        from repro.sweep import result_metrics

        cache: dict = {}
        elapsed = 0.0
        loops: list[float] = []
        sims = []
        for cell, overrides in zip(self.result.cells, self.spec.cells()):
            with Calibration() as cal:
                result = run_scenario(self.spec.scenario(overrides), stack_cache=cache)
            elapsed += cal.seconds
            loops += cal.samples
            errors = check_result(result, self.per_cell)
            if cell.metrics != result_metrics(result):
                errors.append(f"cell {cell.index}: sweep metrics differ from run_scenario")
            self.ops.record(errors)
            sims.append(sim_metrics(result))
        means = {k: statistics.fmean(s[k] for s in sims) for k in sims[0]}
        return [self.queries / elapsed, statistics.fmean(loops)], means


def make_run(workload: str, seed: int | None, scale: float, ops: Ops, *, traced: bool):
    if workload == "sweep_grid":
        # The traced sweep runs in-process so every span lands in one tracer.
        return SweepRun(seed, scale, ops, 1 if traced else SWEEP_WORKERS)
    return ScenarioRun(workload, seed, scale, ops)


# --------------------------------------------------------------------- modes
def timed_call(run) -> tuple[list[float], str, dict | None]:
    """One call: ``[queries per second, mean loop seconds]``, records digest, sims."""
    with Calibration() as cal:
        queries = run.call()
    return [queries / cal.seconds, cal.loop_s], *run.check()


def measure(run, ops: Ops, seconds: float, setup: list[float], reference: bool) -> dict:
    """Calls on one input until ``seconds`` pass; every call must agree.

    ``setup`` and each entry of ``calls`` are ``[value, mean loop seconds]``.
    On the reference draw a sweep is also rerun cell by cell (see
    :meth:`SweepRun.reference_pass`) for its sim metrics and checks.
    """
    out: dict = {"setup": setup, "calls": []}
    digests = set()
    start = time.perf_counter()
    while not out["calls"] or time.perf_counter() - start < seconds:
        call, digest, sims = timed_call(run)
        out["calls"].append(call)
        digests.add(digest)
    if len(digests) > 1:
        ops.record([f"determinism: {len(digests)} different records over {len(out['calls'])} calls"])
    out.update(
        peak_rss_mb=peak_rss_mb(), batch_occupancy=run.batch_occupancy, digest=digest, sims=sims
    )
    if reference and isinstance(run, SweepRun):
        out["sequential"], out["sims"] = run.reference_pass()
        # Raw: both times are this process's, taken one after the other.
        out["parallel_efficiency"] = out["calls"][0][0] / (SWEEP_WORKERS * out["sequential"][0])
    return out


def trace(workload: str, seed: int | None, scale: float, ops: Ops) -> dict:
    """Set-up and one call, with the layer wrappers installed and recording.

    The layer self times cover the traced wall time from set-up to the end
    of the call; the checks after it are not traced.  No calibration loop
    runs, so none lands inside a traced span: ``qps`` is raw.
    """
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from tracer import LayerTracer

    tracer = LayerTracer()
    tracer.install()
    tracer.active = True
    begin = time.perf_counter()
    run = make_run(workload, seed, scale, ops, traced=True)
    start = time.perf_counter()
    queries = run.call()
    end = time.perf_counter()
    tracer.active = False
    digest, _ = run.check()
    return {
        "qps": queries / (end - start),
        "batch_occupancy": run.batch_occupancy,
        "digest": digest,
        **tracer.report(queries, end - begin),
    }


def main(argv: list[str]) -> int:
    workload, seed, seconds, scale, draw, mode = argv
    if workload not in WORKLOADS or draw not in ("reference", "seeded"):
        print(f"unknown workload {workload!r} or draw {draw!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    ops = Ops()
    drawn = int(seed) if draw == "seeded" else None
    if mode == "trace":
        out = trace(workload, drawn, float(scale), ops)
    else:
        with Calibration() as cal:
            run = make_run(workload, drawn, float(scale), ops, traced=False)
        out = measure(run, ops, float(seconds), [cal.seconds, cal.loop_s], draw == "reference")
    out.update(ops_attempted=ops.attempted, ops_failed=ops.failed, errors=ops.errors)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
