"""Compare two sets of benchmark runs, one row per (metric, workload).

    python benchmarks/e2e/compare.py PARENT.json CHANGE.json

Each argument is a ``run.py --json`` document or ``{"invocations": [...]}``
holding several; ``FILE#KEY`` selects one member of a JSON object first
(``BENCH_e2e.json#set_a``).  A metric's samples are its values, one per
invocation, paired by position across the two sides.

Each row is ``improved`` (the claim rule holds: the change wins at least 9
of every 10 pairs, over at least 10 pairs, and the medians differ by more
than the parent's interquartile range), ``unresolved`` (a side's spread
exceeds the metric's bound from ``BENCHMARK.json``), ``regressed`` (the
change's median is worse by more than the bound) or ``unchanged``; with
the ``sim_*`` bounds of 0, any worse simulated value is a regression.  Any
``records_digest`` change is flagged: the digest is the reference draw's,
which no ``--seed`` changes, and a speed-only change must leave every
simulated record identical.  Exits 1 on a regression, a records change or
more failed operations than the parent.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load(arg: str) -> list[dict]:
    path, _, key = arg.partition("#")
    data = json.loads(Path(path).read_text())
    if key:
        data = data[key]
    return data["invocations"] if "invocations" in data else [data]


def samples(invocations: list[dict], workload: str, metric: str) -> list[float]:
    """One value per invocation that measured ``metric`` on ``workload``."""
    return [
        inv["workloads"][workload]["metrics"][metric]["value"]
        for inv in invocations
        if metric in inv["workloads"].get(workload, {}).get("metrics", {})
    ]


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def classify(parent: list[float], change: list[float], bound: float, better: str) -> tuple[str, str]:
    """Status of one row, and the paired wins it rests on."""
    sign = 1.0 if better == "higher" else -1.0
    pm, cm = statistics.median(parent), statistics.median(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    tally = f"{wins}/{len(pairs)}"
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and sign * (cm - pm) > iqr(parent):
        return "improved", tally
    spread = max(iqr(parent) / abs(pm) if pm else 0.0, iqr(change) / abs(cm) if cm else 0.0)
    if spread > bound and not min(sign * c for c in change) > max(sign * p for p in parent):
        return "unresolved", tally
    worse = sign * (pm - cm) / abs(pm) if pm else 0.0
    return ("regressed" if worse > bound else "unchanged"), tally


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = load(argv[0]), load(argv[1])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    bad = 0
    print(f"{'metric':<24} {'workload':<16} {'parent median [q1, q3]':>36} "
          f"{'change median [q1, q3]':>36} {'delta':>8}  {'wins':>6}  status")
    for metric in bench["end_to_end"]:
        for workload in workloads:
            p = samples(parent, workload, metric["name"])
            c = samples(change, workload, metric["name"])
            if not p or not c:
                continue
            status, tally = classify(p, c, metric["bound"], metric["better"])
            bad += status == "regressed"

            def fmt(values: list[float]) -> str:
                q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
                return f"{statistics.median(values):.5g} [{q[0]:.5g}, {q[2]:.5g}]"

            pm = statistics.median(p)
            delta = (statistics.median(c) - pm) / pm if pm else 0.0
            print(f"{metric['name']:<24} {workload:<16} {fmt(p):>36} {fmt(c):>36} "
                  f"{delta:>+8.2%}  {tally:>6}  {status}")

    for workload in workloads:
        sides = [
            [inv["workloads"][workload] for inv in side if workload in inv["workloads"]]
            for side in (parent, change)
        ]
        if not all(sides):
            continue
        failed = [sum(w["ops_failed"] for w in side) for side in sides]
        if failed[1] > failed[0]:
            bad += 1
            print(f"{workload}: more failed operations ({failed[1]} vs {failed[0]})")
        digests = [{str(w["records_digest"]) for w in side} for side in sides]
        if digests[0] != digests[1] or len(digests[0]) != 1:
            bad += 1
            print(f"{workload}: RECORDS CHANGED {sorted(digests[0])} -> {sorted(digests[1])}")
        else:
            print(f"{workload}: records identical ({next(iter(digests[0]))[:16]})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
