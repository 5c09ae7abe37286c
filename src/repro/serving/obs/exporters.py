"""Render a :class:`RecordedTrace` for external tools.

Three formats:

* :func:`chrome_trace` — Chrome trace-event JSON (the ``traceEvents``
  array format) loadable in Perfetto / ``chrome://tracing``: one track
  (thread) per replica carrying service and PROVISIONING intervals, one
  async span per query, one instant event per scaling action with its
  control-tick decision explanation attached as args, and (for
  fault-injected runs) a ``faults`` track of crash / straggle /
  dispatch-failure instants.
* :func:`metrics_rows` / :func:`snapshot_rows` — a metrics timeseries
  (queue depth, utilization, drop rate, batch occupancy) as rows of
  plain dicts, written as CSV or JSON by :func:`write_metrics`.
* :func:`summarize_chrome_trace` — a compact text summary of an exported
  trace for humans (``repro trace summarize``).

Trace-event timestamps (``ts``/``dur``) are microseconds per the format
spec; the recorder's millisecond clock is scaled by 1000 on export.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict
from typing import Any, Mapping, Sequence

from repro.serving.obs.recorder import RecordedTrace

_US_PER_MS = 1000.0
_PID = 0


def _decision_args(decision: Any) -> dict[str, Any]:
    # asdict recurses: the attached MetricsSnapshot (a dataclass) becomes
    # a plain JSON-safe dict alongside the stage-by-stage desired sizes.
    return asdict(decision)


def chrome_trace(trace: RecordedTrace) -> dict[str, Any]:
    """The run as a Chrome trace-event JSON object (``traceEvents`` format)."""
    meta: list[dict[str, Any]] = [
        {
            "ph": "M", "pid": _PID, "tid": 0, "name": "process_name",
            "args": {"name": "serving-engine"},
        }
    ]
    events: list[dict[str, Any]] = []
    control_tid = 1 + max(
        (r.replica_index for r in trace.replicas), default=-1
    )
    for replica in trace.replicas:
        meta.append(
            {
                "ph": "M", "pid": _PID, "tid": replica.replica_index,
                "name": "thread_name",
                "args": {
                    "name": f"replica {replica.replica_index} ({replica.name})"
                },
            }
        )
    meta.append(
        {
            "ph": "M", "pid": _PID, "tid": control_tid,
            "name": "thread_name", "args": {"name": "autoscaler"},
        }
    )
    fault_tid = control_tid + 1
    if trace.faults:
        meta.append(
            {
                "ph": "M", "pid": _PID, "tid": fault_tid,
                "name": "thread_name", "args": {"name": "faults"},
            }
        )
    for span in trace.spans:
        args = {
            "status": span.status,
            "deadline_slack_ms": span.deadline_slack_ms,
            "latency_constraint_ms": span.latency_constraint_ms,
            "batch_size": span.batch_size,
        }
        if span.subnet_name is not None:
            args["subnet"] = span.subnet_name
        if span.drop_reason is not None:
            args["drop_reason"] = span.drop_reason
        common = {
            "cat": "query",
            "id": span.query_index,
            "pid": _PID,
            "tid": span.replica_index,
            "name": f"query-{span.query_index}",
        }
        events.append(
            {**common, "ph": "b", "ts": span.arrival_ms * _US_PER_MS, "args": args}
        )
        events.append(
            {**common, "ph": "e", "ts": span.completion_ms * _US_PER_MS, "args": {}}
        )
        if span.status == "served" and span.start_ms is not None:
            events.append(
                {
                    "ph": "X", "cat": "service",
                    "name": span.subnet_name or "service",
                    "pid": _PID, "tid": span.replica_index,
                    "ts": span.start_ms * _US_PER_MS,
                    "dur": (span.completion_ms - span.start_ms) * _US_PER_MS,
                    "args": {"query_index": span.query_index,
                             "batch_size": span.batch_size},
                }
            )
    for seg in trace.provisioning:
        events.append(
            {
                "ph": "X", "cat": "lifecycle", "name": "PROVISIONING",
                "pid": _PID, "tid": seg.replica_index,
                "ts": seg.start_ms * _US_PER_MS,
                "dur": (seg.end_ms - seg.start_ms) * _US_PER_MS,
                "args": {"cancelled": seg.cancelled_ms is not None},
            }
        )
    decisions = {(d.time_ms, d.group): d for d in trace.decisions}
    for event in trace.scaling_events:
        args = {
            "group": event.group,
            "from_replicas": event.from_replicas,
            "to_replicas": event.to_replicas,
            "reason": event.reason,
        }
        decision = decisions.get((event.time_ms, event.group))
        if decision is not None:
            args["decision"] = _decision_args(decision)
        events.append(
            {
                "ph": "i", "s": "g", "cat": "autoscaler",
                "name": f"{event.action} {event.group or 'pool'} "
                        f"{event.from_replicas}->{event.to_replicas}",
                "pid": _PID, "tid": control_tid,
                "ts": event.time_ms * _US_PER_MS,
                "args": args,
            }
        )
    for fault in trace.faults:
        fault_args: dict[str, Any] = {"replica_index": fault.replica_index}
        if fault.detail is not None:
            fault_args["detail"] = fault.detail
        events.append(
            {
                "ph": "i", "s": "g", "cat": "fault",
                "name": f"{fault.kind} replica {fault.replica_index}",
                "pid": _PID, "tid": fault_tid,
                "ts": fault.time_ms * _US_PER_MS,
                "args": fault_args,
            }
        )
    events.sort(key=lambda e: (e["ts"], e["tid"]))
    return {"displayTimeUnit": "ms", "traceEvents": meta + events}


def write_chrome_trace(path: str, trace: RecordedTrace) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(chrome_trace(trace), handle, indent=1)
        handle.write("\n")


# ------------------------------------------------------------------ metrics
def metrics_rows(
    trace: RecordedTrace, *, interval_ms: float | None = None
) -> list[dict[str, float]]:
    """Timeseries rows sampled from the trace on a fixed interval.

    Each row covers the half-open window ``(time_ms - interval, time_ms]``:
    arrival rate, end-of-window queue depth (arrived but not yet dispatched
    or dropped), busy-time utilization over live replicas, drop rate among
    resolutions, and mean batch occupancy of the window's pickups.
    """
    duration = trace.duration_ms
    if duration <= 0 or not trace.spans:
        return []
    if interval_ms is None:
        interval_ms = duration / 100.0
    num_buckets = max(1, math.ceil(duration / interval_ms - 1e-9))
    arrivals = [0] * num_buckets
    drops = [0] * num_buckets
    pickups = [0.0] * num_buckets
    dispatched = [0] * num_buckets
    busy = [0.0] * num_buckets

    def bucket_of(t: float) -> int:
        return min(num_buckets - 1, max(0, math.ceil(t / interval_ms) - 1))

    for span in trace.spans:
        arrivals[bucket_of(span.arrival_ms)] += 1
        if span.status == "dropped":
            drops[bucket_of(span.completion_ms)] += 1
        elif span.start_ms is not None:
            b = bucket_of(span.start_ms)
            dispatched[b] += 1
            pickups[b] += 1.0 / span.batch_size
            # Spread the service interval's busy time across the buckets
            # it overlaps (each batch member contributes its 1/B share so
            # a full pickup counts once).
            share = 1.0 / span.batch_size
            lo, hi = span.start_ms, span.completion_ms
            for b in range(bucket_of(lo), bucket_of(max(lo, hi - 1e-12)) + 1):
                w_lo, w_hi = b * interval_ms, (b + 1) * interval_ms
                busy[b] += share * max(0.0, min(hi, w_hi) - max(lo, w_lo))

    rows: list[dict[str, float]] = []
    cum_arrived = cum_resolved = 0
    resolutions = sorted(
        (s.completion_ms if s.status == "dropped" else s.start_ms, 1)
        for s in trace.spans
        if s.status == "dropped" or s.start_ms is not None
    )
    arrival_times = sorted(s.arrival_ms for s in trace.spans)
    a_idx = r_idx = 0
    for b in range(num_buckets):
        t_end = min(duration, (b + 1) * interval_ms)
        while a_idx < len(arrival_times) and arrival_times[a_idx] <= t_end:
            cum_arrived += 1
            a_idx += 1
        while r_idx < len(resolutions) and resolutions[r_idx][0] <= t_end:
            cum_resolved += 1
            r_idx += 1
        live = sum(
            1
            for r in trace.replicas
            if r.created_ms <= t_end
            and (r.retired_ms is None or r.retired_ms > t_end - interval_ms)
        )
        window = min(interval_ms, t_end - b * interval_ms) or interval_ms
        resolved = dispatched[b] + drops[b]
        rows.append(
            {
                "time_ms": t_end,
                "queue_depth": float(cum_arrived - cum_resolved),
                "arrival_rate_per_ms": arrivals[b] / window,
                "utilization": (
                    busy[b] / (window * live) if live else 0.0
                ),
                "drop_rate": drops[b] / resolved if resolved else 0.0,
                "batch_occupancy": (
                    dispatched[b] / pickups[b] if pickups[b] else 0.0
                ),
            }
        )
    return rows


def snapshot_rows(snapshots: Sequence[Any]) -> list[dict[str, float]]:
    """The autoscaler's :class:`MetricsSnapshot` history as timeseries rows."""
    return [asdict(s) for s in snapshots]


def write_metrics(path: str, rows: Sequence[Mapping[str, float]]) -> None:
    """Write timeseries rows as CSV (``.csv`` path) or JSON (otherwise)."""
    if str(path).endswith(".csv"):
        with open(path, "w", encoding="utf-8", newline="") as handle:
            if rows:
                writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
                writer.writeheader()
                writer.writerows(rows)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(list(rows), handle, indent=1)
            handle.write("\n")


# ------------------------------------------------------------------ summary
def summarize_chrome_trace(payload: Mapping[str, Any]) -> str:
    """Summarize an exported Chrome trace JSON (``repro trace summarize``)."""
    events = payload.get("traceEvents", [])
    tracks = sorted(
        e["args"]["name"]
        for e in events
        if e.get("ph") == "M" and e.get("name") == "thread_name"
    )
    opens = [e for e in events if e.get("ph") == "b"]
    drops = sum(
        1 for e in opens if e.get("args", {}).get("status") == "dropped"
    )
    instants = [
        e for e in events if e.get("ph") == "i" and e.get("cat") != "fault"
    ]
    faults = [
        e for e in events if e.get("ph") == "i" and e.get("cat") == "fault"
    ]
    timestamps = [e["ts"] for e in events if "ts" in e and e.get("ph") != "M"]
    span_ms = (max(timestamps) - min(timestamps)) / _US_PER_MS if timestamps else 0.0
    end_ms = max(timestamps) / _US_PER_MS if timestamps else 0.0
    lines = [
        f"events: {len(events)} over {span_ms:.1f} ms",
        f"tracks: {len(tracks)}",
        *(f"  - {name}" for name in tracks),
        f"query spans: {len(opens)} ({drops} dropped)",
    ]
    by_reason: dict[str, int] = {}
    for e in opens:
        args = e.get("args", {})
        if args.get("status") == "dropped":
            reason = args.get("drop_reason", "deadline_expired")
            by_reason[reason] = by_reason.get(reason, 0) + 1
    if by_reason:
        reasons = ", ".join(f"{k}={v}" for k, v in sorted(by_reason.items()))
        lines.append(f"drops by reason: {reasons}")
    lines.append(f"scaling instants: {len(instants)}")
    for e in instants:
        lines.append(f"  - {e['ts'] / _US_PER_MS:.1f} ms: {e['name']}")
    if faults:
        lines.append(f"fault instants: {len(faults)}")
        for e in faults:
            t_ms = e["ts"] / _US_PER_MS
            line = f"  - {t_ms:.1f} ms: {e['name']}"
            if str(e.get("name", "")).startswith("crash "):
                line += f" ({max(0.0, end_ms - t_ms):.1f} ms down)"
            lines.append(line)
    return "\n".join(lines)
