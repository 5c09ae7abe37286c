"""Opt-in flight recorder for the serving engine (zero overhead when off).

``repro.serving.obs`` records per-query lifecycle spans, replica busy /
PROVISIONING timelines, and autoscaler decision explanations, and exports
them as Chrome trace-event JSON (Perfetto-loadable), metrics timeseries
(CSV/JSON), or a text summary.  Enabled declaratively via
``ObservabilitySpec`` on a scenario or ``repro serve --trace``.
"""

from repro.serving.obs.exporters import (
    chrome_trace,
    metrics_rows,
    snapshot_rows,
    summarize_chrome_trace,
    write_chrome_trace,
    write_metrics,
)
from repro.serving.obs.recorder import (
    DecisionRecord,
    FaultEvent,
    ProvisioningSegment,
    QuerySpan,
    RecordedTrace,
    ReplicaTimeline,
    TraceRecorder,
)

__all__ = [
    "DecisionRecord",
    "FaultEvent",
    "ProvisioningSegment",
    "QuerySpan",
    "RecordedTrace",
    "ReplicaTimeline",
    "TraceRecorder",
    "chrome_trace",
    "metrics_rows",
    "snapshot_rows",
    "summarize_chrome_trace",
    "write_chrome_trace",
    "write_metrics",
]
