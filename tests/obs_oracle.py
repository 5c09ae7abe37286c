"""The flight recorder's per-object span builder, kept as an oracle.

``oracle_spans(outcomes, dropped)`` is a literal copy of the loop that
built a trace's query spans when the engine handed the recorder one
:class:`~repro.serving.engine.SimulatedQueryOutcome` per served query and
one :class:`~repro.serving.engine.DroppedQuery` per drop: a
:class:`QuerySpan` per object, served ones first, then every span sorted by
query index.  ``RecordedTrace.spans`` is now a view over the run's result
table; ``tests/properties/test_property_obs.py`` and
``tests/properties/test_property_scenarios.py`` hold it equal to this
builder over the run's ``result.outcomes`` and ``result.dropped``.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.serving.obs import QuerySpan


def oracle_spans(outcomes: Iterable[Any], dropped: Iterable[Any]) -> tuple[QuerySpan, ...]:
    """The spans of ``outcomes`` and ``dropped``, sorted by query index."""
    spans: list[QuerySpan] = []
    for o in outcomes:
        completion = o.start_ms + o.service_ms
        spans.append(
            QuerySpan(
                query_index=o.query_index,
                arrival_ms=o.arrival_ms,
                start_ms=o.start_ms,
                completion_ms=completion,
                replica_index=o.replica_index,
                latency_constraint_ms=o.latency_constraint_ms,
                deadline_slack_ms=(
                    o.latency_constraint_ms - (completion - o.arrival_ms)
                ),
                batch_size=o.batch_size,
                subnet_name=getattr(o.record, "subnet_name", None),
                status="served",
            )
        )
    for d in dropped:
        spans.append(
            QuerySpan(
                query_index=d.query_index,
                arrival_ms=d.arrival_ms,
                start_ms=None,
                completion_ms=d.dropped_at_ms,
                replica_index=d.replica_index,
                latency_constraint_ms=d.latency_constraint_ms,
                deadline_slack_ms=(
                    d.latency_constraint_ms - (d.dropped_at_ms - d.arrival_ms)
                ),
                batch_size=0,
                subnet_name=None,
                status="dropped",
                drop_reason=d.reason,
            )
        )
    spans.sort(key=lambda s: s.query_index)
    return tuple(spans)
