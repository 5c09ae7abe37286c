"""The telemetry bus as it computed every snapshot field, kept as an oracle.

A copy of ``repro.serving.autoscale.telemetry.TelemetryBus`` before its
snapshot was made cheaper (less its event counters, which no snapshot
reads): a generator count for the rate slope, ``min``/``max`` clipping of
the busy intervals, ``np.mean`` of the service times and a list of the
batch sizes, all rebuilt from ``(time, value)`` tuple deques pruned one
event at a time.  The bus under test keeps append-only columns whose
window starts it finds by ``bisect``, and replays numpy's pairwise sum in
plain Python; every :class:`MetricsSnapshot` field must come out with the
same bits.  ``tests/properties/test_property_telemetry.py`` compares them
field by field.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.core.metrics import percentile
from repro.serving.autoscale.telemetry import MetricsSnapshot


class TelemetryBus:
    """Accumulates per-event serving telemetry over a sliding window.

    Parameters
    ----------
    window_ms:
        Length of the sliding window the metrics are computed over.
        Typically a small multiple of the autoscaler's control interval, so
        consecutive control decisions see overlapping but fresh evidence.
    """

    def __init__(self, window_ms: float) -> None:
        if window_ms <= 0:
            raise ValueError("telemetry window_ms must be positive")
        self.window_ms = float(window_ms)
        self._arrivals: deque[float] = deque()
        self._drops: deque[float] = deque()
        self._failures: deque[float] = deque()
        self._waits: deque[tuple[float, float]] = deque()  # (time, wait_ms)
        self._services: deque[tuple[float, float]] = deque()  # (start, end)
        self._batches: deque[tuple[float, int]] = deque()  # (time, batch size)
        self._in_service_starts: dict[int, float] = {}  # replica idx -> start
        # Bound-method hoists for the per-event feed: the engine calls these
        # once per data-plane event, and reset() clears the deques in place,
        # so the binds stay valid for the bus's whole life.
        self._arrival_append = self._arrivals.append
        self._drop_append = self._drops.append
        self._wait_append = self._waits.append
        self._service_append = self._services.append
        self._batch_append = self._batches.append

    # ------------------------------------------------------------ event feed
    def on_arrival(self, now_ms: float) -> None:
        self._arrival_append(now_ms)

    def on_dispatch(self, now_ms: float, *, replica_index: int, wait_ms: float) -> None:
        self._wait_append((now_ms, wait_ms))
        self._in_service_starts[replica_index] = now_ms

    def on_completion(
        self, now_ms: float, *, replica_index: int, service_ms: float
    ) -> None:
        start = self._in_service_starts.pop(replica_index, now_ms - service_ms)
        self._service_append((start, now_ms))

    def on_drop(self, now_ms: float) -> None:
        self._drop_append(now_ms)

    def on_failure(self, now_ms: float) -> None:
        """One replica crash (the fault layer's failure-detector feed)."""
        self._failures.append(now_ms)

    def on_batch(self, now_ms: float, *, batch_size: int) -> None:
        """One dispatch pickup of ``batch_size`` queries (1 without batching)."""
        self._batch_append((now_ms, batch_size))

    # ------------------------------------------------------------- snapshot
    def _prune(self, horizon_ms: float) -> None:
        for q in (self._arrivals, self._drops, self._failures):
            while q and q[0] < horizon_ms:
                q.popleft()
        while self._waits and self._waits[0][0] < horizon_ms:
            self._waits.popleft()
        while self._batches and self._batches[0][0] < horizon_ms:
            self._batches.popleft()
        while self._services and self._services[0][1] < horizon_ms:
            self._services.popleft()

    def snapshot(
        self,
        now_ms: float,
        *,
        num_active: int,
        num_draining: int = 0,
        queue_depth: int = 0,
        capacity_replicas: int | None = None,
        num_provisioning: int = 0,
        num_failed_replicas: int = 0,
    ) -> MetricsSnapshot:
        """The windowed metrics as of ``now_ms``.

        ``num_active`` / ``num_draining`` / ``num_provisioning`` /
        ``num_failed_replicas`` / ``queue_depth`` are instantaneous pool
        facts only the engine knows; everything else comes from the event
        feed.  ``capacity_replicas`` is the utilization denominator — the
        replicas whose busy time can appear in the feed (the engine passes
        active *plus draining*, since draining replicas still serve their
        queues; provisioning replicas cannot serve and are excluded); it
        defaults to ``num_active``.
        """
        window = min(self.window_ms, now_ms) if now_ms > 0 else self.window_ms
        horizon = now_ms - window
        self._prune(horizon)

        arrivals = len(self._arrivals)
        # Rate slope: the window split in half, recent-half rate minus
        # older-half rate over the half width.  Zero for a degenerate
        # (zero-length) window.
        slope = 0.0
        half = window / 2.0
        if half > 0:
            mid = now_ms - half
            recent = sum(1 for t in self._arrivals if t >= mid)
            older = arrivals - recent
            slope = (recent - older) / half / half
        drops = len(self._drops)
        dispatches = len(self._waits)
        attempted = drops + dispatches
        drop_rate = drops / attempted if attempted else 0.0

        # Busy time inside the window: closed service intervals clipped to
        # the window, plus the open interval of anything still in service.
        busy = 0.0
        for start, end in self._services:
            busy += min(end, now_ms) - max(start, horizon)
        for start in self._in_service_starts.values():
            busy += now_ms - max(start, horizon)
        if capacity_replicas is None:
            capacity_replicas = num_active
        capacity = window * max(capacity_replicas, 1)
        utilization = min(1.0, busy / capacity) if capacity > 0 else 0.0

        p95_wait = percentile([w for _, w in self._waits], 95) if self._waits else 0.0
        services = [end - start for start, end in self._services]
        mean_service = float(np.mean(services)) if services else 0.0
        batches = [size for _, size in self._batches]
        mean_occupancy = sum(batches) / len(batches) if batches else 0.0

        return MetricsSnapshot(
            time_ms=now_ms,
            window_ms=window,
            num_active=num_active,
            num_draining=num_draining,
            queue_depth=queue_depth,
            arrival_rate_per_ms=arrivals / window if window > 0 else 0.0,
            drop_rate=drop_rate,
            utilization=utilization,
            p95_wait_ms=p95_wait,
            mean_service_ms=mean_service,
            mean_batch_occupancy=mean_occupancy,
            num_provisioning=num_provisioning,
            arrival_rate_slope_per_ms2=slope,
            num_failed_replicas=num_failed_replicas,
            failure_rate_per_ms=(
                len(self._failures) / window if window > 0 else 0.0
            ),
        )

    # ------------------------------------------------------------ lifecycle
    def reset(self) -> None:
        """Forget all telemetry (a new simulation run starts)."""
        self._arrivals.clear()
        self._drops.clear()
        self._failures.clear()
        self._waits.clear()
        self._services.clear()
        self._batches.clear()
        self._in_service_starts.clear()
