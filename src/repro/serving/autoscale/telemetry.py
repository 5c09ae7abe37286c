"""Telemetry bus: the control plane's window into the data plane.

The serving engine feeds the bus one call per event — arrivals, dispatch
pickups, completions, drops and replica failures — and the bus maintains
*sliding-window* views of them
(a deque per signal, pruned lazily).  At every control tick the autoscale
controller asks for a :class:`MetricsSnapshot`: queue depth, windowed arrival
rate, drop rate, utilization and the p95 dispatch wait — the observable
signals scaling policies act on.

The window doubles as the *forecast* substrate: the snapshot splits it in
half and reports the arrival-rate slope between the two halves
(``arrival_rate_slope_per_ms2``), which predictive policies extrapolate over
the provisioning horizon to scale ahead of a ramp instead of chasing it.

Invariants:

* The bus never looks inside the engine: instantaneous state (queue depth,
  active/provisioning/draining replica counts) is passed in at snapshot time
  by the caller, while everything windowed is accumulated from the per-event
  feed.
* Pruning is lazy and snapshots are pure reads of pool state — taking a
  snapshot never changes what a later snapshot at the same time would see,
  so control ticks cannot perturb the data plane.
* All metrics are computed from plain event timestamps; replaying the same
  event feed yields bit-identical snapshots (the engine's determinism
  guarantee extends through the control plane).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from collections.abc import Collection, Sequence
from dataclasses import dataclass


def p95(values: Collection[float]) -> float:
    """95th percentile of ``values`` by linear interpolation, in plain Python.

    Bit-identical to ``float(np.percentile(values, 95))`` for finite
    values: the same virtual index ``(n - 1) * 0.95`` into the sorted
    values, and numpy's two-sided lerp between its neighbours (from the
    upper neighbour once the weight reaches 0.5).  A control tick's window
    holds a handful of waits, where numpy's call overhead dominates.
    """
    ordered = sorted(values)
    last = len(ordered) - 1
    if last <= 0:
        return float(ordered[0])
    virtual = last * 0.95
    lo = int(virtual)
    a = ordered[lo]
    b = ordered[lo + 1]
    t = virtual - lo
    diff = b - a
    return float(b - diff * (1 - t) if t >= 0.5 else a + diff * t)


def mean(values: Collection[float]) -> float:
    """Arithmetic mean of ``values`` (non-empty), in plain Python.

    Bit-identical to ``float(np.mean(values))`` for finite floats: numpy
    adds the array to the reduction's 0.0 identity with its pairwise sum
    (:func:`_pairwise_sum`), then divides by the count.  Builtin ``sum``
    is no substitute: it adds strictly left to right (and, from Python
    3.12, compensates), so its last bits differ.
    """
    listed = list(values)
    n = len(listed)
    return (0.0 + _pairwise_sum(listed, 0, n)) / n


def _pairwise_sum(values: list[float], lo: int, n: int) -> float:
    """numpy's float64 ``pairwise_sum`` of ``values[lo:lo + n]``.

    Under 8 values: a left-to-right loop from 0.0.  Up to 128 (numpy's
    block size): eight interleaved accumulators over the largest multiple
    of 8, combined as a balanced tree, then the remainder added in order.
    Larger: split at half the length rounded down to a multiple of 8, and
    add the two halves' sums.
    """
    if n < 8:
        total = 0.0
        for i in range(lo, lo + n):
            total += values[i]
        return total
    if n <= 128:
        r0, r1, r2, r3, r4, r5, r6, r7 = values[lo:lo + 8]
        stop = lo + n - n % 8
        for i in range(lo + 8, stop, 8):
            r0 += values[i]
            r1 += values[i + 1]
            r2 += values[i + 2]
            r3 += values[i + 3]
            r4 += values[i + 4]
            r5 += values[i + 5]
            r6 += values[i + 6]
            r7 += values[i + 7]
        total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for i in range(stop, lo + n):
            total += values[i]
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(values, lo, half) + _pairwise_sum(values, lo + half, n - half)


@dataclass(frozen=True, slots=True)
class MetricsSnapshot:
    """Sliding-window metrics handed to a scaling policy at a control tick.

    Attributes
    ----------
    time_ms:
        Simulation time of the control tick.
    window_ms:
        The *effective* window the rates below were measured over
        (``min(configured window, elapsed time)``).
    num_active:
        Active (routable) replicas of the scalable pool.
    num_draining:
        Replicas still finishing their queues before retirement.
    num_provisioning:
        Cold replicas requested but not yet serving (their
        ``startup_delay_ms`` has not elapsed).  Policies count these as
        *incoming* capacity so a pending scale-up is not re-requested at
        every tick of the provisioning window.
    queue_depth:
        Waiting plus in-service queries across the live pool, right now.
    arrival_rate_per_ms:
        Arrivals in the window divided by the window.
    arrival_rate_slope_per_ms2:
        First-difference estimate of how fast the arrival rate is changing:
        the rate over the window's recent half minus the rate over its older
        half, divided by half the window.  Positive on a ramp-up, negative
        on a decline, 0 when the window saw a flat rate (or is too young to
        split).  Predictive policies extrapolate
        ``rate + slope x (window/2 + horizon)`` to provision for the load
        expected *after* the provisioning delay.
    drop_rate:
        Fraction of dispatch attempts in the window shed by admission
        control (0 when the window saw neither dispatches nor drops).
    utilization:
        Busy time in the window across live replicas divided by
        ``window x num_active`` (clipped to [0, 1]).
    p95_wait_ms:
        95th percentile of the queueing delay of dispatches in the window.
    mean_service_ms:
        Mean service time of completions in the window (0 when none).
    mean_batch_occupancy:
        Mean queries per dispatch pickup in the window (0 when the window
        saw no pickups; 1.0 when the pool runs without batching).  Policies
        can read scaling headroom off this: occupancy well below the pool's
        ``max_batch`` means free batch slots absorb load before replicas do.
    """

    time_ms: float
    window_ms: float
    num_active: int
    num_draining: int
    queue_depth: int
    arrival_rate_per_ms: float
    drop_rate: float
    utilization: float
    p95_wait_ms: float
    mean_service_ms: float
    mean_batch_occupancy: float = 0.0
    num_provisioning: int = 0
    arrival_rate_slope_per_ms2: float = 0.0
    num_failed_replicas: int = 0
    """Replicas of the scalable pool that have crashed so far (cumulative;
    0 without fault injection).  Crashed replicas left the routable pool,
    so they are *not* part of ``num_active``."""
    failure_rate_per_ms: float = 0.0
    """Replica crashes in the window divided by the window (the failure
    detector's windowed signal; 0 without fault injection)."""

    @property
    def num_incoming(self) -> int:
        """Capacity already committed: serving now or provisioning."""
        return self.num_active + self.num_provisioning

    def forecast_rate_per_ms(self, horizon_ms: float) -> float:
        """Arrival rate extrapolated ``horizon_ms`` past the tick.

        The windowed rate is centered half a window in the past, so the
        extrapolation spans ``window/2 + horizon``; the result is floored
        at 0 (a steep decline cannot forecast negative traffic).
        """
        span = self.window_ms / 2.0 + horizon_ms
        return max(0.0, self.arrival_rate_per_ms + self.arrival_rate_slope_per_ms2 * span)


class TelemetryBus:
    """Accumulates per-event serving telemetry over a sliding window.

    Parameters
    ----------
    window_ms:
        Length of the sliding window the metrics are computed over
        (positive: the controller passes the spec's validated window, or
        one derived from its validated interval).  Typically a small
        multiple of the autoscaler's control interval, so consecutive
        control decisions see overlapping but fresh evidence.

    Waits and service durations sit in value deques beside their time
    deques, and the batch sizes in a running integer total, so a tick
    reads the window without rebuilding it.  Every float
    the snapshot reduces is summed in event order, exactly as a full
    rebuild would: no running float sum is kept, since one would drift by
    an ulp from what the window holds.
    """

    def __init__(self, window_ms: float) -> None:
        self.window_ms = float(window_ms)
        self._arrivals: deque[float] = deque()
        self._drops: deque[float] = deque()
        self._failures: deque[float] = deque()
        self._wait_times: deque[float] = deque()
        self._waits: deque[float] = deque()
        self._services: deque[tuple[float, float]] = deque()  # (start, end)
        self._durations: deque[float] = deque()  # end - start
        self._batches: deque[tuple[float, int]] = deque()  # (time, batch size)
        self._batch_total = 0  # sum of the window's batch sizes (ints: exact)
        self._in_service_starts: dict[int, float] = {}  # replica idx -> start
        # Bound-method hoists for the per-event feed: the engine calls these
        # once per data-plane event, and reset() clears the deques in place,
        # so the binds stay valid for the bus's whole life.
        self._arrival_append = self._arrivals.append
        self._drop_append = self._drops.append
        self._wait_time_append = self._wait_times.append
        self._wait_append = self._waits.append
        self._service_append = self._services.append
        self._duration_append = self._durations.append
        self._batch_append = self._batches.append
        self.total_arrivals = 0
        self.total_dispatches = 0
        self.total_completions = 0
        self.total_drops = 0
        self.total_batches = 0
        self.total_failures = 0

    # ------------------------------------------------------------ event feed
    def on_arrival(self, now_ms: float) -> None:
        self._arrival_append(now_ms)
        self.total_arrivals += 1

    def on_pickup(self, now_ms: float, replica_index: int, members: Sequence) -> None:
        """One dispatch pickup started on replica ``replica_index``.

        ``members`` are the engine's in-service members, ``(item, ...)``
        tuples; each one's wait is measured from its item's arrival to the
        pickup.  Records the pickup's size (1 without batching), then one
        wait per member in pickup order, and opens the replica's busy
        interval.
        """
        size = len(members)
        self._batch_append((now_ms, size))
        self._batch_total += size
        self.total_batches += 1
        for member in members:
            self._wait_time_append(now_ms)
            self._wait_append(now_ms - member[0].arrival_ms)
        self._in_service_starts[replica_index] = now_ms
        self.total_dispatches += size

    def on_completion(self, now_ms: float, replica_index: int, service_ms: float) -> None:
        start = self._in_service_starts.pop(replica_index, now_ms - service_ms)
        self._service_append((start, now_ms))
        self._duration_append(now_ms - start)
        self.total_completions += 1

    def on_drop(self, now_ms: float) -> None:
        self._drop_append(now_ms)
        self.total_drops += 1

    def on_failure(self, now_ms: float) -> None:
        """One replica crash (the fault layer's failure-detector feed)."""
        self._failures.append(now_ms)
        self.total_failures += 1

    # ------------------------------------------------------------- snapshot
    def _prune(self, horizon_ms: float) -> None:
        for q in (self._arrivals, self._drops, self._failures):
            while q and q[0] < horizon_ms:
                q.popleft()
        times = self._wait_times
        while times and times[0] < horizon_ms:
            times.popleft()
            self._waits.popleft()
        batches = self._batches
        while batches and batches[0][0] < horizon_ms:
            self._batch_total -= batches.popleft()[1]
        services = self._services
        while services and services[0][1] < horizon_ms:
            services.popleft()
            self._durations.popleft()

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
        # (zero-length) window.  Arrivals are fed in time order, so the
        # recent half is the deque's tail past the bisection point.
        slope = 0.0
        half = window / 2.0
        if half > 0:
            recent = arrivals - bisect_left(self._arrivals, now_ms - half)
            older = arrivals - recent
            slope = (recent - older) / half / half
        drops = len(self._drops)
        dispatches = len(self._waits)
        attempted = drops + dispatches
        drop_rate = drops / attempted if attempted else 0.0

        # Busy time inside the window: closed service intervals clipped to
        # the window, plus the open interval of anything still in service.
        # The conditionals pick what min(end, now) / max(start, horizon)
        # would, ties included, in the same summation order.
        busy = 0.0
        for start, end in self._services:
            busy += (now_ms if now_ms < end else end) - (
                horizon if horizon > start else start
            )
        for start in self._in_service_starts.values():
            busy += now_ms - (horizon if horizon > start else start)
        if capacity_replicas is None:
            capacity_replicas = num_active
        capacity = window * max(capacity_replicas, 1)
        utilization = min(1.0, busy / capacity) if capacity > 0 else 0.0

        waits = self._waits
        durations = self._durations
        batches = len(self._batches)

        return MetricsSnapshot(
            time_ms=now_ms,
            window_ms=window,
            num_active=num_active,
            num_draining=num_draining,
            queue_depth=queue_depth,
            arrival_rate_per_ms=arrivals / window if window > 0 else 0.0,
            drop_rate=drop_rate,
            utilization=utilization,
            p95_wait_ms=p95(waits) if waits else 0.0,
            mean_service_ms=mean(durations) if durations else 0.0,
            mean_batch_occupancy=self._batch_total / batches if batches else 0.0,
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
        self._wait_times.clear()
        self._waits.clear()
        self._services.clear()
        self._durations.clear()
        self._batches.clear()
        self._batch_total = 0
        self._in_service_starts.clear()
        self.total_arrivals = 0
        self.total_dispatches = 0
        self.total_completions = 0
        self.total_drops = 0
        self.total_batches = 0
        self.total_failures = 0
