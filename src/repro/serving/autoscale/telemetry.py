"""Telemetry bus: the control plane's window into the data plane.

The serving engine feeds the bus one call per event — arrivals, dispatch
pickups, completions, drops and replica failures — and the bus keeps each
signal in append-only columns, with a cursor at the start of its
*sliding window*.  At every control tick the autoscale controller asks for
a :class:`MetricsSnapshot`: queue depth, windowed arrival rate, drop rate,
utilization and the p95 dispatch wait — the observable signals scaling
policies act on.

The window doubles as the *forecast* substrate: the snapshot splits it in
half and reports the arrival-rate slope between the two halves
(``arrival_rate_slope_per_ms2``), which predictive policies extrapolate over
the provisioning horizon to scale ahead of a ramp instead of chasing it.

The bus keeps and reduces only what its readers read.
:meth:`TelemetryBus.track` takes the snapshot fields somebody reads (a
policy's :attr:`~repro.serving.autoscale.policies.ScalingPolicy.reads`,
or every field when the run keeps its snapshots or records its
decisions) and derives the *signals* they need (:data:`FIELD_SIGNALS`):
arrivals, member waits, service durations, pickups, service intervals,
drops and failures.  The engine feeds only the tracked signals
(:attr:`TelemetryBus.signals`), and a snapshot computes only the tracked
fields; every other windowed field holds NaN.

Invariants:

* The bus never looks inside the engine: instantaneous state (queue depth,
  active/provisioning/draining replica counts) is passed in at snapshot time
  by the caller, while everything windowed is accumulated from the per-event
  feed.
* A snapshot only moves each column's cursor forward (by ``bisect`` from
  the last cursor) and reads pool state — taking a snapshot never changes
  what a later snapshot at the same time would see, so control ticks
  cannot perturb the data plane.  A column drops its dead prefix once it
  is longer than the live part, so memory stays proportional to the
  window.
* All metrics are computed from plain event timestamps; replaying the same
  event feed yields bit-identical snapshots (the engine's determinism
  guarantee extends through the control plane).  A tracked field has the
  same bits whatever else is tracked.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Sequence
from dataclasses import MISSING, dataclass, fields
from operator import itemgetter

from repro.core.metrics import percentile


def mean(values: Sequence[float], lo: int = 0) -> float:
    """Arithmetic mean of ``values[lo:]`` (non-empty), in plain Python.

    Bit-identical to ``float(np.mean(values[lo:]))`` for finite floats:
    numpy adds the array to the reduction's 0.0 identity with its pairwise
    sum (:func:`_pairwise_sum`), then divides by the count.  Builtin
    ``sum`` is no substitute: it adds strictly left to right (and, from
    Python 3.12, compensates), so its last bits differ.
    """
    n = len(values) - lo
    return (0.0 + _pairwise_sum(values, lo, n)) / n


def _pairwise_sum(values: Sequence[float], lo: int, n: int) -> float:
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


def slot_init(cls: type) -> type:
    """Give a frozen, slotted dataclass an ``__init__`` that sets its slots.

    The generated ``__init__`` of a frozen dataclass stores every field
    through ``object.__setattr__``, a generic attribute lookup per field.
    A control tick builds a :class:`MetricsSnapshot` and a ``GroupStatus``
    per group, and building the snapshot took about a third of its time
    in a run.  This ``__init__`` calls each field's slot descriptor
    directly instead: same parameters, defaults and stored values, and
    the instances stay frozen.  Only plain fields are supported: a default
    factory, an ``init=False`` field or a ``__post_init__`` raises
    ``TypeError``.
    """
    if hasattr(cls, "__post_init__") or any(
        f.default_factory is not MISSING or not f.init for f in fields(cls)
    ):
        raise TypeError(f"{cls.__name__} has fields slot_init cannot set")
    names = [f.name for f in fields(cls)]
    namespace = {f"_set_{name}": getattr(cls, name).__set__ for name in names}
    params = []
    for f in fields(cls):
        if f.default is MISSING:
            params.append(f.name)
        else:
            namespace[f"_default_{f.name}"] = f.default
            params.append(f"{f.name}=_default_{f.name}")
    body = "".join(f"\n    _set_{name}(self, {name})" for name in names)
    exec(f"def __init__(self, {', '.join(params)}):{body}", namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = init  # type: ignore[misc]
    return cls


@slot_init
@dataclass(frozen=True, slots=True)
class MetricsSnapshot:
    """Sliding-window metrics handed to a scaling policy at a control tick.

    The pool facts (``time_ms``, ``window_ms`` and the ``num_*`` and
    ``queue_depth`` counts) are always set.  A windowed field the bus does
    not track (:meth:`TelemetryBus.track`) holds NaN: a run that neither
    keeps its snapshots nor records its decisions computes only the fields
    its policy reads.

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


# The signals the engine can feed the bus, each kept in its own columns.
ARRIVALS = "arrivals"  # on_arrival: arrival times (rate and slope)
WAITS = "waits"  # on_pickup: one wait per member (p95)
DURATIONS = "durations"  # on_completion: service durations (mean service)
PICKUPS = "pickups"  # on_pickup: pickup times and sizes
SERVICES = "services"  # on_pickup + on_completion: busy intervals
DROPS = "drops"  # on_drop
FAILURES = "failures"  # on_failure

#: The windowed snapshot fields, each with the signals computing it reads.
#: A pickup's waits leave the window with it, and a completion's duration
#: with its busy interval, so waits need pickups and durations services.
FIELD_SIGNALS: dict[str, frozenset[str]] = {
    "arrival_rate_per_ms": frozenset({ARRIVALS}),
    "arrival_rate_slope_per_ms2": frozenset({ARRIVALS}),
    "drop_rate": frozenset({DROPS, PICKUPS}),
    "utilization": frozenset({SERVICES}),
    "p95_wait_ms": frozenset({WAITS, PICKUPS}),
    "mean_service_ms": frozenset({DURATIONS, SERVICES}),
    "mean_batch_occupancy": frozenset({PICKUPS}),
    "failure_rate_per_ms": frozenset({FAILURES}),
}

#: Every :class:`MetricsSnapshot` field: the pool facts the caller passes
#: in at a tick, which cost nothing to keep, and the windowed ones.
SNAPSHOT_FIELDS: frozenset[str] = frozenset(f.name for f in fields(MetricsSnapshot))


def signals_for(names: Iterable[str]) -> frozenset[str]:
    """The signals a bus must keep to compute the snapshot fields ``names``."""
    signals: set[str] = set()
    for name in names:
        if name not in SNAPSHOT_FIELDS:
            raise ValueError(f"{name!r} is not a MetricsSnapshot field")
        signals.update(FIELD_SIGNALS.get(name, ()))
    return frozenset(signals)


_NAN = float("nan")


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

    Each signal is kept in append-only columns in feed order, and a
    snapshot finds each window's start by ``bisect`` from the previous
    tick's cursor, so a tick reads each window once and prunes nothing
    event by event.  Every float the snapshot reduces is read from the
    columns in event order, exactly as a full rebuild would: no running
    float sum is kept, since one would drift by an ulp from what the
    window holds.

    A new bus tracks every field; :meth:`track` narrows it to the fields
    somebody reads.
    """

    def __init__(self, window_ms: float) -> None:
        self.window_ms = float(window_ms)
        self._arrivals: list[float] = []
        self._drops: list[float] = []
        self._failures: list[float] = []
        self._pickup_times: list[float] = []
        self._pickup_sizes: list[int] = []
        self._waits: list[float] = []  # one per pickup member, pickup order
        # One closed busy interval per completion: the (start, end) pair
        # the busy-time sum reads, and its duration for the mean.
        self._services: list[tuple[float, float]] = []
        self._durations: list[float] = []
        self._in_service_starts: dict[int, float] = {}  # replica idx -> start
        # Window starts: each column's first live row.  A pickup's waits
        # leave the window with it, so the waits' start is derived from
        # the pickups' (the last ``dispatches`` waits are live).
        self._arrival_lo = self._drop_lo = self._failure_lo = 0
        self._pickup_lo = self._service_lo = 0
        # Bound-method hoists for the per-event feed: the engine calls these
        # once per data-plane event, and reset() and compaction change the
        # columns in place, so the binds stay valid for the bus's whole life.
        self._arrival_append = self._arrivals.append
        self._drop_append = self._drops.append
        self._pickup_time_append = self._pickup_times.append
        self._pickup_size_append = self._pickup_sizes.append
        self._wait_append = self._waits.append
        self._service_append = self._services.append
        self._duration_append = self._durations.append
        self.fields: frozenset[str] = frozenset()
        """The snapshot fields computed; every other field holds NaN."""
        self.signals: frozenset[str] = frozenset()
        """The signals kept: the engine feeds only these."""
        self.track(SNAPSHOT_FIELDS)

    def track(self, names: Iterable[str]) -> None:
        """Compute only the snapshot fields ``names``, keeping only their signals.

        The pool facts are always set.  Call it between runs: a bus whose
        signal set changes forgets what it holds (:meth:`reset`), since a
        newly tracked signal was not fed before.
        """
        self.fields = frozenset(names)
        signals = signals_for(self.fields)
        if signals != self.signals:
            self.signals = signals
            self._keeps_pickups = PICKUPS in signals
            self._keeps_waits = WAITS in signals
            self._keeps_services = SERVICES in signals
            self._keeps_durations = DURATIONS in signals
            self.reset()

    # ------------------------------------------------------------ event feed
    def on_arrival(self, now_ms: float) -> None:
        self._arrival_append(now_ms)

    def on_pickup(self, now_ms: float, replica_index: int, members: Sequence) -> None:
        """One dispatch pickup started on replica ``replica_index``.

        ``members`` are the engine's in-service members, ``(item, ...)``
        tuples; each one's wait is measured from its item's arrival to the
        pickup.  Records the pickup's time and size (1 without batching),
        then one wait per member in pickup order, and opens the replica's
        busy interval: each only when its signal is tracked.
        """
        if self._keeps_pickups:
            self._pickup_time_append(now_ms)
            self._pickup_size_append(len(members))
            if self._keeps_waits:
                for member in members:
                    self._wait_append(now_ms - member[0].arrival_ms)
        if self._keeps_services:
            self._in_service_starts[replica_index] = now_ms

    def on_completion(self, now_ms: float, replica_index: int, service_ms: float) -> None:
        start = self._in_service_starts.pop(replica_index, now_ms - service_ms)
        self._service_append((start, now_ms))
        if self._keeps_durations:
            self._duration_append(now_ms - start)

    def on_drop(self, now_ms: float) -> None:
        self._drop_append(now_ms)

    def on_failure(self, now_ms: float) -> None:
        """One replica crash (the fault layer's failure-detector feed)."""
        self._failures.append(now_ms)

    # ------------------------------------------------------------- snapshot
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
        defaults to ``num_active``.  A windowed field outside
        :attr:`fields` is NaN, and its reduction is skipped.
        """
        window = min(self.window_ms, now_ms) if now_ms > 0 else self.window_ms
        horizon = now_ms - window
        wanted = self.fields
        signals = self.signals
        rate = slope = drop_rate = utilization = _NAN
        p95_wait = mean_service = occupancy = failure_rate = _NAN
        # Each cursor moves to the first row at or after the horizon, the
        # first row a deque pruned with ``while q[0] < horizon: popleft()``
        # would keep.  Arrivals, pickups, completions and failures are fed
        # in time order, so ``bisect_left`` finds it.  Drops are not: a
        # drop inside a per-query pickup is stamped with the member's own
        # (later) start, so the drops' cursor steps row by row.  A column
        # whose dead prefix outgrows its live rows is compacted.
        if ARRIVALS in signals:
            arrivals = self._arrivals
            arrival_lo = bisect_left(arrivals, horizon, self._arrival_lo)
            if arrival_lo > len(arrivals) - arrival_lo:
                arrival_lo = _compact((arrivals,), arrival_lo)
            self._arrival_lo = arrival_lo
            num_arrivals = len(arrivals) - arrival_lo
            if "arrival_rate_per_ms" in wanted:
                rate = num_arrivals / window if window > 0 else 0.0
            if "arrival_rate_slope_per_ms2" in wanted:
                # The window split in half, recent-half rate minus
                # older-half rate over the half width.  Zero for a
                # degenerate (zero-length) window.  Arrivals are fed in
                # time order, so the recent half is the column's tail past
                # the bisection point.
                slope = 0.0
                half = window / 2.0
                if half > 0:
                    recent = len(arrivals) - bisect_left(arrivals, now_ms - half, arrival_lo)
                    older = num_arrivals - recent
                    slope = (recent - older) / half / half

        dispatches = 0
        if PICKUPS in signals:
            pickup_times = self._pickup_times
            sizes = self._pickup_sizes
            pickup_lo = bisect_left(pickup_times, horizon, self._pickup_lo)
            if pickup_lo > len(pickup_times) - pickup_lo:
                pickup_lo = _compact((pickup_times, sizes), pickup_lo)
            self._pickup_lo = pickup_lo
            pickups = len(pickup_times) - pickup_lo
            # Integer sizes: the window's dispatch count is exact.
            dispatches = sum(sizes[pickup_lo:])
            if WAITS in signals:
                # A pickup's size is its count of waits, so the window's
                # waits are the column's last ``dispatches`` rows.
                waits = self._waits
                wait_lo = len(waits) - dispatches
                if wait_lo > dispatches:
                    wait_lo = _compact((waits,), wait_lo)
                if "p95_wait_ms" in wanted:
                    p95_wait = percentile(waits[wait_lo:], 95) if dispatches else 0.0
            if "mean_batch_occupancy" in wanted:
                occupancy = dispatches / pickups if pickups else 0.0

        if SERVICES in signals:
            services = self._services
            lo = bisect_left(services, horizon, self._service_lo, key=_END)
            if lo > len(services) - lo:
                lo = _compact((services, self._durations), lo)
            self._service_lo = lo
            if "utilization" in wanted:
                # Busy time inside the window: closed service intervals
                # clipped to the window, plus the open interval of
                # anything still in service.  The conditionals pick what
                # min(end, now) / max(start, horizon) would, ties
                # included, in the same summation order.
                busy = 0.0
                for start, end in services[lo:]:
                    busy += (now_ms if now_ms < end else end) - (
                        horizon if horizon > start else start
                    )
                for start in self._in_service_starts.values():
                    busy += now_ms - (horizon if horizon > start else start)
                if capacity_replicas is None:
                    capacity_replicas = num_active
                capacity = window * max(capacity_replicas, 1)
                utilization = min(1.0, busy / capacity) if capacity > 0 else 0.0
            if "mean_service_ms" in wanted:
                mean_service = mean(self._durations, lo) if len(services) > lo else 0.0

        if DROPS in signals:
            drops = 0
            if self._drops:
                column = self._drops
                drop_lo = self._drop_lo
                while drop_lo < len(column) and column[drop_lo] < horizon:
                    drop_lo += 1
                if drop_lo > len(column) - drop_lo:
                    drop_lo = _compact((column,), drop_lo)
                self._drop_lo = drop_lo
                drops = len(column) - drop_lo
            attempted = drops + dispatches
            drop_rate = drops / attempted if attempted else 0.0

        if FAILURES in signals:
            failures = 0
            if self._failures:
                column = self._failures
                failure_lo = bisect_left(column, horizon, self._failure_lo)
                if failure_lo > len(column) - failure_lo:
                    failure_lo = _compact((column,), failure_lo)
                self._failure_lo = failure_lo
                failures = len(column) - failure_lo
            failure_rate = failures / window if window > 0 else 0.0

        return MetricsSnapshot(
            time_ms=now_ms,
            window_ms=window,
            num_active=num_active,
            num_draining=num_draining,
            queue_depth=queue_depth,
            arrival_rate_per_ms=rate,
            drop_rate=drop_rate,
            utilization=utilization,
            p95_wait_ms=p95_wait,
            mean_service_ms=mean_service,
            mean_batch_occupancy=occupancy,
            num_provisioning=num_provisioning,
            arrival_rate_slope_per_ms2=slope,
            num_failed_replicas=num_failed_replicas,
            failure_rate_per_ms=failure_rate,
        )

    # ------------------------------------------------------------ lifecycle
    def reset(self) -> None:
        """Forget all telemetry (a new simulation run starts)."""
        for column in (
            self._arrivals, self._drops, self._failures,
            self._pickup_times, self._pickup_sizes, self._waits,
            self._services, self._durations,
        ):
            column.clear()
        self._in_service_starts.clear()
        self._arrival_lo = self._drop_lo = self._failure_lo = 0
        self._pickup_lo = self._service_lo = 0


#: A closed busy interval's end, the key its column is bisected by.
_END = itemgetter(1)


def _compact(columns: tuple[list, ...], lo: int) -> int:
    """Delete the dead prefix ``[:lo]`` of ``columns`` (rows in step).

    The snapshot calls this once a column's dead prefix is longer than its
    live rows, so each row is moved at most once per doubling: compaction
    costs O(1) per event.  Returns the window's new start, 0.
    """
    for column in columns:
        del column[:lo]
    return 0
