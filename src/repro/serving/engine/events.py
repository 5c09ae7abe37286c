"""Discrete-event machinery: the event queue of the serving engine.

The engine advances simulated time through a priority queue of timestamped
events.  Six event kinds exist: a query *arrival* (it enters the system
and is routed to a replica's queue), a replica *completion* (a replica
finishes its in-service query and pulls the next one), a *fault* onset
(a sampled crash or straggle interval from the fault-injection layer hits
a replica), a *recovery* (a straggle interval ends, or a retried query
re-enters routing after its backoff), a replica *provisioning* hand-over
(a cold scale-up replica finishes its ``startup_delay_ms`` and joins
routing), and an autoscaler *control* tick (the scaling policy observes
the pool and may resize it).

Tie-breaking at equal timestamps (the engine's determinism contract):
completions are processed before arrivals so a replica freed at time ``t``
is visible to routing decisions made at ``t``; faults and recoveries run
after the data plane (a completion or arrival at exactly ``t`` still sees
the pre-fault pool, so a crash never races a same-instant completion) but
before provisioning and control, so the control plane's view at ``t`` is
always the *post*-fault pool; provisioning hand-overs run next so a
replica warm at ``t`` is active in the tick's snapshot at ``t``; control
ticks run last so the policy sees every data-plane and fault event up to
and including ``t``.  Remaining ties resolve by insertion order, which
keeps every run deterministic.
"""

from __future__ import annotations

import enum
import heapq
from typing import Any, Iterator


class EventKind(enum.IntEnum):
    """Event kinds, ordered by processing priority at equal timestamps."""

    COMPLETION = 0
    ARRIVAL = 1
    FAULT = 2
    RECOVERY = 3
    PROVISIONING = 4
    CONTROL = 5


_ARRIVAL = int(EventKind.ARRIVAL)


class ArrayEventQueue:
    """The engine's event queue: an arrival cursor merged with a small heap.

    The engine's arrival buffer is already time-sorted (arrival processes
    are cumulative), so arrivals stay a plain cursor over the buffer and
    only the *dynamic* events — COMPLETION, FAULT, RECOVERY, PROVISIONING
    and CONTROL — are heaped, as raw ``(time_ms, kind, seq, payload)``
    tuples; only a handful are ever in flight.  The order is the engine's
    determinism contract:

    * time first;
    * at equal timestamps, :class:`EventKind` order (completions before
      arrivals before faults/recoveries before provisioning hand-overs
      before control ticks);
    * remaining ties by insertion order.  Dynamic events are never
      ARRIVAL-kind, so (time, kind) fully orders a dynamic event against
      the cursor, and same-kind dynamic ties fall back to this queue's own
      insertion counter.

    Iterating yields ``(time_ms, kind, payload)`` until the queue is empty;
    events pushed while iterating are seen.  An ARRIVAL's payload is the
    *arrival index* into the buffer, which is also the query's index in
    its trace; a dynamic event's payload is whatever was pushed with it.
    """

    def __init__(self, arrival_times_ms: list[float]) -> None:
        # A plain Python list: float comparisons against heap entries are
        # several times faster than indexing a numpy array per event.  The
        # caller's list is read as is, not copied, and must not change.
        self._arrivals = arrival_times_ms
        self._cursor = 0
        self._heap: list[tuple[float, int, int, Any]] = []
        self._counter = 0

    def push(self, time_ms: float, kind: int, payload: Any) -> None:
        """Schedule a dynamic (non-ARRIVAL) event."""
        heapq.heappush(self._heap, (time_ms, kind, self._counter, payload))
        self._counter += 1

    def __iter__(self) -> Iterator[tuple[float, int, Any]]:
        arrivals = self._arrivals
        num_arrivals = len(arrivals)
        heap = self._heap
        heappop = heapq.heappop
        i = self._cursor
        while i < num_arrivals:
            arrival_ms = arrivals[i]
            while heap:
                head = heap[0]
                # A dynamic event wins on a strictly earlier time, or on a
                # tie when its kind precedes ARRIVAL (i.e. COMPLETION).
                if head[0] < arrival_ms or (
                    head[0] == arrival_ms and head[1] < _ARRIVAL
                ):
                    heappop(heap)
                    yield head[0], head[1], head[3]
                else:
                    break
            i += 1
            self._cursor = i
            yield arrival_ms, _ARRIVAL, i - 1
        while heap:
            time_ms, kind, _, payload = heappop(heap)
            yield time_ms, kind, payload

    def __bool__(self) -> bool:
        return self._cursor < len(self._arrivals) or bool(self._heap)
