"""Pluggable queue disciplines for replica queues.

A discipline decides *which waiting query a replica serves next*.  Three are
provided:

* ``fifo`` — arrival order (the classic M/G/1 queue; matches the original
  single-server simulator).
* ``edf`` — earliest deadline first, where a query's deadline is its arrival
  time plus its latency constraint.  Serving the most urgent query first is
  the canonical SLO-aware discipline.
* ``priority_by_slack`` — least slack first, where slack is the deadline
  minus the query's *estimated service time*: a query with a tight deadline
  and a long expected service is more urgent than one with the same deadline
  that will finish quickly.

All orderings break ties by query index (the arrival order), so every run
is deterministic.
"""

from __future__ import annotations

import abc
import heapq
from collections import deque

from repro.serving.query import QueuedQuery


class QueueDiscipline(abc.ABC):
    """Order in which a replica drains its waiting queries."""

    name: str
    needs_service_estimates: bool = False
    """True when ordering reads ``service_estimate_ms`` (engine computes it
    lazily — estimating costs a latency-table lookup per arrival)."""

    @abc.abstractmethod
    def push(self, item: QueuedQuery) -> None:
        """Add a waiting query."""

    @abc.abstractmethod
    def pop(self) -> QueuedQuery | None:
        """Remove and return the next query to serve (None when empty)."""

    @abc.abstractmethod
    def __len__(self) -> int: ...

    def clear(self) -> None:
        while self.pop() is not None:
            pass


class FIFOQueue(QueueDiscipline):
    """First-in first-out (arrival order)."""

    name = "fifo"

    def __init__(self) -> None:
        self._queue: deque[QueuedQuery] = deque()

    def push(self, item: QueuedQuery) -> None:
        self._queue.append(item)

    def pop(self) -> QueuedQuery | None:
        return self._queue.popleft() if self._queue else None

    def __len__(self) -> int:
        return len(self._queue)


class _HeapQueue(QueueDiscipline):
    """Shared heap machinery for priority disciplines: subclasses push
    ``(key, index, item)``, so equal keys pop in index order."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, QueuedQuery]] = []

    def pop(self) -> QueuedQuery | None:
        if not self._heap:
            return None
        return heapq.heappop(self._heap)[2]

    def __len__(self) -> int:
        return len(self._heap)


class EDFQueue(_HeapQueue):
    """Earliest (absolute) deadline first."""

    name = "edf"

    def push(self, item: QueuedQuery) -> None:
        heapq.heappush(self._heap, (item.deadline_ms, item.index, item))


class SlackPriorityQueue(_HeapQueue):
    """Least slack first: deadline minus estimated service time.

    Because the candidates in a queue share the same "now", ordering by
    remaining slack at pop time equals ordering by this static key, so a
    heap suffices.
    """

    name = "priority_by_slack"
    needs_service_estimates = True

    def push(self, item: QueuedQuery) -> None:
        # Keyed on when service must *start* by.
        heapq.heappush(
            self._heap,
            (item.deadline_ms - item.service_estimate_ms, item.index, item),
        )


_DISCIPLINES = {
    FIFOQueue.name: FIFOQueue,
    EDFQueue.name: EDFQueue,
    SlackPriorityQueue.name: SlackPriorityQueue,
}

#: Names of the registered queue disciplines.
DISCIPLINE_NAMES: tuple[str, ...] = tuple(sorted(_DISCIPLINES))


def make_discipline(spec: str | QueueDiscipline) -> QueueDiscipline:
    """Build a fresh discipline from a name, or pass an instance through."""
    if isinstance(spec, QueueDiscipline):
        return spec
    try:
        return _DISCIPLINES[spec]()
    except KeyError as exc:
        raise ValueError(
            f"unknown queue discipline {spec!r}; available: {sorted(_DISCIPLINES)}"
        ) from exc
