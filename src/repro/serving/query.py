"""Queries and query traces.

Each inference query arrives annotated with an (accuracy, latency) constraint
pair ``(A_t, L_t)`` — the interface the whole paper assumes.  A
:class:`QueryTrace` is an ordered stream of such queries; a query's index is
its position in the stream, which is also its arrival position and its row
in a run's results.  A query being served is a :class:`QueuedQuery`, built
from the trace's columns: one per arrival, with the same three fields as a
:class:`Query`, so backends read it as one.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterator, Union

import numpy as np


@dataclass(frozen=True)
class Query:
    """One inference query with its service constraints.

    Attributes
    ----------
    index:
        Position in the stream.
    accuracy_constraint:
        Minimum acceptable top-1 accuracy, as a fraction (e.g. ``0.78``).
    latency_constraint_ms:
        Maximum acceptable serving latency in milliseconds.
    """

    index: int
    accuracy_constraint: float
    latency_constraint_ms: float

    def __post_init__(self) -> None:
        if not (0.0 < self.accuracy_constraint < 1.0):
            raise ValueError(
                f"query {self.index}: accuracy constraint must be in (0, 1), "
                f"got {self.accuracy_constraint}"
            )
        if self.latency_constraint_ms <= 0:
            raise ValueError(
                f"query {self.index}: latency constraint must be positive, "
                f"got {self.latency_constraint_ms}"
            )


class QueuedQuery:
    """One query in flight: its constraints, its arrival and its deadline.

    The engine builds one per arrival from the trace's columns and keeps it
    until the query leaves the system: routing, the queue discipline,
    admission, the backend and every retry read the same object.  It has a
    :class:`Query`'s three fields, so a backend's ``serve_query`` and a
    replica's service estimator take it as their query.  ``deadline_ms``
    is computed once, as ``arrival_ms + latency_constraint_ms``; a retry
    keeps both.  ``service_estimate_ms`` is set after routing when a
    discipline or router reads estimates (slack ordering, queued work).
    """

    __slots__ = (
        "index",
        "accuracy_constraint",
        "latency_constraint_ms",
        "arrival_ms",
        "deadline_ms",
        "service_estimate_ms",
    )

    def __init__(
        self,
        index: int,
        accuracy_constraint: float,
        latency_constraint_ms: float,
        arrival_ms: float,
        service_estimate_ms: float = 0.0,
    ) -> None:
        self.index = index
        self.accuracy_constraint = accuracy_constraint
        self.latency_constraint_ms = latency_constraint_ms
        self.arrival_ms = arrival_ms
        self.deadline_ms = arrival_ms + latency_constraint_ms
        self.service_estimate_ms = service_estimate_ms

    @property
    def query(self) -> Query:
        """The :class:`Query` this item carries, built on each access."""
        return Query(self.index, self.accuracy_constraint, self.latency_constraint_ms)

    def __repr__(self) -> str:
        return (
            f"QueuedQuery(index={self.index}, "
            f"accuracy_constraint={self.accuracy_constraint}, "
            f"latency_constraint_ms={self.latency_constraint_ms}, "
            f"arrival_ms={self.arrival_ms}, "
            f"service_estimate_ms={self.service_estimate_ms})"
        )


#: What a backend's ``serve_query`` and a service estimator are given.
QueryLike = Union[Query, QueuedQuery]


class QueryTrace:
    """An ordered, array-backed stream of queries.

    The constraints live in flat buffers of Python floats (the columns the
    engine builds its :class:`QueuedQuery` items from), and indexing builds
    one :class:`Query` per access, so a 10M-query trace holds no per-query
    objects.  Validation is vectorized once at construction (the same
    checks ``Query.__post_init__`` applies per query).
    """

    __slots__ = ("name", "_acc_list", "_lat_list")

    def __init__(
        self,
        accuracy_constraints,
        latency_constraints_ms,
        *,
        name: str = "trace",
    ) -> None:
        acc = np.asarray(accuracy_constraints, dtype=np.float64)
        lat = np.asarray(latency_constraints_ms, dtype=np.float64)
        if acc.ndim != 1 or lat.ndim != 1:
            raise ValueError("constraint arrays must be one-dimensional")
        if acc.shape != lat.shape:
            raise ValueError("constraint lists must have equal length")
        if acc.size == 0:
            raise ValueError("a query trace needs at least one query")
        acc_ok = (acc > 0.0) & (acc < 1.0)
        if not acc_ok.all():
            i = int(np.argmin(acc_ok))
            raise ValueError(
                f"query {i}: accuracy constraint must be in (0, 1), "
                f"got {acc[i]}"
            )
        lat_ok = lat > 0.0
        if not lat_ok.all():
            i = int(np.argmin(lat_ok))
            raise ValueError(
                f"query {i}: latency constraint must be positive, "
                f"got {lat[i]}"
            )
        self.name = name
        # Python-float lists for the hot path: indexing a list of floats is
        # much cheaper than converting numpy scalars per query, and tolist()
        # round-trips IEEE doubles exactly.
        self._acc_list = acc.tolist()
        self._lat_list = lat.tolist()

    def columns(self) -> tuple[list[float], list[float]]:
        """The accuracy and latency constraint columns (shared, not copied)."""
        return self._acc_list, self._lat_list

    def __len__(self) -> int:
        return len(self._acc_list)

    def __iter__(self) -> Iterator[Query]:
        return map(Query, range(len(self._acc_list)), self._acc_list, self._lat_list)

    def __getitem__(self, idx: int) -> Query:
        i = operator.index(idx)
        n = len(self._acc_list)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError(f"query index {idx} out of range for {n} queries")
        return Query(i, self._acc_list[i], self._lat_list[i])
