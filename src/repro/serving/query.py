"""Queries and query traces.

Each inference query arrives annotated with an (accuracy, latency) constraint
pair ``(A_t, L_t)`` — the interface the whole paper assumes.  A
:class:`QueryTrace` is an ordered stream of such queries; a query's index is
its position in the stream, which is also its arrival position and its row
in a run's results.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterator

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


class QueryTrace:
    """An ordered, array-backed stream of queries.

    The constraints live in flat buffers and :class:`Query` objects are
    built lazily, one per access (``query_at``), so a 10M-query trace holds
    no per-query objects.  Validation is vectorized once at construction
    (the same checks ``Query.__post_init__`` applies per query), so
    ``query_at`` skips per-object checks.
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

    def query_at(self, index: int) -> Query:
        """Build query ``index`` (validation already done array-wide).

        Bypasses the dataclass constructor: ``__post_init__`` re-checks per
        field, and on a 10M-query trace that is the difference between a
        bounds check per query and a vectorized one per run.
        """
        query = Query.__new__(Query)
        d = query.__dict__
        d["index"] = index
        d["accuracy_constraint"] = self._acc_list[index]
        d["latency_constraint_ms"] = self._lat_list[index]
        return query

    def __len__(self) -> int:
        return len(self._acc_list)

    def __iter__(self) -> Iterator[Query]:
        return map(self.query_at, range(len(self._acc_list)))

    def __getitem__(self, idx: int) -> Query:
        i = operator.index(idx)
        n = len(self._acc_list)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError(f"query index {idx} out of range for {n} queries")
        return self.query_at(i)
