"""SubNet selection policies (the per-query half of Algorithm 1).

Two policies are supported, matching the paper:

* ``STRICT_ACCURACY`` — among SubNets whose accuracy meets the query's
  accuracy constraint, serve the one with the lowest latency given the
  current cache state (the served latency may then exceed the query's
  latency constraint).
* ``STRICT_LATENCY`` — among SubNets whose latency (given the current cache
  state) meets the query's latency constraint, serve the most accurate one
  (the served accuracy may then fall short of the accuracy constraint).

Both fall back gracefully when the feasibility set is empty: STRICT_ACCURACY
falls back to the most accurate SubNet, STRICT_LATENCY to the fastest one.
"""

from __future__ import annotations

import enum
from typing import Callable

from repro.core.latency_table import LatencyTable

Selector = Callable[[float, float, int], int]
"""``select(accuracy_constraint, latency_constraint_ms, cache_idx) -> SubNet index``."""


class Policy(str, enum.Enum):
    """Which constraint the scheduler treats as hard."""

    STRICT_ACCURACY = "strict_accuracy"
    STRICT_LATENCY = "strict_latency"


def select_subnet(
    table: LatencyTable,
    policy: Policy,
    *,
    accuracy_constraint: float,
    latency_constraint_ms: float,
    cache_state_idx: int,
) -> int:
    """Pick the SubNet index to serve the current query (Algorithm 1, inner if).

    Parameters
    ----------
    table:
        The SushiAbs latency table.
    policy:
        Hard-constraint policy.
    accuracy_constraint:
        The query's accuracy requirement ``A_t`` (fraction).
    latency_constraint_ms:
        The query's latency requirement ``L_t``.
    cache_state_idx:
        Index (into the candidate set) of the currently cached SubGraph.
    """
    if not (0 <= cache_state_idx < table.num_subgraphs):
        raise IndexError(
            f"cache_state_idx {cache_state_idx} outside [0, {table.num_subgraphs})"
        )
    return subnet_selector(table, policy)(
        accuracy_constraint, latency_constraint_ms, cache_state_idx
    )


def subnet_selector(table: LatencyTable, policy: Policy) -> Selector:
    """``select(accuracy, latency_ms, cache_idx)``: the best SubNet under
    ``policy``, else the policy's fallback.

    The table's ``best_under_*`` lookup is bound here, once, so a server
    that selects per query pays one call and one ``None`` check.  The
    cache index is not range-checked (:func:`select_subnet` does that).
    """
    if policy == Policy.STRICT_ACCURACY:
        best = table.best_under_accuracy
        most_accurate = table.most_accurate

        def select(
            accuracy_constraint: float, latency_constraint_ms: float, cache_idx: int
        ) -> int:
            idx = best(accuracy_constraint, cache_idx)
            # No SubNet reaches the requested accuracy: serve the best we have.
            return most_accurate if idx is None else idx

        return select
    if policy == Policy.STRICT_LATENCY:
        best = table.best_under_latency
        fastest = table.fastest

        def select(
            accuracy_constraint: float, latency_constraint_ms: float, cache_idx: int
        ) -> int:
            idx = best(latency_constraint_ms, cache_idx)
            # No SubNet is fast enough: serve the fastest one.
            return fastest(cache_idx) if idx is None else idx

        return select
    raise ValueError(f"unknown policy {policy!r}")
