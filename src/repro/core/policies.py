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

from repro.core.latency_table import LatencyTable


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
    if policy == Policy.STRICT_ACCURACY:
        idx = table.best_under_accuracy(accuracy_constraint, cache_state_idx)
        if idx is None:
            # No SubNet reaches the requested accuracy: serve the best we have.
            idx = table.most_accurate
        return idx
    if policy == Policy.STRICT_LATENCY:
        idx = table.best_under_latency(latency_constraint_ms, cache_state_idx)
        if idx is None:
            # No SubNet is fast enough: serve the fastest one.
            idx = table.fastest(cache_state_idx)
        return idx
    raise ValueError(f"unknown policy {policy!r}")
