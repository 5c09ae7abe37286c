"""SushiSched: the SGS-aware query scheduler (Algorithm 1).

For every query the scheduler makes a two-part control decision:

1. **Per-query SubNet selection** — pick the SubNet to serve under the
   query's (accuracy, latency) constraints, using the SushiAbs latency table
   evaluated at the *current* cache state.
2. **Across-query SubGraph caching** — every ``Q`` queries, pick the next
   SubGraph to cache: the candidate closest (Euclidean distance over the
   vector encodings) to the running average of the last ``Q`` served SubNets.

The scheduler is deliberately hardware-agnostic: its only view of the
accelerator is the latency table and the index of the cached SubGraph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.encoding import nearest_index
from repro.core.latency_table import LatencyTable
from repro.core.policies import Policy, select_subnet
from repro.core.running_average import RunningAverageNet
from repro.supernet.supernet import SuperNet


@dataclass(frozen=True)
class SchedulerDecision:
    """The outcome of scheduling one query."""

    query_index: int
    subnet_idx: int
    cache_state_idx: int
    next_cache_state_idx: int
    cache_updated: bool
    predicted_latency_ms: float
    subnet_accuracy: float


class SushiSched:
    """SGS-aware scheduler implementing Algorithm 1 of the paper.

    Parameters
    ----------
    table:
        SushiAbs latency table over (SubNets x candidate SubGraphs).
    supernet:
        The SuperNet the SubNets/SubGraphs belong to (needed for encodings).
    policy:
        ``STRICT_ACCURACY`` or ``STRICT_LATENCY``.
    cache_update_period:
        ``Q`` — how many queries to amortize each caching decision over.
    initial_cache_idx:
        Index of the SubGraph assumed cached before the first update; the
        paper initializes the cache state to a random SubGraph, so ``None``
        picks one with ``rng``.
    rng:
        Source of randomness for the initial cache state.
    """

    def __init__(
        self,
        table: LatencyTable,
        supernet: SuperNet,
        *,
        policy: Policy = Policy.STRICT_ACCURACY,
        cache_update_period: int = 4,
        initial_cache_idx: int | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        if cache_update_period <= 0:
            raise ValueError("cache_update_period (Q) must be positive")
        self.table = table
        self.supernet = supernet
        self.policy = policy
        self.cache_update_period = cache_update_period
        rng = rng or np.random.default_rng(0)
        if initial_cache_idx is None:
            initial_cache_idx = int(rng.integers(0, table.num_subgraphs))
        if not (0 <= initial_cache_idx < table.num_subgraphs):
            raise IndexError(
                f"initial_cache_idx {initial_cache_idx} outside "
                f"[0, {table.num_subgraphs})"
            )
        self.initial_cache_idx = initial_cache_idx
        self.cache_state_idx = initial_cache_idx
        self.avg_net = RunningAverageNet(
            dimension=2 * supernet.num_layers, window=cache_update_period
        )
        self._subnet_encodings = [sn.encode() for sn in table.subnets]
        self._candidate_encodings = table.candidates.encodings(supernet)
        self._queries_seen = 0
        self.decisions_made = 0
        """Decisions returned so far (a shared batch decision counts once)."""
        self.cache_updates = 0
        """Decisions that changed the cached SubGraph."""

    # ------------------------------------------------------------ schedule
    def schedule(
        self, *, accuracy_constraint: float, latency_constraint_ms: float
    ) -> SchedulerDecision:
        """Make the control decision for the next query in the stream."""
        return self.schedule_shared(
            accuracy_constraint=accuracy_constraint,
            latency_constraint_ms=latency_constraint_ms,
            batch_size=1,
        )

    def schedule_shared(
        self,
        *,
        accuracy_constraint: float,
        latency_constraint_ms: float,
        batch_size: int = 1,
    ) -> SchedulerDecision:
        """One SubNet decision shared by a weight-sharing batch of queries.

        The caller passes the batch's *strictest* constraints (highest
        accuracy requirement, tightest remaining latency budget); all
        ``batch_size`` queries are served on the selected SubNet, so every
        member enters the running average on that SubNet's encoding and the
        caching window advances by the whole batch.  If the batch crosses a
        ``cache_update_period`` boundary, exactly **one** caching decision is
        made — after all the batch's encodings are in the window — so a batch
        costs at most one cache load.  ``batch_size=1`` is identical to
        :meth:`schedule`.
        """
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        current_cache = self.cache_state_idx
        subnet_idx = select_subnet(
            self.table,
            self.policy,
            accuracy_constraint=accuracy_constraint,
            latency_constraint_ms=latency_constraint_ms,
            cache_state_idx=current_cache,
        )
        encoding = self._subnet_encodings[subnet_idx]
        if batch_size == 1:
            self.avg_net.update(encoding)
        else:
            self.avg_net.update_many(
                np.broadcast_to(encoding, (batch_size, encoding.shape[0]))
            )
        seen_before = self._queries_seen
        self._queries_seen += batch_size

        cache_updated = False
        next_cache = current_cache
        period = self.cache_update_period
        if self._queries_seen // period > seen_before // period:
            next_cache = self._predict_next_subgraph()
            cache_updated = next_cache != current_cache
            self.cache_state_idx = next_cache

        self.decisions_made += 1
        self.cache_updates += cache_updated
        return SchedulerDecision(
            query_index=seen_before,
            subnet_idx=subnet_idx,
            cache_state_idx=current_cache,
            next_cache_state_idx=next_cache,
            cache_updated=cache_updated,
            predicted_latency_ms=self.table.latency(subnet_idx, current_cache),
            subnet_accuracy=self.table.accuracy(subnet_idx),
        )

    def _predict_next_subgraph(self) -> int:
        """The candidate SubGraph closest to the running-average SubNet."""
        target = self.avg_net.value()
        return nearest_index(target, self._candidate_encodings)

    # ------------------------------------------------------------- helpers
    @property
    def queries_seen(self) -> int:
        return self._queries_seen

    def reset(self, *, initial_cache_idx: int | None = None) -> None:
        """Forget all history (used between experiment repetitions).

        With no argument the cache state returns to the *initial* index from
        construction, so repetitions are independent; pass
        ``initial_cache_idx`` to restart from a different state instead.
        """
        self.avg_net.reset()
        self._queries_seen = 0
        self.decisions_made = 0
        self.cache_updates = 0
        if initial_cache_idx is None:
            self.cache_state_idx = self.initial_cache_idx
        else:
            if not (0 <= initial_cache_idx < self.table.num_subgraphs):
                raise IndexError(
                    f"initial_cache_idx {initial_cache_idx} outside "
                    f"[0, {self.table.num_subgraphs})"
                )
            self.cache_state_idx = initial_cache_idx

    def cache_update_count(self) -> int:
        """How many times the cached SubGraph actually changed."""
        return self.cache_updates
