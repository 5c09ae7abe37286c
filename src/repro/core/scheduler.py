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

Algorithm 1 runs on indices.  A SubNet is a small discrete config, so every
vector the caching decision reads is a function of a SubNet index: the
window is a ``deque`` of the last ``Q`` served SubNet indices, and the
decision is a function of the window's *multiset* alone.  Encodings count
kernels and channels, so they are integer-valued floats: every partial sum
of a window column is an exactly representable integer, and the mean — hence
the nearest candidate — does not depend on the order of the rows.
:class:`CacheDecisionMemo` therefore computes the paper's rule (the mean of
the window's encodings, then :func:`~repro.core.encoding.nearest_index`) once
per distinct multiset, at most ``C(|X|+Q-1, Q)`` times whatever the run
length, and every scheduler on the same latency table — all clones of one
serving stack — shares it.  :class:`~repro.core.running_average.
RunningAverageNet` remains the vector reference the memo is tested against.
"""

from __future__ import annotations

from collections import deque
from typing import Collection, NamedTuple

import numpy as np

from repro.core.encoding import nearest_index
from repro.core.latency_table import LatencyTable
from repro.core.policies import Policy, subnet_selector
from repro.supernet.supernet import SuperNet


class SchedulerDecision(NamedTuple):
    """The outcome of scheduling one query."""

    query_index: int
    subnet_idx: int
    cache_state_idx: int
    next_cache_state_idx: int
    cache_updated: bool
    predicted_latency_ms: float
    subnet_accuracy: float


class CacheDecisionMemo:
    """Caching decisions over one latency table, memoized by window multiset.

    Holds the vector encodings of the table's SubNets and candidate
    SubGraphs, and maps each window multiset — the sorted tuple of the
    window's SubNet indices — to the candidate nearest to the window's
    average encoding.  The memo is exact only for integer-valued encodings
    (see the module docstring), so construction rejects any other.
    """

    def __init__(self, table: LatencyTable, supernet: SuperNet) -> None:
        self.table = table
        self.subnet_encodings = [sn.encode() for sn in table.subnets]
        self.candidate_encodings = table.candidates.encodings(supernet)
        fractional = [
            part.name
            for part, encoding in (
                *zip(table.subnets, self.subnet_encodings),
                *zip(table.candidates, self.candidate_encodings),
            )
            if not (encoding == np.round(encoding)).all()
        ]
        if fractional:
            raise ValueError(
                "caching-decision memo needs integer-valued encodings; "
                f"not integer-valued: {', '.join(fractional)}"
            )
        self.decisions: dict[tuple[int, ...], int] = {}
        """Window multiset (sorted SubNet indices) -> nearest candidate."""
        self.initial_indices: dict[int, int] = {}
        """Seed -> the random initial cache index a scheduler of that seed
        starts from (:meth:`initial_index`)."""

    def initial_index(self, seed: int) -> int:
        """The initial cache index ``np.random.default_rng(seed)`` draws.

        It depends only on the seed and ``|S|``, so it is drawn once per
        seed and kept: a scheduler built again at a seed already seen (a
        scale-up clone in a repeated run, say) seeds no generator.
        """
        idx = self.initial_indices.get(seed)
        if idx is None:
            rng = np.random.default_rng(seed)
            idx = self.initial_indices[seed] = int(rng.integers(0, self.table.num_subgraphs))
        return idx

    def nearest(self, window: Collection[int]) -> int:
        """The candidate nearest to the average encoding of ``window``."""
        key = tuple(sorted(window))
        idx = self.decisions.get(key)
        if idx is None:
            rows = [self.subnet_encodings[i] for i in window]
            idx = nearest_index(np.mean(np.stack(rows), axis=0), self.candidate_encodings)
            self.decisions[key] = idx
        return idx


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
    memo:
        The :class:`CacheDecisionMemo` of ``table`` to share with other
        schedulers on the same table; ``None`` builds a private one.
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
        memo: CacheDecisionMemo | None = None,
    ) -> None:
        if cache_update_period <= 0:
            raise ValueError("cache_update_period (Q) must be positive")
        self._select = subnet_selector(table, policy)
        if memo is None:
            memo = CacheDecisionMemo(table, supernet)
        elif memo.table is not table:
            raise ValueError("memo belongs to a different latency table")
        self.table = table
        self.supernet = supernet
        self.policy = policy
        self.cache_update_period = cache_update_period
        self.memo = memo
        if initial_cache_idx is None:
            rng = rng or np.random.default_rng(0)
            initial_cache_idx = int(rng.integers(0, table.num_subgraphs))
        if not (0 <= initial_cache_idx < table.num_subgraphs):
            raise IndexError(
                f"initial_cache_idx {initial_cache_idx} outside "
                f"[0, {table.num_subgraphs})"
            )
        self.initial_cache_idx = initial_cache_idx
        self.cache_state_idx = initial_cache_idx
        self._window: deque[int] = deque(maxlen=cache_update_period)
        self._latency_rows = table.latency_rows
        self._accuracies = table.accuracy_list
        self.queries_seen = 0
        self.decisions_made = 0
        """Decisions returned so far (a shared batch decision counts once)."""
        self.cache_updates = 0
        """Decisions that changed the cached SubGraph."""

    # ------------------------------------------------------------ schedule
    def select(self, *, accuracy_constraint: float, latency_constraint_ms: float) -> int:
        """The SubNet :meth:`schedule` would serve now, without advancing.

        Side-effect free: the same policy lookup at the current cache state,
        so routers and queue disciplines can predict service times.
        """
        return self._select(accuracy_constraint, latency_constraint_ms, self.cache_state_idx)

    def schedule(
        self, *, accuracy_constraint: float, latency_constraint_ms: float
    ) -> SchedulerDecision:
        """Make the control decision for the next query in the stream."""
        current_cache = self.cache_state_idx
        seen_before = self.queries_seen
        subnet_idx = self.schedule_shared(accuracy_constraint, latency_constraint_ms)
        next_cache = self.cache_state_idx
        return SchedulerDecision(
            seen_before,
            subnet_idx,
            current_cache,
            next_cache,
            next_cache != current_cache,
            self._latency_rows[subnet_idx][current_cache],
            self._accuracies[subnet_idx],
        )

    def schedule_shared(
        self,
        accuracy_constraint: float,
        latency_constraint_ms: float,
        batch_size: int = 1,
    ) -> int:
        """One SubNet decision shared by a weight-sharing batch of queries.

        Returns the selected SubNet's index and advances the state; a
        changed :attr:`cache_state_idx` afterwards is the caching decision
        to enact.  The caller passes the batch's *strictest* constraints
        (highest accuracy requirement, tightest remaining latency budget);
        all ``batch_size`` queries are served on the selected SubNet, so
        every member enters the caching window as that SubNet and the window
        advances by the whole batch.  If the batch crosses a
        ``cache_update_period`` boundary, exactly **one** caching decision is
        made — after all the batch's members are in the window — so a batch
        costs at most one cache load.  ``batch_size=1`` is the decision
        :meth:`schedule` reports.
        """
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        current_cache = self.cache_state_idx
        subnet_idx = self._select(accuracy_constraint, latency_constraint_ms, current_cache)
        period = self.cache_update_period
        if batch_size == 1:
            self._window.append(subnet_idx)
        else:
            self._window.extend([subnet_idx] * min(batch_size, period))
        seen_before = self.queries_seen
        self.queries_seen = seen = seen_before + batch_size
        self.decisions_made += 1
        if seen // period > seen_before // period:
            next_cache = self.memo.nearest(self._window)
            if next_cache != current_cache:
                self.cache_state_idx = next_cache
                self.cache_updates += 1
        return subnet_idx

    # ------------------------------------------------------------- helpers
    def reset(self, *, initial_cache_idx: int | None = None) -> None:
        """Forget all history (used between experiment repetitions).

        With no argument the cache state returns to the *initial* index from
        construction, so repetitions are independent; pass
        ``initial_cache_idx`` to restart from a different state instead.
        The shared memo is kept: it is a pure function of the table.
        """
        self._window.clear()
        self.queries_seen = 0
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
