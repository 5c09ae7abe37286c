"""The paper's baseline servers as they evaluated per query, kept as an oracle.

A literal copy of the three server classes that ``repro.serving.baselines``
held before the baselines became caching rules over a shared serve table:
selection with numpy ``flatnonzero``/``argmin``/``argmax`` over static
arrays, ``SushiAccelModel.subnet_breakdown`` on every query and batch, and
``PersistentBuffer.vector_hit_ratio`` on the live PB.  They speak the
engine's backend protocol — ``serve_query(query, budget_ms,
accuracy_floor)`` and ``serve_dispatch_batch(queries, budgets_ms,
accuracy_floor)`` return served tuples — and ``serve(trace)`` builds its
own records from them.  The table-driven servers must produce the same
served tuples and records, bit for bit:
``tests/properties/test_property_baselines.py`` compares them by ``repr``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.accelerator.analytic_model import SushiAccelModel
from repro.accelerator.persistent_buffer import CachedSubGraph, PersistentBuffer
from repro.core.candidates import truncate_to_capacity
from repro.core.metrics import QueryRecord
from repro.core.policies import Policy
from repro.serving.query import Query, QueryTrace
from repro.supernet.accuracy import AccuracyModel
from repro.supernet.subnet import SubNet
from repro.supernet.supernet import SuperNet


class _StaticPolicyServer:
    """Shared logic: policy-based SubNet selection on static latencies."""

    def __init__(
        self,
        supernet: SuperNet,
        subnets: Sequence[SubNet],
        accel: SushiAccelModel,
        accuracy_model: AccuracyModel | None = None,
        *,
        policy: Policy = Policy.STRICT_ACCURACY,
    ) -> None:
        self.supernet = supernet
        self.subnets = list(subnets)
        self.accel = accel
        self.accuracy_model = accuracy_model or AccuracyModel(supernet)
        self.policy = policy
        # Static latencies: profiled once, with nothing cached.
        self.static_latency_ms = np.array(
            [accel.subnet_latency_ms(sn) for sn in self.subnets]
        )
        self.accuracies = np.array(
            [self.accuracy_model.accuracy(sn) for sn in self.subnets]
        )

    def _select(self, accuracy_constraint: float, latency_constraint_ms: float) -> int:
        if self.policy == Policy.STRICT_ACCURACY:
            feasible = np.flatnonzero(self.accuracies >= accuracy_constraint)
            if feasible.size == 0:
                return int(np.argmax(self.accuracies))
            return int(feasible[int(np.argmin(self.static_latency_ms[feasible]))])
        feasible = np.flatnonzero(self.static_latency_ms <= latency_constraint_ms)
        if feasible.size == 0:
            return int(np.argmin(self.static_latency_ms))
        return int(feasible[int(np.argmax(self.accuracies[feasible]))])

    def _shared_select(
        self,
        queries: Sequence[Query],
        budgets_ms: Sequence[float],
        accuracy_floor: float,
    ) -> int:
        """One SubNet for a whole batch: the given floor, tightest budget.

        Static latencies are per query, so the tightest budget is divided by
        the batch size — a SubNet fitting the scaled budget has a batch
        evaluation (weights once, the rest per member) fitting the original
        budget, the conservative SLO-safe direction (mirrors
        :meth:`~repro.serving.stack.SushiStack.serve_dispatch_batch`).
        """
        if not queries:
            raise ValueError("a dispatch batch needs at least one query")
        if len(budgets_ms) != len(queries):
            raise ValueError("budgets_ms must match the batch length")
        return self._select(accuracy_floor, min(budgets_ms) / len(queries))

    @staticmethod
    def _batch_latency_ms(breakdown, batch_size: int) -> float:
        """Batch evaluation time: weight traffic once, the rest per member.

        The same amortization model as
        :meth:`~repro.serving.stack.SushiStack.serve_dispatch_batch`: within a
        batch the SubNet's weights are fetched and staged once and reused by
        every member, while compute and activation traffic scale with the
        batch — batching helps every system, SUSHI additionally amortizes
        *across* batches via the Persistent Buffer.
        """
        components = breakdown.components
        if batch_size == 1:
            # Bit-identical to the per-query path: total_ms directly, not
            # the algebraically equal shared + 1 x (total - shared).
            return components.total_ms
        shared_ms = components.offchip_weight_ms + components.onchip_weight_ms
        return shared_ms + batch_size * (components.total_ms - shared_ms)

    def _batch_served(
        self,
        queries: Sequence[Query],
        subnet: SubNet,
        breakdown,
        *,
        hit_ratio: float = 0.0,
        cache_load_ms: float = 0.0,
    ) -> list[tuple]:
        """Per-member served tuples of one shared batch evaluation.

        Every member reports the batch evaluation time (members complete
        together); a cache load, if any, rides on the last member — the
        same shape the SUSHI stack's batch path produces.
        """
        batch_ms = self._batch_latency_ms(breakdown, len(queries))
        served_accuracy = self.accuracy_model.accuracy(subnet)
        last = len(queries) - 1
        return [
            (
                subnet.name,
                served_accuracy,
                batch_ms,
                hit_ratio,
                breakdown.offchip_energy_mj,
                cache_load_ms if i == last else 0.0,
            )
            for i in range(len(queries))
        ]

    def serve(self, trace: QueryTrace) -> list[QueryRecord]:
        """Closed loop: every query at its nominal budget and floor."""
        return [
            QueryRecord(
                query_index=query.index,
                accuracy_constraint=query.accuracy_constraint,
                latency_constraint_ms=query.latency_constraint_ms,
                subnet_name=served[0],
                served_accuracy=served[1],
                served_latency_ms=served[2],
                cache_hit_ratio=served[3],
                offchip_energy_mj=served[4],
                cache_load_ms=served[5],
            )
            for query in trace
            for served in [
                self.serve_query(
                    query, query.latency_constraint_ms, query.accuracy_constraint
                )
            ]
        ]


class NoSushiServer(_StaticPolicyServer):
    """No PB, no SGS-aware scheduler: every query refetches all weights."""

    def serve_query(self, query: Query, budget_ms: float, accuracy_floor: float) -> tuple:
        """Serve one query at dispatch time (stateless across queries)."""
        idx = self._select(accuracy_floor, budget_ms)
        subnet = self.subnets[idx]
        breakdown = self.accel.subnet_breakdown(subnet, cached=None)
        return (
            subnet.name,
            self.accuracy_model.accuracy(subnet),
            breakdown.latency_ms,
            0.0,
            breakdown.offchip_energy_mj,
            0.0,
        )

    def serve_dispatch_batch(
        self, queries: Sequence[Query], budgets_ms: Sequence[float], accuracy_floor: float
    ) -> list[tuple]:
        """Serve a batch on one shared SubNet (weights fetched once)."""
        idx = self._shared_select(queries, budgets_ms, accuracy_floor)
        subnet = self.subnets[idx]
        return self._batch_served(
            queries, subnet, self.accel.subnet_breakdown(subnet, cached=None)
        )


class FixedSubNetServer(_StaticPolicyServer):
    """Serve one pinned SubNet for every query (no PB, no adaptation).

    Models a conventional deployment of a single network: query constraints
    are recorded but never influence what is served.  ``subnet_name=None``
    pins the most accurate SubNet of the family.
    """

    def __init__(
        self,
        supernet: SuperNet,
        subnets: Sequence[SubNet],
        accel: SushiAccelModel,
        accuracy_model: AccuracyModel | None = None,
        *,
        subnet_name: str | None = None,
    ) -> None:
        super().__init__(supernet, subnets, accel, accuracy_model)
        if subnet_name is None:
            self._fixed_idx = int(np.argmax(self.accuracies))
        else:
            names = [sn.name for sn in self.subnets]
            try:
                self._fixed_idx = names.index(subnet_name)
            except ValueError as exc:
                raise ValueError(
                    f"unknown SubNet {subnet_name!r}; available: {names}"
                ) from exc

    @property
    def fixed_subnet(self) -> SubNet:
        return self.subnets[self._fixed_idx]

    def estimate_service_ms(self, query: Query) -> float:
        return float(self.static_latency_ms[self._fixed_idx])

    def serve_query(self, query: Query, budget_ms: float, accuracy_floor: float) -> tuple:
        subnet = self.fixed_subnet
        breakdown = self.accel.subnet_breakdown(subnet, cached=None)
        return (
            subnet.name,
            self.accuracy_model.accuracy(subnet),
            breakdown.latency_ms,
            0.0,
            breakdown.offchip_energy_mj,
            0.0,
        )

    def serve_dispatch_batch(
        self, queries: Sequence[Query], budgets_ms: Sequence[float], accuracy_floor: float
    ) -> list[tuple]:
        """Serve a batch on the pinned SubNet (weights fetched once)."""
        if not queries:
            raise ValueError("a dispatch batch needs at least one query")
        subnet = self.fixed_subnet
        return self._batch_served(
            queries, subnet, self.accel.subnet_breakdown(subnet, cached=None)
        )


class StateUnawareCachingServer(_StaticPolicyServer):
    """PB present, but caching and selection ignore the accelerator state.

    Every ``cache_update_period`` queries the PB is reloaded with a truncation
    of the most recently served SubNet — a plausible heuristic that needs no
    hardware abstraction, which is exactly what the paper's "SUSHI w/o
    scheduler" ablation isolates.
    """

    def __init__(
        self,
        supernet: SuperNet,
        subnets: Sequence[SubNet],
        accel: SushiAccelModel,
        accuracy_model: AccuracyModel | None = None,
        *,
        policy: Policy = Policy.STRICT_ACCURACY,
        cache_update_period: int = 4,
    ) -> None:
        super().__init__(supernet, subnets, accel, accuracy_model, policy=policy)
        if cache_update_period <= 0:
            raise ValueError("cache_update_period must be positive")
        self.cache_update_period = cache_update_period
        self.pb: PersistentBuffer = accel.make_persistent_buffer()
        self._queries_seen = 0

    def begin_stream(self) -> None:
        """Restart the caching-period counter (the PB stays warm)."""
        self._queries_seen = 0

    def serve_query(self, query: Query, budget_ms: float, accuracy_floor: float) -> tuple:
        """Serve one query at dispatch time; caches every ``Q`` queries."""
        idx = self._select(accuracy_floor, budget_ms)
        subnet = self.subnets[idx]
        breakdown = self.accel.subnet_breakdown(subnet, self.pb.cached)
        hit_ratio = self.pb.vector_hit_ratio(subnet)
        self.pb.record_serve(subnet)
        self._queries_seen += 1

        cache_load_ms = 0.0
        if self._queries_seen % self.cache_update_period == 0:
            subgraph = truncate_to_capacity(
                CachedSubGraph.from_subnet(subnet),
                self.pb.capacity_bytes,
                supernet=self.supernet,
            )
            fetched = self.pb.load(subgraph)
            cache_load_ms = self.accel.cache_load_latency_ms(fetched)

        return (
            subnet.name,
            self.accuracy_model.accuracy(subnet),
            breakdown.latency_ms,
            hit_ratio,
            breakdown.offchip_energy_mj,
            cache_load_ms,
        )

    def serve(self, trace: QueryTrace) -> list[QueryRecord]:
        self.begin_stream()
        return super().serve(trace)

    def serve_dispatch_batch(
        self, queries: Sequence[Query], budgets_ms: Sequence[float], accuracy_floor: float
    ) -> list[tuple]:
        """Serve a batch on one shared SubNet; at most one cache reload.

        The caching-period counter advances by the whole batch; if it crosses
        a period boundary the PB is reloaded once — after the batch — with
        the truncation of the (shared) served SubNet, mirroring the per-query
        heuristic.
        """
        idx = self._shared_select(queries, budgets_ms, accuracy_floor)
        subnet = self.subnets[idx]
        breakdown = self.accel.subnet_breakdown(subnet, self.pb.cached)
        hit_ratio = self.pb.vector_hit_ratio(subnet)
        for _ in queries:
            self.pb.record_serve(subnet)
        seen_before = self._queries_seen
        self._queries_seen += len(queries)

        cache_load_ms = 0.0
        period = self.cache_update_period
        if self._queries_seen // period > seen_before // period:
            subgraph = truncate_to_capacity(
                CachedSubGraph.from_subnet(subnet),
                self.pb.capacity_bytes,
                supernet=self.supernet,
            )
            fetched = self.pb.load(subgraph)
            cache_load_ms = self.accel.cache_load_latency_ms(fetched)

        return self._batch_served(
            queries,
            subnet,
            breakdown,
            hit_ratio=hit_ratio,
            cache_load_ms=cache_load_ms,
        )
