"""Baseline serving systems the paper compares SUSHI against (Fig. 16).

Each baseline is a caching rule over indices into a :func:`baseline_table`,
built once per (SuperNet, platform, PB or not) and process by
:func:`~repro.serving.stack.build_serve_table` and kept in the process's
one table cache (:func:`~repro.serving.stack.process_table`), so serving is
table lookups:

* :class:`NoSushiServer` ("No-SUSHI") — no Persistent Buffer, no SGS-aware
  scheduling.
* :class:`StateUnawareCachingServer` ("SUSHI w/o scheduler") — a warm PB
  whose contents ignore the accelerator state.
* :class:`FixedSubNetServer` — one SubNet for every query, the
  non-adaptive deployment the paper's introduction argues against.
"""

from __future__ import annotations

from typing import Sequence

from repro.accelerator.analytic_model import SushiAccelModel
from repro.accelerator.persistent_buffer import CachedSubGraph, PersistentBuffer
from repro.accelerator.platforms import PlatformConfig
from repro.core.candidates import CandidateSet, truncate_to_capacity
from repro.core.metrics import Served
from repro.core.policies import Policy, subnet_selector
from repro.serving.query import QueryLike
from repro.serving.stack import ServeTable, batch_budget_ms, batch_served
from repro.serving.stack import build_serve_table, process_table, supernet_family

def baseline_table(
    supernet_name: str, platform: PlatformConfig, *, with_pb: bool
) -> ServeTable:
    """The process's serve table of :func:`supernet_family` on ``platform``.

    Column 0 is the empty PB.  On a model with a PB, column ``s + 1`` holds
    the truncation of SubNet ``s`` that the state-unaware rule loads, and
    ``switches.switch(c, s + 1)`` is what loading it over column ``c``
    costs.
    """

    def build() -> ServeTable:
        family = supernet_family(supernet_name)
        accel = SushiAccelModel(platform, with_pb=with_pb)
        capacity = accel.pb_capacity_bytes
        whole = [CachedSubGraph.from_subnet(sn) for sn in family.subnets] if with_pb else []
        columns = [CachedSubGraph.empty()] + [
            truncate_to_capacity(sg, capacity, supernet=family.supernet) for sg in whole
        ]
        candidates = CandidateSet(family.supernet.name, tuple(columns), capacity)
        return build_serve_table(family.subnets, candidates, accel, family.accuracy_model)

    return process_table(("baseline", supernet_name.lower(), platform, with_pb), build)


class _TableServer:
    """Policy selection on the empty-PB column; served values from serve entries."""

    def __init__(
        self, tables: ServeTable, *, policy: Policy = Policy.STRICT_ACCURACY
    ) -> None:
        self.tables = tables
        self.policy = policy
        self._select_in = subnet_selector(tables.table, policy)
        self._names = tables.table.subnet_names

    def _select(self, accuracy_constraint: float, latency_constraint_ms: float) -> int:
        return self._select_in(accuracy_constraint, latency_constraint_ms, 0)

    def _serve(
        self, size: int, idx: int, column: int = 0, load_ms: float = 0.0
    ) -> list[Served]:
        """SubNet ``idx`` serving ``size`` queries with column ``column`` cached."""
        table, entry = self.tables.table, self.tables.entries[idx][column]
        return batch_served(size, self._names[idx], table.accuracy_list[idx], entry, load_ms)

    def serve_dispatch_batch(
        self, queries: Sequence[QueryLike], budgets_ms: Sequence[float], accuracy_floor: float
    ) -> list[Served]:
        """Serve a batch on one shared SubNet (weights fetched once)."""
        budget = batch_budget_ms(queries, budgets_ms)
        return self._serve(len(queries), self._select(accuracy_floor, budget))

    def serve_query(
        self, query: QueryLike, budget_ms: float, accuracy_floor: float
    ) -> Served:
        """Serve one query at dispatch time: a one-query batch."""
        return self.serve_dispatch_batch([query], [budget_ms], accuracy_floor)[0]


class NoSushiServer(_TableServer):
    """No PB, no SGS-aware scheduler: every query refetches all weights."""


class FixedSubNetServer(_TableServer):
    """One pinned SubNet for every query (``None``: the most accurate one)."""

    def __init__(self, tables: ServeTable, *, subnet_name: str | None = None) -> None:
        super().__init__(tables)
        names = self._names
        if subnet_name is None:
            subnet_name = names[tables.table.most_accurate]
        elif subnet_name not in names:
            raise ValueError(f"unknown SubNet {subnet_name!r}; available: {names}")
        self._fixed_idx = names.index(subnet_name)

    def estimate_service_ms(self, query: QueryLike) -> float:
        return self.tables.table.latency(self._fixed_idx, 0)

    def _select(self, accuracy_constraint: float, latency_constraint_ms: float) -> int:
        return self._fixed_idx


class StateUnawareCachingServer(_TableServer):
    """Every ``cache_update_period`` queries, load the last served SubNet.

    Selection ignores the PB.  A batch advances the period by its size and
    reloads at most once, after the batch.
    """

    def __init__(
        self,
        tables: ServeTable,
        *,
        policy: Policy = Policy.STRICT_ACCURACY,
        cache_update_period: int = 4,
    ) -> None:
        super().__init__(tables, policy=policy)
        if cache_update_period <= 0:
            raise ValueError("cache_update_period must be positive")
        self.cache_update_period = cache_update_period
        self.reset()

    def reset(self) -> None:
        """Empty the PB and restart the caching-period counter."""
        self.pb: PersistentBuffer = self.tables.switches.accel.make_persistent_buffer()
        self._column = 0
        self._queries_seen = 0

    def _serve(self, size: int, idx: int) -> list[Served]:
        column = self._column
        subnet = self.tables.table.subnets[idx]
        hit_bytes = self.tables.entries[idx][column].hit_bytes
        for _ in range(size):
            self.pb.record_serve(subnet, hit_bytes=hit_bytes)
        seen_before = self._queries_seen
        self._queries_seen += size
        load_ms = 0.0
        period = self.cache_update_period
        if self._queries_seen // period > seen_before // period:
            switch = self.tables.switches.switch(column, idx + 1)
            self.pb.hold(switch.fitted, switch.fetched_bytes)
            self._column = idx + 1
            load_ms = switch.load_ms
        return super()._serve(size, idx, column, load_ms)
