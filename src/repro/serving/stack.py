"""SUSHI: the vertically integrated serving stack.

Wires the three components together exactly as Fig. 4 describes: queries
enter with (accuracy, latency) constraints, SushiSched consults SushiAbs (the
latency table) to pick the SubNet and — every ``Q`` queries — the next cached
SubGraph; SushiAccel (the analytic accelerator model plus its Persistent
Buffer) then serves the query and enacts the caching decision.

The accelerator model runs only at set-up: :func:`build_serve_table`
evaluates every (SubNet, candidate SubGraph) pair once, from per-SubNet
layer profiles, and both the latency table and the per-pair
:class:`ServeEntry` records the serve path reads come from that one pass.
Beside them sits the cache-switch table (:class:`CacheSwitchTable`): what
switching the PB between each (held, new) pair of contents costs, computed
at a pair's first use.  Together they form the :class:`ServeTable`, which
depends on the SuperNet, the platform and ``|S|`` only (the serve key).
The process keeps one of each (:func:`process_table`, which keeps the
baseline backends' tables too), built at its first use with one
caching-decision memo (:class:`~repro.core.scheduler.CacheDecisionMemo`),
and every stack of that key serves from them, whatever its policy, seed or
``Q``: serving a query and switching the PB are table lookups, and a stack
encodes nothing.

The stack serves *one query at a time* through :meth:`SushiStack.serve_query`
— the interface the discrete-event engine dispatches against, with the
query's remaining latency budget once queueing delay is known and its
accuracy floor — and returns plain numbers (a
:data:`~repro.core.metrics.Served` tuple), which the engine writes into its
result row.  The stack builds no records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Sequence, TypeVar

from repro.accelerator.analytic_model import SushiAccelModel
from repro.accelerator.persistent_buffer import CachedSubGraph, PersistentBuffer
from repro.accelerator.platforms import ANALYTIC_DEFAULT, PlatformConfig
from repro.core.candidates import CandidateSet, build_candidate_set
from repro.core.latency_table import LatencyTable
from repro.core.metrics import Served
from repro.core.policies import Policy
from repro.core.scheduler import CacheDecisionMemo, SushiSched
from repro.serving.query import QueryLike
from repro.supernet.accuracy import AccuracyModel
from repro.supernet.subnet import SubNet
from repro.supernet.supernet import SuperNet
from repro.supernet.zoo import load_supernet, paper_pareto_subnets


@dataclass(frozen=True)
class SushiStackConfig:
    """Configuration of a SUSHI serving stack instance.

    Attributes
    ----------
    supernet_name:
        Which SuperNet family to serve (``"ofa_resnet50"`` / ``"ofa_mobilenetv3"``).
    platform:
        Accelerator platform configuration.
    policy:
        Scheduling policy (STRICT_ACCURACY or STRICT_LATENCY).
    cache_update_period:
        ``Q``, the number of queries between caching decisions.
    candidate_set_size:
        Target ``|S|`` (None keeps the structural candidates only).
    seed:
        Seed for the scheduler's random initial cache state.
    """

    supernet_name: str = "ofa_resnet50"
    platform: PlatformConfig = ANALYTIC_DEFAULT
    policy: Policy = Policy.STRICT_ACCURACY
    cache_update_period: int = 4
    candidate_set_size: int | None = None
    seed: int = 0


@dataclass(frozen=True)
class SuperNetFamily:
    """The immutable substrate shared by every backend of one SuperNet."""

    supernet: SuperNet
    subnets: tuple[SubNet, ...]
    accuracy_model: AccuracyModel


_FAMILIES: dict[str, SuperNetFamily] = {}


def supernet_family(supernet_name: str) -> SuperNetFamily:
    """SuperNet / SubNet family / accuracy model, built once per process."""
    key = supernet_name.lower()
    if key not in _FAMILIES:
        supernet = load_supernet(supernet_name)
        _FAMILIES[key] = SuperNetFamily(
            supernet=supernet,
            subnets=tuple(paper_pareto_subnets(supernet)),
            accuracy_model=AccuracyModel(supernet),
        )
    return _FAMILIES[key]


class ServeEntry(NamedTuple):
    """Serving one SubNet once with one candidate SubGraph in the PB.

    ``shared_ms`` is the weight traffic (off-chip fetch + on-chip staging)
    that a weight-sharing batch pays once.  Plain numbers only, no per-layer
    breakdown, so the ``|X| x |S|`` entries every clone shares stay small.
    """

    total_ms: float
    shared_ms: float
    offchip_energy_mj: float
    vector_hit_ratio: float
    hit_bytes: int


ServeEntries = tuple[tuple[ServeEntry, ...], ...]


class CacheSwitch(NamedTuple):
    """Switching the PB from what it holds to one candidate SubGraph.

    ``fitted`` is the candidate as the PB holds it (fitted to the
    capacity), ``fetched_bytes`` the off-chip bytes the switch loads and
    ``load_ms`` their load latency.
    """

    fitted: CachedSubGraph
    fetched_bytes: int
    load_ms: float


class CacheSwitchTable:
    """What switching the PB between candidate SubGraphs costs.

    A switch's cost depends on nothing but the (held, new) pair, so each
    entry is computed once, at its first use, and kept: every stack sharing
    the table (clones included) reads it, and a run pays only for the pairs
    it visits, not for all ``(|S| + 1) x |S|`` of them.  ``fitted[j]`` is
    candidate ``j`` as the PB holds it.
    """

    def __init__(self, accel: SushiAccelModel, fitted: Sequence[CachedSubGraph]) -> None:
        self.accel = accel
        self.fitted = tuple(fitted)
        # Row -1 (the last) is the empty PB every stack starts from.
        self._held = (*self.fitted, CachedSubGraph.empty())
        self._rows: list[list[CacheSwitch | None]] = [
            [None] * len(self.fitted) for _ in self._held
        ]

    def switch(self, held: int, new: int) -> CacheSwitch:
        """The PB holding candidate ``held`` (-1: empty) switches to ``new``."""
        row = self._rows[held]
        entry = row[new]
        if entry is None:
            fitted = self.fitted[new]
            fetched = fitted.fetch_bytes(self._held[held])
            entry = row[new] = CacheSwitch(
                fitted, fetched, self.accel.cache_load_latency_ms(fetched)
            )
        return entry


class ServeTable(NamedTuple):
    """Everything serving reads for one serve key, built once."""

    table: LatencyTable
    entries: ServeEntries
    switches: CacheSwitchTable


def build_serve_table(
    subnets: Sequence[SubNet],
    candidates: CandidateSet,
    accel: SushiAccelModel,
    accuracy_model: AccuracyModel,
) -> ServeTable:
    """The latency table, ``entries[i][j]`` and the cache-switch table.

    Candidate ``j`` is evaluated as the PB holds it after loading it — fitted
    to the PB capacity — so the table plans with the latencies serving
    delivers.  The accelerator model profiles each SubNet's layers once, and
    each pair intersects the candidate with the SubNet once: the
    breakdown's cached bytes are the per-layer overlaps, so they are the
    pair's PB hit bytes.  The switch table starts from the fitted
    candidates and fills its entries as they are used.
    """
    pb = accel.make_persistent_buffer()
    columns = []
    fitted = []
    for candidate in candidates:
        pb.load(candidate)
        fitted.append(pb.cached)
        column = []
        for subnet in subnets:
            breakdown = accel.subnet_breakdown(subnet, pb.cached)
            parts = breakdown.components
            column.append(
                ServeEntry(
                    total_ms=parts.total_ms,
                    shared_ms=parts.offchip_weight_ms + parts.onchip_weight_ms,
                    offchip_energy_mj=breakdown.offchip_energy_mj,
                    vector_hit_ratio=pb.vector_hit_ratio(subnet),
                    # Integer byte counts, each within its layer's
                    # weights: the float sum is exact.
                    hit_bytes=int(breakdown.cached_weight_bytes),
                )
            )
        columns.append(column)
    entries = tuple(zip(*columns))
    table = LatencyTable(
        subnets,
        candidates,
        [[entry.total_ms for entry in row] for row in entries],
        [accuracy_model.accuracy(subnet) for subnet in subnets],
    )
    return ServeTable(table, entries, CacheSwitchTable(accel, fitted))


_T = TypeVar("_T")

_TABLES: dict[tuple, Any] = {}
"""The process's serve tables, by kind and key, each built at its first use.

Forked workers inherit them copy-on-write."""


def process_table(key: tuple, build: Callable[[], _T]) -> _T:
    """The process's table under ``key``: ``build()`` at its first use, then kept."""
    table = _TABLES.get(key)
    if table is None:
        table = _TABLES[key] = build()
    return table


def _sushi_tables(config: SushiStackConfig) -> tuple[ServeTable, CacheDecisionMemo]:
    """The serve table of ``config``'s serve key and its caching-decision memo.

    The serve key is (SuperNet, platform, ``|S|``), never policy, seed or
    ``Q``: configs that differ only in those share one table and one memo,
    each a pure function of the key.
    """

    def build() -> tuple[ServeTable, CacheDecisionMemo]:
        family = supernet_family(config.supernet_name)
        accel = SushiAccelModel(config.platform)
        candidates = build_candidate_set(
            family.subnets,
            capacity_bytes=max(accel.pb_capacity_bytes, 1),
            max_size=config.candidate_set_size,
        )
        tables = build_serve_table(family.subnets, candidates, accel, family.accuracy_model)
        return tables, CacheDecisionMemo(tables.table, family.supernet)

    key = ("sushi", config.supernet_name.lower(), config.platform, config.candidate_set_size)
    return process_table(key, build)


def sushi_table(config: SushiStackConfig) -> ServeTable:
    """The process's serve table every :class:`SushiStack` of ``config`` serves."""
    return _sushi_tables(config)[0]


def batch_budget_ms(queries: Sequence[QueryLike], budgets_ms: Sequence[float]) -> float:
    """The latency budget a shared batch decision plans against.

    The tightest remaining budget divided by the batch size: serve tables
    hold single-query latencies, and a SubNet fitting the scaled budget has
    a batch evaluation (weights counted once, not per member) fitting the
    original budget — the conservative, SLO-safe direction.
    """
    if not queries:
        raise ValueError("a dispatch batch needs at least one query")
    if len(budgets_ms) != len(queries):
        raise ValueError("budgets_ms must match the batch length")
    return min(budgets_ms) / len(queries)


def batch_served(
    size: int,
    subnet_name: str,
    served_accuracy: float,
    entry: ServeEntry,
    cache_load_ms: float,
) -> list[Served]:
    """What each of ``size`` members of one weight-sharing evaluation of
    ``entry`` was served.

    The weight traffic is paid once and the rest per member; every member
    reports the batch evaluation time (members complete together), and a
    cache load rides on the last member.
    """
    if size == 1:
        # Bit-identical to the per-query path: total_ms directly, not the
        # algebraically equal shared + 1 x (total - shared).
        batch_ms = entry.total_ms
    else:
        shared_ms = entry.shared_ms
        batch_ms = shared_ms + size * (entry.total_ms - shared_ms)
    hit, energy = entry.vector_hit_ratio, entry.offchip_energy_mj
    return [(subnet_name, served_accuracy, batch_ms, hit, energy, 0.0)] * (size - 1) + [
        (subnet_name, served_accuracy, batch_ms, hit, energy, cache_load_ms)
    ]


class SushiStack:
    """The full SUSHI stack: SushiSched + SushiAbs + SushiAccel (+ PB).

    The stack serves the process's shared :func:`supernet_family` of
    ``config.supernet_name`` from the process's serve table of its serve key
    (:func:`sushi_table`), on that table's one caching-decision memo.  A
    ``serve_table`` built elsewhere (over other candidates, say) is served
    instead, with a memo of its own that the stack's clones share.
    """

    def __init__(
        self, config: SushiStackConfig | None = None, *, serve_table: ServeTable | None = None
    ) -> None:
        config = config or SushiStackConfig()
        if serve_table is None:
            serve_table, memo = _sushi_tables(config)
        else:
            supernet = supernet_family(config.supernet_name).supernet
            memo = CacheDecisionMemo(serve_table.table, supernet)
        self._build(config, serve_table, memo)

    def _build(
        self, config: SushiStackConfig, serve_table: ServeTable, memo: CacheDecisionMemo
    ) -> None:
        """Serve ``serve_table`` on ``memo``, with a fresh scheduler and PB."""
        family = supernet_family(config.supernet_name)
        self.config = config
        self.supernet = family.supernet
        self.accuracy_model = family.accuracy_model
        self.serve_table = serve_table
        self.table, self.entries, self.switches = serve_table
        self.subnets = self.table.subnets
        self.candidates = self.table.candidates
        self.accel = self.switches.accel
        self._names = self.table.subnet_names
        self._accuracies = self.table.accuracy_list
        self.cache_memo = memo
        self.scheduler = SushiSched(
            self.table,
            self.supernet,
            policy=config.policy,
            cache_update_period=config.cache_update_period,
            # The index ``default_rng(config.seed)`` draws, drawn once per seed.
            initial_cache_idx=memo.initial_index(config.seed),
            memo=memo,
        )
        self._start_pb()

    # ------------------------------------------------------------ serving
    def _start_pb(self) -> None:
        """An empty PB, then the scheduler's cache state enacted on it."""
        self.pb: PersistentBuffer = self.accel.make_persistent_buffer()
        self._cached_idx = -1  # the empty PB
        self._enact_cache(self.scheduler.cache_state_idx)

    def _enact_cache(self, candidate_idx: int) -> float:
        """Switch the PB to candidate SubGraph ``candidate_idx``; return ms spent."""
        switch = self.switches.switch(self._cached_idx, candidate_idx)
        self.pb.hold(switch.fitted, switch.fetched_bytes)
        self._cached_idx = candidate_idx
        return switch.load_ms

    def serve_query(
        self, query: QueryLike, budget_ms: float, accuracy_floor: float
    ) -> Served:
        """Serve one query at dispatch time; returns what it was served.

        ``budget_ms`` is the query's *remaining* latency budget once queueing
        delay is known and ``accuracy_floor`` its accuracy constraint (the
        relaxed one under brownout); the scheduler plans against both.
        """
        scheduler = self.scheduler
        idx = scheduler.schedule_shared(accuracy_floor, budget_ms)
        cached = self._cached_idx
        entry = self.entries[idx][cached]
        self.pb.record_serve(self.subnets[idx], hit_bytes=entry.hit_bytes)
        cache_load_ms = 0.0
        if scheduler.cache_state_idx != cached:
            # The caching decision is enacted after the query completes;
            # its cost is amortized off the query critical path but
            # recorded for accounting.
            cache_load_ms = self._enact_cache(scheduler.cache_state_idx)
        return (
            self._names[idx],
            self._accuracies[idx],
            entry.total_ms,
            entry.vector_hit_ratio,
            entry.offchip_energy_mj,
            cache_load_ms,
        )

    def serve_dispatch_batch(
        self, queries: Sequence[QueryLike], budgets_ms: Sequence[float], accuracy_floor: float
    ) -> list[Served]:
        """Serve a weight-sharing batch with one shared SubNet decision.

        The scheduler makes a *single* decision satisfying the batch's
        strictest accuracy floor and its tightest remaining latency budget;
        the whole batch then runs as one accelerator evaluation: the
        SubNet's weight traffic (off-chip fetch + on-chip staging) is paid
        once and reused by every member — exactly the amortization SGS weight
        sharing enables — while compute and activation traffic scale with the
        batch.  Every member reports the *batch* evaluation latency (members
        complete together), and at most one cache load is enacted, carried
        by the last member.  A one-query batch is identical to
        :meth:`serve_query`.  The decision plans against the tightest
        budget divided by the batch size (:func:`batch_budget_ms`).

        Energy is recorded per evaluation as in the per-query path; off-chip
        weight-energy amortization across the batch is not modeled, so
        batched energy totals are conservative (over-) estimates.
        """
        scheduler = self.scheduler
        idx = scheduler.schedule_shared(
            accuracy_floor, batch_budget_ms(queries, budgets_ms), len(queries)
        )
        cached = self._cached_idx
        subnet = self.subnets[idx]
        entry = self.entries[idx][cached]
        for _ in queries:
            self.pb.record_serve(subnet, hit_bytes=entry.hit_bytes)
        cache_load_ms = 0.0
        if scheduler.cache_state_idx != cached:
            cache_load_ms = self._enact_cache(scheduler.cache_state_idx)
        return batch_served(
            len(queries), self._names[idx], self._accuracies[idx], entry, cache_load_ms
        )

    def estimate_service_ms(self, query: QueryLike) -> float:
        """Predicted service time of ``query`` at the current cache state.

        Side-effect free: consults the latency table without advancing the
        scheduler, so routers and queue disciplines can use it.
        """
        subnet_idx = self.scheduler.select(
            accuracy_constraint=query.accuracy_constraint,
            latency_constraint_ms=query.latency_constraint_ms,
        )
        return self.table.latency(subnet_idx, self.scheduler.cache_state_idx)

    # ------------------------------------------------------------- state
    def reset(self) -> None:
        """Reset scheduler history and PB contents (keeps the latency table)."""
        self.scheduler.reset()
        self._start_pb()

    def clone(self, *, seed: int | None = None) -> "SushiStack":
        """An independent stack sharing this one's immutable substrate.

        The SuperNet, SubNet family, accelerator model, candidate set, serve
        table (latency table, serve entries and cache-switch table) and
        caching-decision memo are shared (the memo and the switch table only
        ever gain entries that are pure functions of the table), so a clone
        evaluates nothing on the accelerator model and encodes nothing, and
        it models the PB only for a cache switch no stack sharing the table
        has made yet; the clone gets its own scheduler and Persistent
        Buffer, so it evolves cache state independently — one clone per
        engine replica.
        """
        config = self.config
        if seed is not None and seed != config.seed:
            # ``dataclasses.replace(config, seed=seed)`` without its
            # ``fields()`` walk: the same field values, one changed.
            config = object.__new__(type(self.config))
            config.__dict__.update(self.config.__dict__, seed=seed)
        # Not copy.copy: a copied instance dict makes every attribute read
        # on the serve path slower (about 13% per serve_query).
        stack = SushiStack.__new__(SushiStack)
        stack._build(config, self.serve_table, self.cache_memo)
        return stack
