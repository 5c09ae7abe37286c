"""The closed-loop serving path the paper's stream figures used, kept as an oracle.

``serve_trace`` is a literal copy of the loop that served a whole trace on
one backend: each query with its nominal latency budget and accuracy floor,
one :class:`~repro.core.metrics.QueryRecord` per query, nothing queued.
``ExperimentRunner`` is a literal copy of the runner that drove it for
Fig. 15–18, Table 5 and the headline numbers: SUSHI as a stack of the
process's serve table, reset before every stream, and the two baselines
over the shared baseline tables.  The only edits: each backend's
``serve(trace)`` (now gone) is ``serve_trace(backend, trace)``, the
state-unaware counter restart of its ``begin_stream`` is written out, and
SUSHI is ``SushiStack(config)``, not a clone of a cached template stack
(the same scheduler seed and table, so the same records).

The paper's figures now serve each stream on a one-replica engine cell
(:func:`repro.experiments.serving_pool.closed_loop_grid`);
``tests/experiments/test_closed_loop_rung.py`` holds its records and PB
byte hit ratio bit-identical to this oracle.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterable

from repro.accelerator.platforms import ANALYTIC_DEFAULT, PlatformConfig
from repro.core.metrics import QueryRecord
from repro.core.policies import Policy
from repro.experiments.serving_pool import StreamResult
from repro.serving.baselines import NoSushiServer, StateUnawareCachingServer, baseline_table
from repro.serving.query import QueryLike, QueryTrace, QueuedQuery
from repro.serving.stack import SushiStack, SushiStackConfig
from repro.serving.workload import WorkloadGenerator, WorkloadSpec, feasible_ranges_from_table


def byte_hit_ratio(stats) -> float:
    """Fraction of the served weight bytes of ``stats`` (a ``PBStats``) that
    were PB hits; 0.0 when nothing was served."""
    if stats.served_weight_bytes_total == 0:
        return 0.0
    return stats.hit_bytes_total / stats.served_weight_bytes_total


def serve_trace(server, trace: QueryTrace | Iterable[QueryLike]) -> list[QueryRecord]:
    """``server`` serves ``trace`` closed loop: each query with its nominal
    budget and accuracy floor, one record per query.

    A :class:`QueryTrace`'s queries reach the backend as
    :class:`QueuedQuery` items built from its columns (arriving at 0: a
    closed loop never queues), the query type the engine serves; any other
    iterable of queries is served as it is.
    """
    if isinstance(trace, QueryTrace):
        acc, lat = trace.columns()
        trace = map(QueuedQuery, range(len(acc)), acc, lat, repeat(0.0))
    serve = server.serve_query
    return [
        QueryRecord(
            q.index,
            q.accuracy_constraint,
            q.latency_constraint_ms,
            *serve(q, q.latency_constraint_ms, q.accuracy_constraint),
        )
        for q in trace
    ]


class ExperimentRunner:
    """Builds the three systems over one SuperNet family and runs streams."""

    def __init__(
        self,
        supernet_name: str = "ofa_resnet50",
        *,
        platform: PlatformConfig = ANALYTIC_DEFAULT,
        policy: Policy = Policy.STRICT_ACCURACY,
        cache_update_period: int = 4,
        candidate_set_size: int | None = None,
        seed: int = 0,
    ) -> None:
        self.seed = seed
        config = SushiStackConfig(
            supernet_name=supernet_name,
            platform=platform,
            policy=policy,
            cache_update_period=cache_update_period,
            candidate_set_size=candidate_set_size,
            seed=seed,
        )
        self.sushi = SushiStack(config)
        self.no_sushi = NoSushiServer(
            baseline_table(supernet_name, platform, with_pb=False), policy=policy
        )
        self.state_unaware = StateUnawareCachingServer(
            baseline_table(supernet_name, platform, with_pb=True),
            policy=policy,
            cache_update_period=cache_update_period,
        )

    # ------------------------------------------------------------ workload
    def default_workload(
        self, *, num_queries: int = 200, pattern: str = "uniform", seed: int | None = None
    ) -> QueryTrace:
        """A query trace whose constraints span this family's feasible ranges."""
        acc_range, lat_range = feasible_ranges_from_table(self.sushi.table)
        spec = WorkloadSpec(
            num_queries=num_queries,
            accuracy_range=acc_range,
            latency_range_ms=lat_range,
            pattern=pattern,  # type: ignore[arg-type]
        )
        return WorkloadGenerator(spec, seed=self.seed if seed is None else seed).generate()

    # ------------------------------------------------------------- running
    def run(self, trace: QueryTrace) -> dict[str, StreamResult]:
        """Serve ``trace`` on all three systems, SUSHI from its initial cache state."""
        self.sushi.reset()
        self.state_unaware._queries_seen = 0  # begin_stream(): the PB stays warm
        systems = {
            "no_sushi": self.no_sushi,
            "sushi_wo_sched": self.state_unaware,
            "sushi": self.sushi,
        }
        return {
            name: StreamResult.from_records(name, serve_trace(server, trace))
            for name, server in systems.items()
        }
