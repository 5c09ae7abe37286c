"""Per-layer timing spans, recorded from outside the program.

:class:`LayerTracer` replaces the public functions of each layer of the
SUSHI serving stack with timing wrappers (class attributes are patched in
place; a module-level function is patched in every ``repro`` module that
imported it by name, so callers find the wrapper where they look the name
up).  A span stack gives each call its *self* time — its duration minus the
time its traced callees took — so the layer self times partition the traced
wall time.  Aggregates cover every call; full spans are kept for the first
:data:`SPAN_QUERIES` queries only, so memory stays bounded.  Only calls made
while :attr:`LayerTracer.active` is set are recorded.

The patches are never undone: the tracer is meant for a throwaway process
(``worker.py ... trace``), installed before anything is built so that
references hoisted at build or run time already point at the wrappers.
"""

from __future__ import annotations

import functools
import sys
import time

#: The layers of the ladder, outermost first.
LAYERS = (
    "spec",
    "stack_build",
    "workload",
    "engine",
    "routing",
    "disciplines",
    "admission",
    "stack",
    "scheduler",
    "subnet_select",
    "cache_decision",
    "accelerator",
    "persistent_buffer",
    "accuracy",
    "autoscale",
    "faults",
    "sweep",
)

#: Queries whose full spans are kept.
SPAN_QUERIES = 2000


def _routed(args):  # Router.select(self, replicas, item, now_ms)
    return args[2].query.index


def _queued(args):  # push(self, item) / admit(self, item, now_ms)
    return args[1].query.index


def _served(args):  # serve_query(self, query, ...)
    return args[1].index


def _batched(args):  # serve_dispatch_batch(self, queries, ...)
    return args[1][0].index


def _subclasses(base):
    found = []
    for cls in base.__subclasses__():
        found.append(cls)
        found.extend(_subclasses(cls))
    return found


def _targets():
    """``(layer, owner, attribute names, query extractor)`` per traced hook."""
    from repro.accelerator.analytic_model import SushiAccelModel
    from repro.accelerator.persistent_buffer import PersistentBuffer
    from repro.core import encoding, policies
    from repro.core.latency_table import LatencyTable
    from repro.core.running_average import RunningAverageNet
    from repro.core.scheduler import SushiSched
    from repro.serving import api
    from repro.serving.autoscale.controller import AutoscaleController
    from repro.serving.autoscale.telemetry import TelemetryBus
    from repro.serving.engine.admission import AdmissionPolicy
    from repro.serving.engine.core import ServingEngine
    from repro.serving.engine.disciplines import QueueDiscipline
    from repro.serving.engine.faults import FaultInjector
    from repro.serving.engine.replica import AcceleratorReplica
    from repro.serving.engine.routing import RoutingPolicy
    from repro.serving.spec import ArrivalSpec, ScenarioSpec
    from repro.serving.stack import SushiStack
    from repro.supernet.accuracy import AccuracyModel
    from repro.sweep import runner

    def defining(base, name):
        return [cls for cls in _subclasses(base) if name in vars(cls)]

    def public(cls, prefix=""):
        return tuple(
            name
            for name, value in vars(cls).items()
            if name.startswith(prefix) and not name.startswith("_") and callable(value)
        )

    return [
        ("spec", ScenarioSpec, ("from_dict", "override_many"), None),
        ("stack_build", SushiStack, ("__init__", "clone"), None),
        ("workload", api, ("build_trace",), None),
        ("workload", ArrivalSpec, ("generate",), None),
        ("engine", ServingEngine, ("run",), None),
        *[("routing", cls, ("select",), _routed) for cls in defining(RoutingPolicy, "select")],
        *[("disciplines", cls, ("push",), _queued) for cls in defining(QueueDiscipline, "push")],
        *[("disciplines", cls, ("pop",), None) for cls in defining(QueueDiscipline, "pop")],
        ("disciplines", AcceleratorReplica, ("pop_batch",), None),
        *[("admission", cls, ("admit",), _queued) for cls in defining(AdmissionPolicy, "admit")],
        ("stack", SushiStack, ("serve_query",), _served),
        ("stack", SushiStack, ("serve_dispatch_batch",), _batched),
        ("scheduler", SushiSched, ("schedule_shared",), None),
        ("subnet_select", policies, ("select_subnet",), None),
        (
            "subnet_select",
            LatencyTable,
            ("best_under_accuracy", "best_under_latency", "latency", "accuracy"),
            None,
        ),
        ("cache_decision", RunningAverageNet, ("update", "update_many"), None),
        ("cache_decision", encoding, ("nearest_index",), None),
        ("accelerator", SushiAccelModel, ("subnet_breakdown", "cache_load_latency_ms"), None),
        (
            "persistent_buffer",
            PersistentBuffer,
            ("load", "record_serve", "hit_bytes", "vector_hit_ratio"),
            None,
        ),
        ("accuracy", AccuracyModel, ("accuracy",), None),
        ("autoscale", TelemetryBus, public(TelemetryBus, "on_") + ("snapshot",), None),
        ("autoscale", AutoscaleController, ("decide_pool",), None),
        ("faults", FaultInjector, public(FaultInjector), None),
        ("sweep", runner, ("run_sweep",), None),
    ]


class LayerTracer:
    """Timing wrappers around every layer's public functions."""

    def __init__(self) -> None:
        self._labels: list[str] = []
        self._label_layers: list[str] = []
        self._stack: list[list] = []
        self._aggs: dict[tuple[int, str | None], list] = {}
        self._spans: list[tuple] = []
        self._window: set[tuple[int, int]] = set()
        self.active = False
        self.run = 0
        self.current: tuple[int, int | None] = (0, None)
        self.next_id = 0
        self.routable_checks = 0
        self.t0 = time.perf_counter()

    # --------------------------------------------------------------- install
    def install(self) -> None:
        """Patch every traced hook (imports the ``repro`` modules it needs)."""
        for layer, owner, names, query_of in _targets():
            for name in names:
                if isinstance(owner, type):
                    self._patch_method(owner, name, layer, query_of)
                else:
                    self._patch_function(getattr(owner, name), layer)
        self._count_routable_checks()

    def _label(self, label: str, layer: str) -> int:
        self._labels.append(label)
        self._label_layers.append(layer)
        return len(self._labels) - 1

    def _patch_method(self, cls, name, layer, query_of) -> None:
        raw = vars(cls)[name]
        label = self._label(f"{cls.__name__}.{name}", layer)
        new_run = cls.__name__ == "ServingEngine" and name == "run"
        if isinstance(raw, classmethod):
            setattr(cls, name, classmethod(self._wrap(raw.__func__, label, layer, query_of, new_run)))
        else:
            setattr(cls, name, self._wrap(raw, label, layer, query_of, new_run))

    def _patch_function(self, fn, layer) -> None:
        wrapped = self._wrap(fn, self._label(fn.__name__, layer), layer, None, False)
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro"):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapped)

    def _count_routable_checks(self) -> None:
        from repro.serving.engine.replica import AcceleratorReplica

        fget = vars(AcceleratorReplica)["is_routable"].fget
        tracer = self

        def is_routable(replica):
            if tracer.active:
                tracer.routable_checks += 1
            return fget(replica)

        AcceleratorReplica.is_routable = property(is_routable)

    def _wrap(self, fn, label, layer, query_of, new_run):
        tracer = self
        stack = self._stack
        aggs = self._aggs
        spans = self._spans
        window = self._window
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if new_run:
                tracer.run += 1
            if query_of is not None:
                key = (tracer.run, query_of(args))
                if key != tracer.current:
                    tracer.current = key
                    if len(window) < SPAN_QUERIES:
                        window.add(key)
            query = tracer.current
            record = len(window) < SPAN_QUERIES or query in window
            parent = stack[-1] if stack else None
            frame = [0.0, tracer.next_id, layer]
            tracer.next_id += 1
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                caller = None if parent is None else parent[2]
                agg = aggs.get((label, caller))
                if agg is None:
                    agg = aggs[(label, caller)] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += elapsed - frame[0]
                agg[2] += elapsed
                if parent is not None:
                    parent[0] += elapsed
                if record:
                    spans.append(
                        (frame[1], None if parent is None else parent[1], label, start, end, query)
                    )

        return traced

    # ---------------------------------------------------------------- report
    def _calls(self, label: str, caller: str = "*") -> int:
        return sum(
            agg[0]
            for (lid, c), agg in self._aggs.items()
            if self._labels[lid] == label and caller in ("*", c)
        )

    def report(self, queries: int, wall_s: float) -> dict:
        """Layer metrics per query, per-function aggregates and the spans."""
        per_layer = {layer: [0, 0.0] for layer in LAYERS}
        functions = []
        for (lid, caller), (calls, self_s, total_s) in sorted(
            self._aggs.items(), key=lambda kv: (kv[0][0], str(kv[0][1]))
        ):
            layer = self._label_layers[lid]
            per_layer[layer][0] += calls
            per_layer[layer][1] += self_s
            functions.append(
                {
                    "function": self._labels[lid],
                    "layer": layer,
                    "caller_layer": caller,
                    "calls": calls,
                    "self_s": self_s,
                    "total_s": total_s,
                }
            )
        metrics: dict[str, float] = {}
        for layer, (calls, self_s) in per_layer.items():
            metrics[f"{layer}.self_us_per_query"] = self_s * 1e6 / queries
            metrics[f"{layer}.calls_per_query"] = calls / queries
        serves = self._calls("SushiStack.serve_query") + self._calls(
            "SushiStack.serve_dispatch_batch"
        )
        evaluations = self._calls("SushiAccelModel.subnet_breakdown", "stack")
        runs = self._calls("ServingEngine.run")
        decisions = self._calls("nearest_index")
        metrics["engine.routable_checks_per_query"] = self.routable_checks / queries
        metrics["accelerator.memo_hit_ratio"] = 1.0 - evaluations / serves if serves else 0.0
        metrics["stack.clones_per_run"] = (
            self._calls("SushiStack.clone", "engine") / runs if runs else 0.0
        )
        metrics["persistent_buffer.loads_per_cache_decision"] = (
            self._calls("PersistentBuffer.load", "stack") / decisions if decisions else 0.0
        )
        metrics["trace.coverage"] = sum(s for _, s in per_layer.values()) / wall_s
        t0 = self.t0
        return {
            "layer_metrics": metrics,
            "functions": functions,
            "spans": {
                "names": self._labels,
                "fields": ["id", "parent", "name", "start_us", "end_us", "run", "query"],
                "rows": [
                    [sid, parent, label, round((start - t0) * 1e6, 2),
                     round((end - t0) * 1e6, 2), query[0], query[1]]
                    for sid, parent, label, start, end, query in self._spans
                ],
            },
        }
