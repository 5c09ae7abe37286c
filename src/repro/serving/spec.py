"""Declarative serving scenario specifications.

Everything needed to run a serving scenario — which replicas exist, what
hardware each runs on, how queries arrive and what constraints they carry —
is captured in frozen, JSON-serializable dataclasses:

* :class:`ReplicaGroupSpec` — a homogeneous group of replicas (count, backend
  kind, platform / Persistent Buffer size, policy, queue discipline).  A
  scenario may mix several groups, giving heterogeneous replica pools
  (e.g. two large-PB plus two small-PB replicas).
* :class:`ArrivalSpec` — the arrival process: ``poisson``, ``deterministic``
  (evenly spaced), ``time_varying`` (piecewise-constant-rate Poisson for
  diurnal / flash-crowd traces) or ``trace`` (replay of a recorded request
  log, from a CSV/JSONL file or inline timestamps; see
  :mod:`repro.serving.trace_io`).
* :class:`ScenarioSpec` — the whole experiment: replica groups, router,
  admission policy, workload (query constraints) and arrival process.

Contracts every consumer relies on:

* **Exact round-trip** — ``from_dict(to_dict(spec)) == spec`` for every
  valid spec, through plain JSON types only (lists become tuples on the way
  back in).  One field-driven codec (:class:`JsonSpec`) encodes and decodes
  every spec class, so a new field joins the wire format by construction
  and scenarios can live in version-controlled ``.json`` files
  (see ``examples/scenarios/``) and be run from the command line with
  ``python -m repro serve --scenario <file>``.  ``python -m repro schema``
  prints the full field/default/enum reference
  (:func:`scenario_schema`; prose version in ``docs/scenario-schema.md``).
* **Validation at construction** — every spec validates its fields in
  ``__post_init__``; an invalid scenario fails when parsed, never mid-run.
  ``from_dict`` rejects a key the spec does not declare, or a value of the
  wrong JSON type, with one ``ValueError`` naming its dotted path.
* **Neutral defaults are inert** — fields added after PR 2 default to
  values that leave earlier behavior bit-identical: ``autoscaler: null``
  matches the fixed-pool engine path, ``batching.max_batch = 1`` the
  pre-batching dispatch, ``startup_delay_ms = 0`` the instant-scale-up
  control plane, ``cost_weight = 1.0`` unweighted cost accounting,
  ``faults: null`` the fault-free engine.  A PR 3
  era JSON file (without the newer keys) parses to the same spec as one
  spelling the defaults out.

The imperative counterpart — actually building stacks, replicas and the
engine from a spec — lives in :mod:`repro.serving.api`.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import numbers
import types
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import (
    Any,
    Literal,
    Mapping,
    Sequence,
    TYPE_CHECKING,
    TypeVar,
    Union,
    get_args,
    get_origin,
    get_type_hints,
)

import numpy as np
import numpy.typing as npt

if TYPE_CHECKING:  # pragma: no cover - type-checking only imports
    # trace_io imports this module (TraceFit is a JsonSpec), so every
    # runtime import of trace_io below stays lazy.
    from repro.serving.trace_io import TraceLog

from repro.accelerator.platforms import PlatformConfig, platform_by_name
from repro.core.policies import Policy
from repro.serving.autoscale.policies import POLICY_NAMES, ScalingPolicy, make_policy
from repro.serving.engine.admission import ADMISSION_NAMES
from repro.serving.engine.disciplines import DISCIPLINE_NAMES
from repro.serving.engine.routing import ROUTER_NAMES
from repro.serving.workload import PATTERNS, WorkloadSpec
from repro.supernet.zoo import resolve_supernet_name

__all__ = [
    "ARRIVAL_KINDS",
    "BACKEND_KINDS",
    "BATCHING_POLICIES",
    "SCALING_POLICY_NAMES",
    "ArrivalSpec",
    "AutoscalerSpec",
    "BatchingSpec",
    "FaultSpec",
    "JsonSpec",
    "ObservabilitySpec",
    "ReplicaGroupSpec",
    "RetryPolicy",
    "ScenarioSpec",
    "scenario_schema",
]

#: Scaling policies an :class:`AutoscalerSpec` can name (re-exported).
SCALING_POLICY_NAMES: tuple[str, ...] = POLICY_NAMES

#: Serving backends a replica group can instantiate (see ``api.build_engine``).
BACKEND_KINDS: tuple[str, ...] = (
    "sushi",  # full SUSHI stack: SushiSched + SushiAbs + SushiAccel (+ PB)
    "no_sushi",  # paper baseline: no PB, selection on static latencies
    "state_unaware",  # paper ablation: PB present, caching ignores state
    "static_subnet",  # serve one fixed SubNet for every query
)

#: Supported arrival processes.
ARRIVAL_KINDS: tuple[str, ...] = (
    "poisson",
    "deterministic",
    "time_varying",
    "trace",
)

#: Batched-dispatch policies a replica group can run under.
BATCHING_POLICIES: tuple[str, ...] = (
    "shared_subnet",  # one shared SubNet decision + one evaluation per batch
    "per_query",  # per-member decisions, served back to back in one pickup
)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _apply_override(data: dict[str, Any], path: str, value: Any) -> None:
    """Set one dotted-path field in a serialized spec dict, in place.

    A path that addresses no existing field — an unknown key, a list index
    that is not an integer or is out of range, or a step through a scalar
    (``null`` included) — raises one ``ValueError`` naming ``path``.
    """
    node: Any = data
    parts = path.split(".")
    for depth, part in enumerate(parts):
        where = ".".join(parts[:depth])
        key: int | str
        if isinstance(node, list):
            try:
                index = int(part)
            except ValueError:
                raise ValueError(
                    f"override path {path!r}: {part!r} is not an index into "
                    f"list {where!r}"
                ) from None
            if not -len(node) <= index < len(node):
                raise ValueError(
                    f"override path {path!r}: index {index} is out of range for "
                    f"list {where!r} (length {len(node)})"
                )
            key = index
        elif isinstance(node, dict):
            if part not in node:
                raise ValueError(
                    f"unknown field {part!r} in override path {path!r}; "
                    f"available: {sorted(node)}"
                )
            key = part
        else:
            raise ValueError(
                f"override path {path!r} descends through scalar {where!r}"
            )
        if depth == len(parts) - 1:
            node[key] = value
        else:
            node = node[key]


_S = TypeVar("_S", bound="JsonSpec")


class JsonSpec:
    """Base of every JSON spec: one field-driven codec for the wire format.

    Subclasses are frozen dataclasses.  :meth:`to_dict` writes their fields
    in declaration order — nested dataclasses as objects, tuples as lists,
    enums as their values — and :meth:`from_dict` reads them back through
    each field's resolved type hint, so ``from_dict(to_dict(spec)) == spec``
    holds for every field by construction.  Decoding raises one
    ``ValueError`` naming the dotted path (from the outermost spec) of the
    first key the class does not declare, required key it lacks, or value
    of the wrong JSON type.
    """

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        # Each spec class owns its decoder entry point, so wrapping one
        # class's ``from_dict`` (the end-to-end benchmark's layer tracer
        # times ``ScenarioSpec.from_dict``) leaves the other classes alone.
        setattr(cls, "from_dict", vars(JsonSpec)["from_dict"])

    def to_dict(self) -> dict[str, Any]:
        """A JSON-safe dict that :meth:`from_dict` inverts exactly."""
        encoded: dict[str, Any] = _encode(self)
        return encoded

    @classmethod
    def from_dict(
        cls: type[_S], data: Mapping[str, Any], *, path: str = ""
    ) -> _S:
        """The spec ``data`` describes; ``path`` is where ``data`` sits in
        the outermost document (``""`` at the top), for error messages."""
        decoded: _S = _decode_dataclass(cls, data, path)
        return decoded

    def to_json(self, *, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls: type[_S], text: str) -> _S:
        return cls.from_dict(json.loads(text))


def _encode(value: Any) -> Any:
    """``value`` in plain JSON types (dataclass fields in declaration order)."""
    if isinstance(value, Enum):
        return value.value
    if dataclasses.is_dataclass(value):
        return {f.name: _encode(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, (tuple, list)):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        return {k: _encode(v) for k, v in value.items()}
    return value


@functools.cache
def _field_types(cls: type[Any]) -> dict[str, tuple[Any, bool]]:
    """Each field of dataclass ``cls``: its resolved type, has-a-default."""
    hints = get_type_hints(cls)
    return {
        f.name: (
            hints[f.name],
            f.default is not dataclasses.MISSING
            or f.default_factory is not dataclasses.MISSING,
        )
        for f in fields(cls)
    }


def _decode_dataclass(cls: Any, data: Any, path: str) -> Any:
    """Dataclass ``cls`` built from its JSON object ``data``, keys checked."""
    if not isinstance(data, Mapping):
        raise _type_error(cls, data, path)
    known = _field_types(cls)
    kwargs: dict[str, Any] = {}
    for key, value in data.items():
        if key not in known:
            raise ValueError(
                f"unknown key {_join(path, key)!r} in {cls.__name__}; "
                f"known keys: {list(known)}"
            )
        tp, has_default = known[key]
        if value is None and has_default and dataclasses.is_dataclass(tp):
            continue  # a null nested object (``"batching": null``) = key absent
        kwargs[key] = _decode(tp, value, _join(path, key))
    for key, (_, has_default) in known.items():
        if not has_default and key not in kwargs:
            raise ValueError(f"missing key {_join(path, key)!r} in {cls.__name__}")
    return cls(**kwargs)


def _decode(tp: Any, value: Any, path: str) -> Any:
    """JSON ``value`` as field type ``tp``: the inverse of :func:`_encode`."""
    if tp is Any:
        return _as_tuple(value)
    origin = get_origin(tp)
    if origin is Union or origin is types.UnionType:
        arms = [arm for arm in get_args(tp) if arm is not type(None)]
        if value is None and len(arms) < len(get_args(tp)):
            return None
        # ``str | PlatformConfig``: an object is the inline dataclass.
        arm = next(
            (
                a
                for a in arms
                if dataclasses.is_dataclass(a) == isinstance(value, Mapping)
            ),
            arms[0],
        )
        return _decode(arm, value, path)
    if dataclasses.is_dataclass(tp):
        return _decode_dataclass(tp, value, path)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise _type_error(tp, value, path)
        args = get_args(tp)
        if len(args) == 2 and args[1] is Ellipsis:
            args = (args[0],) * len(value)
        elif len(value) != len(args):
            raise ValueError(
                f"wrong length at {path!r}: expected {len(args)} items, "
                f"got {len(value)}: {value!r}"
            )
        return tuple(
            _decode(arg, item, _join(path, i))
            for i, (arg, item) in enumerate(zip(args, value))
        )
    if origin is dict:
        if not isinstance(value, Mapping):
            raise _type_error(tp, value, path)
        item_type = get_args(tp)[1]
        return {k: _decode(item_type, v, _join(path, k)) for k, v in value.items()}
    if origin is Literal:
        if value not in get_args(tp):
            raise ValueError(
                f"unknown value at {path!r}: expected one of "
                f"{list(get_args(tp))}, got {value!r}"
            )
        return value
    if isinstance(tp, type) and issubclass(tp, Enum):
        try:
            return tp(value)
        except ValueError:
            raise ValueError(
                f"unknown value at {path!r}: expected one of "
                f"{[m.value for m in tp]}, got {value!r}"
            ) from None
    # Scalars.  ``bool`` is not a number; an ``int`` stays an ``int`` in a
    # ``float`` field so the serialized bytes round-trip unchanged.
    if tp is float:
        ok = isinstance(value, numbers.Real) and not isinstance(value, bool)
    elif tp is int:
        ok = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    else:
        ok = isinstance(value, tp)
    if not ok:
        raise _type_error(tp, value, path)
    return value


def _type_error(tp: Any, value: Any, path: str) -> ValueError:
    expected = tp.__name__ if get_origin(tp) is None else str(tp)
    return ValueError(
        f"wrong type at {path or '(top level)'!r}: expected {expected}, "
        f"got {type(value).__name__} {value!r}"
    )


def _join(path: str, key: str | int) -> str:
    return f"{path}.{key}" if path else str(key)


def _as_tuple(value: Any) -> Any:
    """Recursively convert lists (as produced by JSON) to tuples."""
    if isinstance(value, (list, tuple)):
        return tuple(_as_tuple(v) for v in value)
    return value


@dataclass(frozen=True)
class ArrivalSpec(JsonSpec):
    """How queries arrive in an open-loop scenario.

    Attributes
    ----------
    kind:
        ``poisson`` (memoryless arrivals at ``rate_per_ms``),
        ``deterministic`` (evenly spaced at ``rate_per_ms``),
        ``time_varying`` (piecewise-constant-rate Poisson over
        ``segments``), or ``trace`` (replay of a recorded request log —
        exact timestamps from a CSV/JSONL file at ``path`` or the inline
        ``events`` tuple; see :mod:`repro.serving.trace_io`).
    rate_per_ms:
        Mean arrival rate in queries/ms (``poisson`` / ``deterministic``).
    segments:
        ``(duration_ms, rate_per_ms)`` pairs for ``time_varying``.  The
        segment sequence cycles until the stream is exhausted, so a diurnal
        day or a flash-crowd spike repeats naturally over long traces.
    seed:
        Seed of the arrival process (independent of the workload seed).
        ``trace`` replays are deterministic; the seed is inert for them.
    path:
        ``trace`` only: request-log file to replay (``.csv`` / ``.jsonl``;
        relative paths resolve against the working directory).  Parsed
        once per process and content when first replayed, not at spec
        validation, so scenario files parse anywhere.  Not with ``events``.
    events:
        ``trace`` only: inline arrival timestamps in ms (non-negative,
        non-decreasing).  The self-contained replay form — a scenario
        JSON carrying its own tiny log.  Mutually exclusive with ``path``.
    rate_scale:
        ``trace`` only: arrival-rate multiplier.  Replayed timestamps are
        divided by this, so ``2.0`` replays the same log at twice the
        request rate ("what if traffic doubled?").  Default ``1.0``.
    time_scale:
        ``trace`` only: timestamp multiplier (unit conversion — e.g.
        ``1000.0`` lifts a log recorded in seconds to ms).  Applied
        together with ``rate_scale`` as ``t * time_scale / rate_scale``.
    limit:
        ``trace`` only: replay only the first ``limit`` arrivals of the
        (timestamp-sorted) log.  ``null`` replays everything.
    """

    kind: str = "poisson"
    rate_per_ms: float | None = None
    segments: tuple[tuple[float, float], ...] = ()
    seed: int = 0
    path: str | None = None
    events: tuple[float, ...] = ()
    rate_scale: float = 1.0
    time_scale: float = 1.0
    limit: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "segments", _as_tuple(self.segments))
        object.__setattr__(
            self, "events", tuple(float(e) for e in _as_tuple(self.events))
        )
        _require(
            self.kind in ARRIVAL_KINDS,
            f"unknown arrival kind {self.kind!r}; expected one of {ARRIVAL_KINDS}",
        )
        if self.kind != "trace":
            _require(
                self.path is None and not self.events,
                f"{self.kind} arrivals take no path/events "
                "(use kind=\"trace\" to replay a request log)",
            )
            _require(
                self.rate_scale == 1.0
                and self.time_scale == 1.0
                and self.limit is None,
                f"rate_scale/time_scale/limit only apply to trace arrivals "
                f"(kind={self.kind!r})",
            )
        if self.kind in ("poisson", "deterministic"):
            _require(
                self.rate_per_ms is not None and self.rate_per_ms > 0,
                f"{self.kind} arrivals need a positive rate_per_ms "
                f"(got {self.rate_per_ms})",
            )
            _require(
                not self.segments,
                f"{self.kind} arrivals take no segments (got {self.segments})",
            )
        elif self.kind == "time_varying":
            _require(
                self.rate_per_ms is None,
                "time_varying arrivals are described by segments, not rate_per_ms",
            )
            _require(bool(self.segments), "time_varying arrivals need segments")
            for seg in self.segments:
                _require(
                    isinstance(seg, tuple) and len(seg) == 2,
                    f"each segment must be (duration_ms, rate_per_ms), got {seg!r}",
                )
                duration, rate = seg
                _require(
                    duration > 0 and rate > 0,
                    f"segment durations and rates must be positive, got {seg}",
                )
        else:  # trace
            _require(
                self.rate_per_ms is None and not self.segments,
                "trace arrivals replay a request log; they take no "
                "rate_per_ms or segments",
            )
            _require(
                (self.path is None) != (len(self.events) == 0),
                "trace arrivals need exactly one of path or events",
            )
            for name in ("rate_scale", "time_scale", "limit"):
                value = getattr(self, name)
                _require(
                    value is None or value > 0, f"{name} must be positive, got {value}"
                )
            _require(
                all(t >= 0.0 for t in self.events),
                "inline trace events must be non-negative timestamps",
            )
            _require(
                all(a <= b for a, b in zip(self.events, self.events[1:])),
                "inline trace events must be non-decreasing",
            )

    # ------------------------------------------------------------- generate
    def generate(
        self, num_queries: int, *, log: "TraceLog | None" = None
    ) -> npt.NDArray[np.float64]:
        """Cumulative arrival timestamps (ms) for ``num_queries`` queries.

        ``log`` is this spec's :meth:`trace_log`, when the caller holds it
        already (one run reads its log file once); ``None`` reads it.
        """
        if num_queries <= 0:
            raise ValueError("num_queries must be positive")
        if self.kind == "poisson":
            # Exactly the engine's run_open_loop arrivals, so a Poisson
            # ScenarioSpec is record-identical to the hand-wired path.
            rate = self.rate_per_ms
            assert rate is not None  # __post_init__ rejects rateless poisson
            rng = np.random.default_rng(self.seed)
            gaps = rng.exponential(scale=1.0 / rate, size=num_queries)
            return np.asarray(np.cumsum(gaps), dtype=np.float64)
        if self.kind == "deterministic":
            rate = self.rate_per_ms
            assert rate is not None  # __post_init__ rejects rateless arrivals
            spaced = np.arange(1, num_queries + 1, dtype=np.float64) / rate
            return np.asarray(spaced, dtype=np.float64)
        if self.kind == "trace":
            events = self._replayed_ms(log)
            if num_queries > events.size:
                raise ValueError(
                    f"trace provides {events.size} arrivals but the "
                    f"scenario needs {num_queries}; lower num_queries "
                    "(or raise/remove the limit)"
                )
            return events[:num_queries].copy()
        return self._time_varying(num_queries)

    def _replayed_ms(self, log: "TraceLog | None") -> npt.NDArray[np.float64]:
        """:meth:`trace_log`'s timestamps (``log``, or read when ``None``)
        or the limited inline ``events``, times ``time_scale / rate_scale``;
        a factor of 1.0 keeps the bits."""
        if log is None:
            log = self.trace_log()
        if log is not None:
            events = log.timestamps_ms
        else:
            events = np.asarray(self.events[: self.limit], dtype=np.float64)
        _require(
            float(events[-1]) > 0.0,
            "the replayed trace must span positive time "
            "(its last timestamp is 0)",
        )
        factor = self.time_scale / self.rate_scale
        if factor == 1.0:
            return events
        return np.asarray(events * factor, dtype=np.float64)

    def _time_varying(self, num_queries: int) -> npt.NDArray[np.float64]:
        """Exact piecewise-constant-rate Poisson process via unit hazards.

        Each inter-arrival draws a unit-rate exponential and burns it down
        through the (cycling) segments: a segment of rate ``r`` and length
        ``d`` absorbs ``r * d`` units of hazard.  This is the inverse
        cumulative-hazard construction, exact for any piecewise rate.
        """
        rng = np.random.default_rng(self.seed)
        # The burn-down runs in pure Python floats (``tolist`` round-trips
        # IEEE doubles exactly, and +,-,*,/ on Python floats produce the
        # same bits as the np.float64 scalar loop) — bit-identical arrivals
        # at a fraction of the per-query cost, which matters because this
        # sampler is the trace-generation bottleneck on 10M-query streams.
        hazards = rng.exponential(scale=1.0, size=num_queries).tolist()
        durations = [float(d) for d, _ in self.segments]
        rates = [float(r) for _, r in self.segments]
        num_segments = len(durations)
        arrivals: list[float] = []
        append = arrivals.append
        t = 0.0
        seg = 0  # current segment in the cycle
        into = 0.0  # time already spent inside the current segment
        for hazard in hazards:
            while True:
                left_ms = durations[seg] - into
                seg_hazard = rates[seg] * left_ms
                if hazard <= seg_hazard:
                    dt = hazard / rates[seg]
                    t += dt
                    into += dt
                    break
                hazard -= seg_hazard
                t += left_ms
                seg += 1
                if seg == num_segments:
                    seg = 0
                into = 0.0
            append(t)
        return np.asarray(arrivals, dtype=np.float64)

    def nominal_rate_per_ms(self, *, log: "TraceLog | None" = None) -> float:
        """The long-run mean arrival rate implied by the spec (``log`` as
        in :meth:`generate`)."""
        if self.kind in ("poisson", "deterministic"):
            rate = self.rate_per_ms
            assert rate is not None  # validated in __post_init__
            return float(rate)
        if self.kind == "trace":
            events = self._replayed_ms(log)
            return float(events.size / events[-1])
        total_time = sum(d for d, _ in self.segments)
        total_arrivals = sum(d * r for d, r in self.segments)
        return total_arrivals / total_time

    def trace_log(self) -> "TraceLog | None":
        """The replayed request log, when this spec names one by ``path``.

        ``None`` for synthetic kinds and for inline ``events`` replays
        (which carry no annotation columns).  The log is limited but
        *not* time-scaled: its ``slo_ms`` / ``accuracy_floor`` columns
        are constraints, not timestamps (``repro.serving.api`` feeds them
        into the workload).  Every call shares the process's one parse.
        """
        if self.kind != "trace" or self.path is None:
            return None
        from repro.serving.trace_io import load_trace_log

        return load_trace_log(self.path, limit=self.limit)


@dataclass(frozen=True)
class BatchingSpec(JsonSpec):
    """Batched dispatch configuration of a replica group.

    Attributes
    ----------
    max_batch:
        Maximum queries a replica pulls per dispatch pickup.  ``1`` (the
        default) disables batching and is record-identical to the
        pre-batching engine path.
    policy:
        ``shared_subnet`` — queries co-scheduled in a pickup share one
        SubNet decision (strictest accuracy constraint, tightest remaining
        latency budget) and one accelerator evaluation, amortizing the
        SubNet's weight traffic and at most one cache load across the batch
        — the amortization SGS weight sharing enables.  ``per_query`` —
        members keep their own decisions and run back to back within the
        pickup (amortizes only the dispatch overhead; the fair non-sharing
        comparison point).
    """

    max_batch: int = 1
    policy: str = "shared_subnet"

    def __post_init__(self) -> None:
        _require(
            self.max_batch >= 1,
            f"max_batch must be >= 1, got {self.max_batch}",
        )
        _require(
            self.policy in BATCHING_POLICIES,
            f"unknown batching policy {self.policy!r}; "
            f"expected one of {BATCHING_POLICIES}",
        )


@dataclass(frozen=True)
class ReplicaGroupSpec(JsonSpec):
    """A homogeneous group of serving replicas inside a scenario.

    Attributes
    ----------
    count:
        Number of replicas in the group.
    kind:
        Backend kind, one of :data:`BACKEND_KINDS`.
    platform:
        Platform name (see :func:`~repro.accelerator.platforms.platform_by_name`)
        or a full inline :class:`PlatformConfig`.
    pb_kb:
        Persistent Buffer size override in KB (None keeps the platform's).
        The knob that makes pools heterogeneous: groups sharing a platform
        but differing in PB size model big/small accelerator tiers.
    policy, cache_update_period, candidate_set_size, seed:
        Per-group overrides of the scenario-level values (None inherits).
    discipline:
        Queue discipline of every replica in the group
        (``fifo`` / ``edf`` / ``priority_by_slack``).
    batching:
        Batched-dispatch configuration (:class:`BatchingSpec`).  The default
        ``max_batch=1`` keeps the classic one-query-at-a-time pickup.
    cost_weight:
        Replica-seconds price of this tier relative to weight 1.0 (e.g. a
        large-PB group at 2.0 costs twice a small-PB group per second).
        What the tier-aware autoscaler ranks groups by and budgets against
        (``AutoscalerSpec.cost_budget``); also weights
        ``SimulationResult.weighted_replica_seconds``.
    startup_delay_ms:
        Cold-start time of a scale-up replica in this group: a new replica
        joins routing only after this much simulated time (it is paid for
        from the moment it is requested).  ``0`` (the default) keeps
        scale-ups instant — record-identical to the pre-cold-start control
        plane.
    subnet_name:
        For ``static_subnet`` backends: which SubNet to pin (None pins the
        most accurate one).
    name:
        Optional group label; replica ``i`` of group ``g`` is named
        ``"{name}-{i}"`` (default names follow the engine's global index).
    """

    count: int = 1
    kind: str = "sushi"
    platform: str | PlatformConfig = "analytic-default"
    pb_kb: float | None = None
    policy: Policy | None = None
    cache_update_period: int | None = None
    candidate_set_size: int | None = None
    seed: int | None = None
    discipline: str = "fifo"
    batching: BatchingSpec = field(default_factory=BatchingSpec)
    cost_weight: float = 1.0
    startup_delay_ms: float = 0.0
    subnet_name: str | None = None
    name: str | None = None

    def __post_init__(self) -> None:
        if self.batching is None:
            # ``"batching": null`` in JSON means "no batching", mirroring
            # the nullable autoscaler field.
            object.__setattr__(self, "batching", BatchingSpec())
        elif isinstance(self.batching, Mapping):
            object.__setattr__(self, "batching", BatchingSpec.from_dict(self.batching))
        _require(self.count > 0, f"replica count must be positive, got {self.count}")
        _require(
            self.kind in BACKEND_KINDS,
            f"unknown backend kind {self.kind!r}; expected one of {BACKEND_KINDS}",
        )
        if isinstance(self.policy, str):
            object.__setattr__(self, "policy", Policy(self.policy))
        if self.pb_kb is not None:
            _require(self.pb_kb >= 0, f"pb_kb must be >= 0, got {self.pb_kb}")
        if self.cache_update_period is not None:
            _require(
                self.cache_update_period > 0,
                f"cache_update_period must be positive, got {self.cache_update_period}",
            )
        if self.candidate_set_size is not None:
            _require(
                self.candidate_set_size > 0,
                f"candidate_set_size must be positive, got {self.candidate_set_size}",
            )
        _require(
            self.discipline in DISCIPLINE_NAMES,
            f"unknown queue discipline {self.discipline!r}; expected one of "
            f"{DISCIPLINE_NAMES}",
        )
        _require(
            self.cost_weight > 0,
            f"cost_weight must be positive, got {self.cost_weight}",
        )
        _require(
            self.startup_delay_ms >= 0,
            f"startup_delay_ms must be non-negative, got {self.startup_delay_ms}",
        )
        if isinstance(self.platform, str):
            # Fail at spec time, not at build time.
            platform_by_name(self.platform)
        if self.subnet_name is not None:
            _require(
                self.kind == "static_subnet",
                f"subnet_name only applies to static_subnet backends (kind={self.kind!r})",
            )

    def resolved_platform(self) -> PlatformConfig:
        """The concrete platform this group runs on (with the PB override)."""
        platform = (
            platform_by_name(self.platform)
            if isinstance(self.platform, str)
            else self.platform
        )
        if self.pb_kb is not None:
            platform = platform.with_pb(self.pb_kb)
        return platform


@dataclass(frozen=True)
class AutoscalerSpec(JsonSpec):
    """Declarative autoscaler configuration for a scenario.

    Describes the control plane the engine runs on top of the replica pool:
    which :mod:`scaling policy <repro.serving.autoscale.policies>` to
    evaluate, how often, over what telemetry window, within which pool
    bounds, and which replica group it scales.  Policy-specific knobs are
    flat fields; only the ones belonging to ``policy`` are consumed (the
    rest keep their defaults so the JSON form stays stable).

    Attributes
    ----------
    policy:
        ``reactive`` / ``target_utilization`` / ``predictive`` /
        ``scheduled`` / ``tier_aware``.
    control_interval_ms:
        Simulated time between policy evaluations.
    window_ms:
        Telemetry sliding window (None: twice the control interval).
    min_replicas, max_replicas:
        Hard bounds on each scaled group's active replica count.
    up_cooldown_ms, down_cooldown_ms:
        Minimum spacing between scale-ups / scale-downs.
    group:
        Name of the :class:`ReplicaGroupSpec` to scale (None: the first
        group).  Scale-up clones that group's backend (for SUSHI stacks: a
        fresh scheduler and cold Persistent Buffer sharing the group's
        latency table); scale-down drains a replica before retiring it.
    groups:
        Names of *several* replica groups for the ``tier_aware`` policy,
        which chooses the tier to grow (cheapest ``cost_weight`` that fits
        the budget) or shrink (most expensive first).  Mutually exclusive
        with ``group``; every name must match a replica group.
    cost_budget:
        ``tier_aware`` ceiling on the weighted pool size
        (``sum(cost_weight x incoming replicas)`` over the scaled groups).
        None disables the budget.
    max_drop_rate, max_queue_per_replica, min_utilization,
    scale_up_step, scale_down_step:
        ``reactive`` policy thresholds (``tier_aware`` shares the first
        three).
    target_utilization, deadband:
        ``target_utilization`` / ``predictive`` policy set-point.
    horizon_ms:
        ``predictive`` forecast horizon.  None (the default) derives it at
        build time: the scaled group's ``startup_delay_ms`` plus one
        control interval — the soonest a decision made now can serve.
    schedule, period_ms:
        ``scheduled`` policy plan: ``(start_ms, replicas)`` entries, with
        an optional cycle period for diurnal plans.
    """

    policy: str = "reactive"
    control_interval_ms: float = 50.0
    window_ms: float | None = None
    min_replicas: int = 1
    max_replicas: int = 8
    up_cooldown_ms: float = 0.0
    down_cooldown_ms: float = 0.0
    group: str | None = None
    groups: tuple[str, ...] = ()
    cost_budget: float | None = None
    max_drop_rate: float = 0.05
    max_queue_per_replica: float = 4.0
    min_utilization: float = 0.40
    scale_up_step: int = 1
    scale_down_step: int = 1
    target_utilization: float = 0.60
    deadband: float = 0.10
    horizon_ms: float | None = None
    schedule: tuple[tuple[float, int], ...] = ()
    period_ms: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "schedule", _as_tuple(self.schedule))
        object.__setattr__(self, "groups", tuple(self.groups))
        _require(
            self.policy in SCALING_POLICY_NAMES,
            f"unknown scaling policy {self.policy!r}; "
            f"expected one of {SCALING_POLICY_NAMES}",
        )
        _require(
            self.control_interval_ms > 0, "control_interval_ms must be positive"
        )
        if self.window_ms is not None:
            _require(self.window_ms > 0, "window_ms must be positive")
        _require(self.min_replicas > 0, "min_replicas must be positive")
        _require(
            self.max_replicas >= self.min_replicas,
            f"max_replicas ({self.max_replicas}) must be >= min_replicas "
            f"({self.min_replicas})",
        )
        _require(
            self.up_cooldown_ms >= 0 and self.down_cooldown_ms >= 0,
            "cooldowns must be non-negative",
        )
        if self.policy == "scheduled":
            _require(
                bool(self.schedule), "scheduled autoscalers need a schedule"
            )
        else:
            _require(
                not self.schedule,
                f"{self.policy} autoscalers take no schedule (got {self.schedule})",
            )
        if self.groups:
            _require(
                self.policy == "tier_aware",
                f"groups (multi-tier scaling) needs the tier_aware policy, "
                f"not {self.policy!r}",
            )
            _require(
                self.group is None,
                "pass either group or groups, not both",
            )
            _require(
                len(set(self.groups)) == len(self.groups),
                f"groups must be unique, got {self.groups}",
            )
        if self.cost_budget is not None:
            _require(
                self.policy == "tier_aware",
                f"cost_budget applies to the tier_aware policy, "
                f"not {self.policy!r}",
            )
            _require(self.cost_budget > 0, "cost_budget must be positive")
        if self.horizon_ms is not None:
            _require(
                self.policy == "predictive",
                f"horizon_ms applies to the predictive policy, "
                f"not {self.policy!r}",
            )
            _require(self.horizon_ms >= 0, "horizon_ms must be non-negative")
        # Building the policy validates its knobs at spec time, not at run
        # time; the instance is discarded.
        self.build_policy()

    # ------------------------------------------------------------- building
    def build_policy(self) -> ScalingPolicy:
        """The configured :class:`ScalingPolicy` instance."""
        if self.policy == "reactive":
            return make_policy(
                "reactive",
                max_drop_rate=self.max_drop_rate,
                max_queue_per_replica=self.max_queue_per_replica,
                min_utilization=self.min_utilization,
                scale_up_step=self.scale_up_step,
                scale_down_step=self.scale_down_step,
            )
        if self.policy == "target_utilization":
            return make_policy(
                "target_utilization",
                target_utilization=self.target_utilization,
                deadband=self.deadband,
            )
        if self.policy == "predictive":
            return make_policy(
                "predictive",
                horizon_ms=self.horizon_ms,
                target_utilization=self.target_utilization,
                deadband=self.deadband,
            )
        if self.policy == "tier_aware":
            return make_policy(
                "tier_aware",
                max_drop_rate=self.max_drop_rate,
                max_queue_per_replica=self.max_queue_per_replica,
                min_utilization=self.min_utilization,
            )
        return make_policy(
            "scheduled", schedule=self.schedule, period_ms=self.period_ms
        )


@dataclass(frozen=True)
class ObservabilitySpec(JsonSpec):
    """Opt-in flight-recorder configuration (see :mod:`repro.serving.obs`).

    Absent (``observability: null``), the engine attaches no recorder and
    the run is bit-identical to a build without the obs package — the
    record-identity ladder's observability rung.
    """

    trace: bool = True
    """Attach a ``TraceRecorder``: ``SimulationResult.trace`` carries
    per-query lifecycle spans, replica timelines, provisioning segments
    and autoscaler decision records."""
    keep_metrics: bool = False
    """Keep the autoscaler's per-tick ``MetricsSnapshot`` history on
    ``SimulationResult.metrics`` (autoscaled runs only; a fixed pool has
    no control ticks to snapshot)."""
    metrics_interval_ms: float | None = None
    """Sampling interval of the trace-derived metrics timeseries exporter
    (``null``: one percent of the run's duration)."""

    def __post_init__(self) -> None:
        _require(
            self.trace or self.keep_metrics,
            "an ObservabilitySpec must enable trace or keep_metrics "
            "(use observability: null to turn observability off)",
        )
        if self.metrics_interval_ms is not None:
            _require(
                self.metrics_interval_ms > 0,
                "metrics_interval_ms must be positive",
            )


@dataclass(frozen=True)
class RetryPolicy(JsonSpec):
    """How the fault layer retries queries lost to crashes and failures.

    A lost query re-enters routing after an exponential backoff
    (``backoff_base_ms x backoff_multiplier^(attempt - 1)``), but only
    while the backoff still fits inside the query's deadline slack and the
    attempt budget — otherwise it drops with the ``"failed"`` reason.
    ``max_attempts: 1`` disables retries entirely (every lost query fails
    immediately), the fault-oblivious baseline configuration.
    """

    max_attempts: int = 3
    backoff_base_ms: float = 1.0
    backoff_multiplier: float = 2.0

    def __post_init__(self) -> None:
        _require(
            self.max_attempts >= 1,
            f"max_attempts must be >= 1, got {self.max_attempts}",
        )
        _require(
            self.backoff_base_ms > 0,
            f"backoff_base_ms must be positive, got {self.backoff_base_ms}",
        )
        _require(
            self.backoff_multiplier >= 1.0,
            f"backoff_multiplier must be >= 1.0, got {self.backoff_multiplier}",
        )


@dataclass(frozen=True)
class FaultSpec(JsonSpec):
    """Declarative fault injection (see :mod:`repro.serving.engine.faults`).

    Absent (``faults: null``), the engine attaches no fault injector and
    the run is bit-identical to the fault-free engine — the
    record-identity ladder's fault rung.  When set, seeded fault processes
    run against the replica pool:

    Attributes
    ----------
    seed:
        Seed of the fault processes (independent of the scenario seed —
        the same workload can be replayed under different fault draws).
    crash_mtbf_ms:
        Mean time between crashes per covered replica (exponential).  A
        crashed replica loses its in-flight batch and queued backlog
        (lost queries go through the retry policy) and never recovers;
        replacements provision through the autoscaler, if any.  ``null``
        disables crashes.
    straggler_mtbf_ms, straggler_duration_ms, straggler_factor:
        Straggle intervals per covered replica: onset gaps ~
        Exp(``straggler_mtbf_ms``), durations ~
        Exp(``straggler_duration_ms``); while straggling, every batch the
        replica picks up runs ``straggler_factor`` times slower.
        ``straggler_mtbf_ms: null`` disables stragglers.
    dispatch_failure_prob:
        Probability each dispatch pickup errors transiently (the batch
        goes through the retry policy; the replica stays healthy).
    retry:
        The :class:`RetryPolicy` lost queries go through.
    brownout_threshold:
        Failed fraction of the pool at which brownout degradation starts
        relaxing dispatched queries' accuracy floors (``null`` disables
        brownout).  Each further threshold-multiple of pressure steps the
        ladder once more, up to ``brownout_max_steps`` steps of
        ``brownout_accuracy_step`` relaxation each; replacement capacity
        joining the pool steps the ladder back down.
    brownout_accuracy_step, brownout_max_steps:
        The brownout ladder's per-step accuracy relaxation and cap.
    groups:
        Replica group names the fault processes cover (empty: every
        group).  Every name must match a replica group.
    """

    seed: int = 0
    crash_mtbf_ms: float | None = None
    straggler_mtbf_ms: float | None = None
    straggler_duration_ms: float = 0.0
    straggler_factor: float = 1.0
    dispatch_failure_prob: float = 0.0
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    brownout_threshold: float | None = None
    brownout_accuracy_step: float = 0.01
    brownout_max_steps: int = 3
    groups: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.retry is None:
            # ``"retry": null`` in JSON means "default retries", mirroring
            # the nullable batching field.
            object.__setattr__(self, "retry", RetryPolicy())
        elif isinstance(self.retry, Mapping):
            object.__setattr__(self, "retry", RetryPolicy.from_dict(self.retry))
        object.__setattr__(self, "groups", tuple(self.groups))
        if self.crash_mtbf_ms is not None:
            _require(
                self.crash_mtbf_ms > 0,
                f"crash_mtbf_ms must be positive, got {self.crash_mtbf_ms}",
            )
        if self.straggler_mtbf_ms is not None:
            _require(
                self.straggler_mtbf_ms > 0,
                f"straggler_mtbf_ms must be positive, got {self.straggler_mtbf_ms}",
            )
            _require(
                self.straggler_duration_ms > 0,
                "straggler_duration_ms must be positive when stragglers are "
                f"enabled, got {self.straggler_duration_ms}",
            )
            _require(
                self.straggler_factor >= 1.0,
                f"straggler_factor must be >= 1.0, got {self.straggler_factor}",
            )
        _require(
            0.0 <= self.dispatch_failure_prob < 1.0,
            f"dispatch_failure_prob must be in [0, 1), "
            f"got {self.dispatch_failure_prob}",
        )
        if self.brownout_threshold is not None:
            _require(
                0.0 < self.brownout_threshold <= 1.0,
                f"brownout_threshold must be in (0, 1], "
                f"got {self.brownout_threshold}",
            )
            _require(
                self.brownout_accuracy_step > 0,
                "brownout_accuracy_step must be positive, "
                f"got {self.brownout_accuracy_step}",
            )
            _require(
                self.brownout_max_steps >= 1,
                f"brownout_max_steps must be >= 1, got {self.brownout_max_steps}",
            )
        _require(
            len(set(self.groups)) == len(self.groups),
            f"fault groups must be unique, got {self.groups}",
        )


@dataclass(frozen=True)
class ScenarioSpec(JsonSpec):
    """A complete, serializable serving scenario.

    The one object :func:`repro.serving.api.run_scenario` needs: replica
    pool(s), routing and admission at the engine level, the constraint
    workload, and the arrival process.

    Attributes
    ----------
    name:
        Scenario name (also names the generated query trace).
    supernet_name:
        SuperNet family every backend serves.
    policy, cache_update_period:
        Scenario-wide defaults, overridable per replica group.
    replica_groups:
        One or more :class:`ReplicaGroupSpec`; mixed groups form a
        heterogeneous pool.
    router, admission:
        Engine-level routing (``round_robin`` / ``jsq`` / ``least_loaded``)
        and admission (``admit_all`` / ``drop_expired``) policies.
    workload:
        Constraint-stream spec.  ``accuracy_range`` / ``latency_range_ms``
        of None are resolved at build time from the pool's feasible ranges.
    arrivals:
        Arrival process spec.
    autoscaler:
        Optional :class:`AutoscalerSpec`.  ``None`` keeps the pool fixed —
        the scenario is record-identical to the pre-autoscaling engine
        path.  When set, the engine runs the control plane over the named
        replica group: telemetry, policy evaluation every control interval,
        replica cloning and drain-then-retire.
    num_queries:
        Stream length override (None keeps ``workload.num_queries``).
    seed:
        Scenario seed: the workload seed and the default backend seed.
    observability:
        Optional :class:`ObservabilitySpec`.  ``None`` (the default)
        attaches no flight recorder and the run is bit-identical to a
        build without observability; when set, ``SimulationResult.trace``
        (and optionally ``.metrics``) carry the recorded run.
    faults:
        Optional :class:`FaultSpec`.  ``None`` (the default) attaches no
        fault injector and the run is bit-identical to the fault-free
        engine; when set, seeded crash / straggler / dispatch-failure
        processes run against the pool, lost queries go through the retry
        policy, and (optionally) brownout degradation relaxes accuracy
        floors under capacity loss.
    """

    name: str = "scenario"
    supernet_name: str = "ofa_resnet50"
    policy: Policy = Policy.STRICT_ACCURACY
    cache_update_period: int = 4
    replica_groups: tuple[ReplicaGroupSpec, ...] = (ReplicaGroupSpec(),)
    router: str = "round_robin"
    admission: str = "admit_all"
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    arrivals: ArrivalSpec = field(
        default_factory=lambda: ArrivalSpec(kind="poisson", rate_per_ms=0.1)
    )
    autoscaler: AutoscalerSpec | None = None
    num_queries: int | None = None
    seed: int = 0
    observability: ObservabilitySpec | None = None
    faults: FaultSpec | None = None

    def __post_init__(self) -> None:
        if isinstance(self.policy, str):
            object.__setattr__(self, "policy", Policy(self.policy))
        object.__setattr__(self, "replica_groups", tuple(self.replica_groups))
        _require(bool(self.replica_groups), "a scenario needs at least one replica group")
        named = [g.name for g in self.replica_groups if g.name is not None]
        _require(
            len(set(named)) == len(named),
            f"replica group names must be unique, got {named}",
        )
        _require(self.cache_update_period > 0, "cache_update_period must be positive")
        # Fail at spec time, not at build time; aliases such as "mobv3" parse.
        resolve_supernet_name(self.supernet_name)
        _require(
            self.router in ROUTER_NAMES,
            f"unknown router {self.router!r}; expected one of {ROUTER_NAMES}",
        )
        _require(
            self.admission in ADMISSION_NAMES,
            f"unknown admission policy {self.admission!r}; expected one of "
            f"{ADMISSION_NAMES}",
        )
        if self.num_queries is not None:
            _require(self.num_queries > 0, "num_queries must be positive")
        if self.autoscaler is not None:
            names = [g.name for g in self.replica_groups]
            if self.autoscaler.group is not None:
                _require(
                    self.autoscaler.group in names,
                    f"autoscaler.group {self.autoscaler.group!r} names no "
                    f"replica group (groups: {names})",
                )
            for name in self.autoscaler.groups:
                _require(
                    name in names,
                    f"autoscaler.groups entry {name!r} names no replica "
                    f"group (groups: {names})",
                )
        if self.faults is not None:
            names = [g.name for g in self.replica_groups]
            for name in self.faults.groups:
                _require(
                    name in names,
                    f"faults.groups entry {name!r} names no replica "
                    f"group (groups: {names})",
                )

    # ------------------------------------------------------------- derived
    @property
    def num_replicas(self) -> int:
        return sum(g.count for g in self.replica_groups)

    @property
    def effective_num_queries(self) -> int:
        return self.num_queries if self.num_queries is not None else self.workload.num_queries

    def group_policy(self, group: ReplicaGroupSpec) -> Policy:
        return group.policy if group.policy is not None else self.policy

    def group_cache_update_period(self, group: ReplicaGroupSpec) -> int:
        if group.cache_update_period is not None:
            return group.cache_update_period
        return self.cache_update_period

    def group_seed(self, group: ReplicaGroupSpec) -> int:
        return group.seed if group.seed is not None else self.seed

    def scaled_groups(self) -> tuple[ReplicaGroupSpec, ...]:
        """The replica groups the autoscaler manages, in declaration order.

        Multi-tier autoscalers (``autoscaler.groups``) scale several named
        groups; otherwise the single named ``autoscaler.group`` (or the
        first group) is scaled.  Requires an autoscaler.
        """
        if self.autoscaler is None:
            raise ValueError("the scenario has no autoscaler")
        if self.autoscaler.groups:
            wanted = set(self.autoscaler.groups)
            return tuple(g for g in self.replica_groups if g.name in wanted)
        if self.autoscaler.group is None:
            return (self.replica_groups[0],)
        return tuple(
            g for g in self.replica_groups if g.name == self.autoscaler.group
        )

    def override(self, path: str, value: Any) -> "ScenarioSpec":
        """A copy with one dotted-path field replaced (CLI ``--override``).

        ``path`` addresses the serialized form, so list indices work:
        ``"arrivals.rate_per_ms"``, ``"replica_groups.0.count"``,
        ``"workload.pattern"``, ``"num_queries"``.
        """
        return self.override_many([(path, value)])

    def override_many(
        self, overrides: "Sequence[tuple[str, Any]]"
    ) -> "ScenarioSpec":
        """A copy with several dotted-path fields replaced *atomically*.

        All overrides are applied to the serialized form before the spec is
        re-validated once, so interdependent fields can change together —
        e.g. switching ``autoscaler.policy`` to ``scheduled`` *and* setting
        ``autoscaler.schedule`` in one step, where either override alone
        would be rejected.
        """
        data = self.to_dict()
        for path, value in overrides:
            _apply_override(data, path, value)
        return type(self).from_dict(data)


def scenario_schema() -> dict[str, Any]:
    """Machine-readable reference of the scenario JSON format.

    Returns the serialized *defaults* of every spec (each key of the
    ``defaults`` sections is exactly a key of the corresponding JSON
    object) plus the closed ``enums`` each string field accepts.  This is
    what ``python -m repro schema`` prints, and what the docs sync test
    holds ``docs/scenario-schema.md`` against — the prose reference cannot
    silently drift from the dataclasses.
    """
    return {
        "defaults": {
            "scenario": ScenarioSpec().to_dict(),
            "replica_group": ReplicaGroupSpec().to_dict(),
            "batching": BatchingSpec().to_dict(),
            "workload": _encode(WorkloadSpec()),
            "arrivals": ArrivalSpec(kind="poisson", rate_per_ms=0.1).to_dict(),
            "autoscaler": AutoscalerSpec().to_dict(),
            "observability": ObservabilitySpec().to_dict(),
            "faults": FaultSpec().to_dict(),
            "retry": RetryPolicy().to_dict(),
        },
        "enums": {
            "policy": [p.value for p in Policy],
            "router": list(ROUTER_NAMES),
            "admission": list(ADMISSION_NAMES),
            "replica_groups[].kind": list(BACKEND_KINDS),
            "replica_groups[].discipline": list(DISCIPLINE_NAMES),
            "replica_groups[].batching.policy": list(BATCHING_POLICIES),
            "workload.pattern": list(PATTERNS),
            "arrivals.kind": list(ARRIVAL_KINDS),
            "autoscaler.policy": list(SCALING_POLICY_NAMES),
        },
    }
