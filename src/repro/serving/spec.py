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
  prints the full field/default/enum/domain reference
  (:func:`scenario_schema`; prose version in ``docs/scenario-schema.md``).
* **Validation at construction** — every numeric and closed-string field
  declares its domain next to itself (:mod:`repro.serving.domain`), and
  one check enforces the declarations in ``__post_init__``, beside the
  cross-field rules; an invalid scenario fails when parsed, never mid-run.
  ``from_dict`` rejects a key the spec does not declare, a value of the
  wrong JSON type or outside its domain, or a broken cross-field rule,
  with one ``ValueError`` naming its dotted path.
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

from repro.accelerator.buffers import default_hierarchy
from repro.accelerator.platforms import PlatformConfig, platform_by_name
from repro.core.policies import Policy
from repro.serving.autoscale.policies import POLICY_NAMES, ScalingPolicy, make_policy
from repro.serving.domain import (
    MAX_MS, MAX_QUERIES, Choice, FieldError, Known, Number, check_fields, check_inline, declare
)
from repro.serving.engine.admission import ADMISSION_NAMES
from repro.serving.engine.disciplines import DISCIPLINE_NAMES
from repro.serving.engine.routing import ROUTER_NAMES
from repro.serving.workload import WorkloadSpec
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

#: The fields each supported arrival process reads besides ``kind`` and
#: ``seed``; every other field of its :class:`ArrivalSpec` keeps its default.
_KIND_FIELDS: dict[str, tuple[str, ...]] = {
    "poisson": ("rate_per_ms",),
    "deterministic": ("rate_per_ms",),
    "time_varying": ("segments",),
    "trace": ("path", "events", "rate_scale", "time_scale", "limit"),
}

#: Supported arrival processes.
ARRIVAL_KINDS: tuple[str, ...] = tuple(_KIND_FIELDS)

#: Batched-dispatch policies a replica group can run under.
BATCHING_POLICIES: tuple[str, ...] = (
    "shared_subnet",  # one shared SubNet decision + one evaluation per batch
    "per_query",  # per-member decisions, served back to back in one pickup
)


#: Largest replica pool a group, scale step or autoscaler bound names:
#: routing and control scan every live replica, so pools stay in the tens.
MAX_REPLICAS = 1024

#: Smallest Persistent Buffer a ``sushi`` replica serves from: the smallest
#: that holds one SubGraph of every bundled SuperNet (``ofa_resnet50``
#: needs 1.25 KB); a smaller one leaves its candidate set empty.
MIN_SUSHI_PB_KB = 2.0

_SEED = Number("int", ge=0, unbounded="numpy's default_rng takes any int >= 0")
_QUERIES = Number("int", ge=1, le=MAX_QUERIES)
_REPLICAS = Number("int", ge=1, le=MAX_REPLICAS)
_FRACTION = Number("float", ge=0, le=1)
_TIME = Number("float", ge=0, le=MAX_MS)
_SPAN = Number("float", gt=0, le=MAX_MS)
#: Floor of a control or sampling interval: one tick per 0.1 ms of run.
_INTERVAL = Number("float", ge=0.1, le=MAX_MS)
#: A cold start or straggle keeps the control loop ticking until it ends.
_DELAY = Number("float", ge=0, le=60_000.0)
#: Arrival rates in queries/ms: one query per second is the floor.
_RATE = Number("float", ge=0.001, le=1e6)
_SCALE = Number("float", ge=1e-6, le=1e6)
#: Floor of a ``time_varying`` cycle's expected arrivals, ``sum(d * r)``.
#: Generating a query walks about ``1 / sum(d * r)`` segments, so a cycle
#: of a few thousandths of an arrival would spend seconds per query.
MIN_CYCLE_ARRIVALS = 0.01
_ENERGY = Number("float", ge=0, le=1e6)

#: The numbers of an inline ``platform`` object.  ``PlatformConfig`` is the
#: accelerator model's type and checks only signs and the PB against the
#: budget when built; these bounds keep a served query's latency finite
#: (at most about 100x the bundled platforms' clock and bandwidth spread).
PLATFORM_DOMAINS = {
    "clock_mhz": Number("float", ge=1, le=1e5),
    "kp": Number("int", ge=1, le=4096),
    "cp": Number("int", ge=1, le=4096),
    "dpe_size": Number("int", ge=1, le=64),
    "off_chip_bandwidth_gbps": Number("float", ge=0.1, le=1e4),
    "on_chip_bandwidth_bytes_per_cycle": Number("float", ge=1, le=1e6),
    "total_buffer_kb": Number("float", gt=0, le=1e6),
    "pb_kb": Number("float", ge=0, le=1e6),
    "dram_pj_per_byte": _ENERGY,
    "sram_pj_per_byte": _ENERGY,
    "board_power_w": _ENERGY,
    "dram_contention_factor": Number("float", ge=1, le=1e3),
    "query_overhead_cycles": Number("float", ge=0, le=1e8),
}


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
    first key the class does not declare, required key it lacks, value of
    the wrong JSON type, or value its constructor rejects.

    ``__post_init__`` checks every field against its declared domain; a
    subclass with cross-field rules calls it first, then raises
    :class:`~repro.serving.domain.FieldError` naming the field at fault.
    """

    def __post_init__(self) -> None:
        check_fields(self)

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
def _field_types(cls: type[Any]) -> dict[str, tuple[Any, bool, Any]]:
    """Each field of dataclass ``cls``: its resolved type, has-a-default,
    and the field domains of an inline object it may hold (or ``None``)."""
    hints = get_type_hints(cls)
    return {
        f.name: (
            hints[f.name],
            f.default is not dataclasses.MISSING
            or f.default_factory is not dataclasses.MISSING,
            f.metadata.get("inline"),
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
        tp, has_default, inline = known[key]
        if value is None and has_default and dataclasses.is_dataclass(tp):
            continue  # a null nested object (``"batching": null``) = key absent
        if inline is not None and isinstance(value, Mapping):
            # Before the object is built, so its own checks cannot name
            # only the object.
            check_inline(value, inline, _join(path, key))
        kwargs[key] = _decode(tp, value, _join(path, key))
    for key, (_, has_default, _) in known.items():
        if not has_default and key not in kwargs:
            raise ValueError(f"missing key {_join(path, key)!r} in {cls.__name__}")
    try:
        return cls(**kwargs)
    except FieldError as exc:
        raise FieldError(_join(path, exc.path), exc.reason) from None
    except ValueError as exc:
        if not path:
            raise
        raise FieldError(path, str(exc)) from None


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
        return value  # the field's declared Choice checks it
    if isinstance(tp, type) and issubclass(tp, Enum):
        try:
            return tp(value)
        except ValueError:
            raise FieldError(
                path, f"expected one of {[m.value for m in tp]}, got {value!r}"
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


def _indexed(path: str, names: tuple[str, ...]) -> list[tuple[str, str | None]]:
    return [(_join(path, i), name) for i, name in enumerate(names)]


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

    kind: str = declare("poisson", Choice(ARRIVAL_KINDS))
    rate_per_ms: float | None = declare(None, _RATE)
    segments: tuple[tuple[float, float], ...] = declare((), items=(_SPAN, _RATE))
    seed: int = declare(0, _SEED)
    path: str | None = None
    events: tuple[float, ...] = declare((), items=_TIME)
    rate_scale: float = declare(1.0, _SCALE)
    time_scale: float = declare(1.0, _SCALE)
    limit: int | None = declare(None, _QUERIES)

    def __post_init__(self) -> None:
        object.__setattr__(self, "segments", _as_tuple(self.segments))
        object.__setattr__(self, "events", tuple(self.events))
        super().__post_init__()
        object.__setattr__(self, "events", tuple(float(e) for e in self.events))
        takes = ("kind", "seed", *_KIND_FIELDS[self.kind])
        for f in fields(self):
            if f.name not in takes and getattr(self, f.name) != f.default:
                raise FieldError(f.name, f"{self.kind} arrivals take no {f.name}")
        if self.kind in ("poisson", "deterministic") and self.rate_per_ms is None:
            raise FieldError("rate_per_ms", f"{self.kind} arrivals need a rate")
        if self.kind == "time_varying":
            if not self.segments:
                raise FieldError("segments", "time_varying arrivals need segments")
            expected = sum(d * r for d, r in self.segments)
            if expected < MIN_CYCLE_ARRIVALS:
                raise FieldError(
                    "segments",
                    f"a cycle must expect at least {MIN_CYCLE_ARRIVALS} arrivals "
                    f"(sum of duration_ms x rate_per_ms is {expected:.6g})",
                )
        if self.kind == "trace" and (self.path is None) == (not self.events):
            raise FieldError("path", "trace arrivals need exactly one of path or events")
        if any(a > b for a, b in zip(self.events, self.events[1:])):
            raise FieldError("events", "inline trace events must be non-decreasing")
        if self.events and self.events[: self.limit][-1] <= 0.0:
            at_fault = "events" if self.events[-1] <= 0.0 else "limit"
            raise FieldError(
                at_fault, "the replayed events must span positive time (the last one is 0)"
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
        if float(events[-1]) <= 0.0:
            raise ValueError(
                "the replayed trace must span positive time (its last timestamp is 0)"
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

    max_batch: int = declare(1, _QUERIES)
    policy: str = declare("shared_subnet", Choice(BATCHING_POLICIES))


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
        but differing in PB size model big/small accelerator tiers.  At
        most the platform's on-chip budget; a ``sushi`` group's PB (this or
        the platform's) holds at least :data:`MIN_SUSHI_PB_KB`.
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

    count: int = declare(1, _REPLICAS)
    kind: str = declare("sushi", Choice(BACKEND_KINDS))
    platform: str | PlatformConfig = declare(
        "analytic-default", Known(platform_by_name), inline=PLATFORM_DOMAINS
    )
    pb_kb: float | None = declare(
        None, Number("float", ge=0, unbounded="the platform's on-chip budget bounds it")
    )
    policy: Policy | None = None
    cache_update_period: int | None = declare(None, _QUERIES)
    candidate_set_size: int | None = declare(None, Number("int", ge=1, le=256))
    seed: int | None = declare(None, _SEED)
    discipline: str = declare("fifo", Choice(DISCIPLINE_NAMES))
    batching: BatchingSpec = field(default_factory=BatchingSpec)
    cost_weight: float = declare(1.0, Number("float", gt=0, le=1e6))
    startup_delay_ms: float = declare(0.0, _DELAY)
    subnet_name: str | None = None
    name: str | None = None

    def __post_init__(self) -> None:
        if self.batching is None:
            # ``"batching": null`` in JSON means "no batching", mirroring
            # the nullable autoscaler field.
            object.__setattr__(self, "batching", BatchingSpec())
        elif isinstance(self.batching, Mapping):
            batching = BatchingSpec.from_dict(self.batching, path="batching")
            object.__setattr__(self, "batching", batching)
        if isinstance(self.policy, str):
            object.__setattr__(self, "policy", _decode(Policy, self.policy, "policy"))
        super().__post_init__()
        if self.subnet_name is not None and self.kind != "static_subnet":
            raise FieldError(
                "subnet_name", f"only static_subnet groups pin one (kind={self.kind!r})"
            )
        try:
            platform = self.resolved_platform()
        except ValueError as exc:
            raise FieldError("pb_kb", str(exc)) from None
        pb_kb = platform.pb_kb
        if isinstance(self.platform, PlatformConfig):
            # An inline platform's fixed buffers must fit its budget; its PB
            # is what they leave of the request.
            try:
                pb_kb = default_hierarchy(platform).pb.capacity_kb
            except ValueError as exc:
                raise FieldError("platform", str(exc)) from None
        if self.kind == "sushi" and pb_kb < MIN_SUSHI_PB_KB:
            raise FieldError(
                "pb_kb",
                f"a sushi replica needs a Persistent Buffer of at least "
                f"{MIN_SUSHI_PB_KB} KB to cache a SubGraph in, got {pb_kb} KB "
                "(kind no_sushi serves without one)",
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
    rest keep their defaults so the JSON form stays stable), but every
    knob must lie in its domain whatever the policy.

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

    policy: str = declare("reactive", Choice(SCALING_POLICY_NAMES))
    control_interval_ms: float = declare(50.0, _INTERVAL)
    window_ms: float | None = declare(None, _SPAN)
    min_replicas: int = declare(1, _REPLICAS)
    max_replicas: int = declare(8, _REPLICAS)
    up_cooldown_ms: float = declare(0.0, _TIME)
    down_cooldown_ms: float = declare(0.0, _TIME)
    group: str | None = None
    groups: tuple[str, ...] = ()
    cost_budget: float | None = declare(
        None, Number("float", gt=0, unbounded="a budget above the pool never binds")
    )
    max_drop_rate: float = declare(0.05, _FRACTION)
    max_queue_per_replica: float = declare(
        4.0, Number("float", gt=0, unbounded="a huge threshold turns the trigger off")
    )
    min_utilization: float = declare(0.40, _FRACTION)
    scale_up_step: int = declare(1, _REPLICAS)
    scale_down_step: int = declare(1, _REPLICAS)
    target_utilization: float = declare(0.60, Number("float", gt=0, le=1))
    deadband: float = declare(0.10, Number("float", ge=0, lt=1))
    horizon_ms: float | None = declare(None, _TIME)
    schedule: tuple[tuple[float, int], ...] = declare((), items=(_TIME, _REPLICAS))
    period_ms: float | None = declare(None, _SPAN)

    def __post_init__(self) -> None:
        object.__setattr__(self, "schedule", _as_tuple(self.schedule))
        object.__setattr__(self, "groups", tuple(self.groups))
        super().__post_init__()
        if self.max_replicas < self.min_replicas:
            raise FieldError(
                "max_replicas",
                f"must be >= min_replicas ({self.min_replicas}), got {self.max_replicas}",
            )
        for name, owner in (
            ("groups", "tier_aware"),
            ("cost_budget", "tier_aware"),
            ("horizon_ms", "predictive"),
            ("schedule", "scheduled"),
        ):
            if getattr(self, name) not in (None, ()) and self.policy != owner:
                raise FieldError(name, f"applies to the {owner} policy, not {self.policy!r}")
        if self.groups and self.group is not None:
            raise FieldError("groups", "pass either group or groups, not both")
        if len(set(self.groups)) != len(self.groups):
            raise FieldError("groups", f"names must be unique, got {self.groups}")
        # Building the policy checks what no single field's domain can (a
        # scheduled policy's plan: present, sorted, shorter than its
        # period); the instance is discarded.
        try:
            self.build_policy()
        except ValueError as exc:
            raise FieldError("schedule", str(exc)) from None

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
    metrics_interval_ms: float | None = declare(None, _INTERVAL)
    """Sampling interval of the trace-derived metrics timeseries exporter
    (``null``: one percent of the run's duration)."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if not (self.trace or self.keep_metrics):
            raise FieldError(
                "trace",
                "an ObservabilitySpec must enable trace or keep_metrics "
                "(use observability: null to turn observability off)",
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

    max_attempts: int = declare(3, Number("int", ge=1, le=100))
    backoff_base_ms: float = declare(1.0, _SPAN)
    # 1000 ** 99 * MAX_MS stays a float: the longest backoff never overflows.
    backoff_multiplier: float = declare(2.0, Number("float", ge=1, le=1000))


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

    seed: int = declare(0, _SEED)
    crash_mtbf_ms: float | None = declare(None, _SPAN)
    straggler_mtbf_ms: float | None = declare(None, _INTERVAL)
    straggler_duration_ms: float = declare(0.0, _DELAY)
    straggler_factor: float = declare(1.0, Number("float", ge=1, le=1000))
    dispatch_failure_prob: float = declare(0.0, Number("float", ge=0, lt=1))
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    brownout_threshold: float | None = declare(None, Number("float", gt=0, le=1))
    brownout_accuracy_step: float = declare(0.01, Number("float", gt=0, le=1))
    brownout_max_steps: int = declare(3, Number("int", ge=1, le=100))
    groups: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.retry is None:
            # ``"retry": null`` in JSON means "default retries", mirroring
            # the nullable batching field.
            object.__setattr__(self, "retry", RetryPolicy())
        elif isinstance(self.retry, Mapping):
            object.__setattr__(self, "retry", RetryPolicy.from_dict(self.retry, path="retry"))
        object.__setattr__(self, "groups", tuple(self.groups))
        super().__post_init__()
        if self.straggler_mtbf_ms is not None and self.straggler_duration_ms <= 0:
            raise FieldError(
                "straggler_duration_ms", "must be positive when stragglers are enabled"
            )
        if len(set(self.groups)) != len(self.groups):
            raise FieldError("groups", f"names must be unique, got {self.groups}")


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
    supernet_name: str = declare("ofa_resnet50", Known(resolve_supernet_name))
    policy: Policy = Policy.STRICT_ACCURACY
    cache_update_period: int = declare(4, _QUERIES)
    replica_groups: tuple[ReplicaGroupSpec, ...] = (ReplicaGroupSpec(),)
    router: str = declare("round_robin", Choice(ROUTER_NAMES))
    admission: str = declare("admit_all", Choice(ADMISSION_NAMES))
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    arrivals: ArrivalSpec = field(
        default_factory=lambda: ArrivalSpec(kind="poisson", rate_per_ms=0.1)
    )
    autoscaler: AutoscalerSpec | None = None
    num_queries: int | None = declare(None, _QUERIES)
    seed: int = declare(0, _SEED)
    observability: ObservabilitySpec | None = None
    faults: FaultSpec | None = None

    def __post_init__(self) -> None:
        if isinstance(self.policy, str):
            object.__setattr__(self, "policy", _decode(Policy, self.policy, "policy"))
        object.__setattr__(self, "replica_groups", tuple(self.replica_groups))
        super().__post_init__()
        if not self.replica_groups:
            raise FieldError("replica_groups", "a scenario needs at least one group")
        names = [g.name for g in self.replica_groups]
        named = [n for n in names if n is not None]
        if len(set(named)) != len(named):
            raise FieldError("replica_groups", f"group names must be unique, got {named}")
        references: list[tuple[str, str | None]] = []
        if self.autoscaler is not None:
            references.append(("autoscaler.group", self.autoscaler.group))
            references += _indexed("autoscaler.groups", self.autoscaler.groups)
        if self.faults is not None:
            references += _indexed("faults.groups", self.faults.groups)
        for path, name in references:
            if name is not None and name not in names:
                raise FieldError(path, f"{name!r} names no replica group (groups: {names})")
        limit = self.arrivals.limit
        if limit is not None and limit < self.effective_num_queries:
            raise FieldError(
                "arrivals.limit",
                f"replays {limit} arrivals but the scenario needs "
                f"{self.effective_num_queries}",
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
    object), the closed ``enums`` each string field accepts, and the
    ``domains`` of the numeric fields (``[]`` marks a list's items, a list
    of domains a row's entries), both read off the field declarations.
    This is what ``python -m repro schema`` prints, and what the docs sync
    test holds ``docs/scenario-schema.md`` against — the prose reference
    cannot silently drift from the dataclasses.
    """
    enums: dict[str, list[str]] = {}
    domains: dict[str, Any] = {}
    _publish(ScenarioSpec, "", enums, domains)
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
        "enums": enums,
        "domains": domains,
    }


def _publish(
    cls: Any, prefix: str, enums: dict[str, list[str]], domains: dict[str, Any]
) -> None:
    """Add the declared choices and number domains of dataclass ``cls``
    and of the spec objects it nests, under their dotted paths."""
    for f in fields(cls):
        path = prefix + f.name
        domain, items = f.metadata.get("domain"), f.metadata.get("items")
        for name, inline in (f.metadata.get("inline") or {}).items():
            domains[f"{path}.{name}"] = inline.to_dict()
        if isinstance(domain, Choice):
            enums[path] = list(domain.names)
        elif isinstance(domain, Number):
            domains[path] = domain.to_dict()
        elif isinstance(items, tuple):
            domains[path + "[]"] = [d.to_dict() for d in items]
        elif isinstance(items, Number):
            domains[path + "[]"] = items.to_dict()
        elif domain is None:
            tp = _field_types(cls)[f.name][0]
            if get_origin(tp) is tuple:
                tp, path = get_args(tp)[0], path + "[]"
            for arm in get_args(tp) or (tp,):
                if dataclasses.is_dataclass(arm):
                    _publish(arm, path + ".", enums, domains)
                elif isinstance(arm, type) and issubclass(arm, Enum):
                    enums[path] = [m.value for m in arm]
