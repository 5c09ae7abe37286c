"""Field domains: each spec field declares, next to itself, what it accepts.

A numeric field declares a :class:`Number` (int or float, a lower bound, an
upper bound or the reason it has none), a closed string field a
:class:`Choice`, a name a registry resolves (aliases included) a
:class:`Known`; a tuple field declares its ``items``' domain, or one domain
per entry of its rows; a field that may hold an inline object of a class
declared outside the spec layer (a ``PlatformConfig``) declares that
object's field domains.  Every number must be finite: JSON has no ``NaN`` or
``Infinity``.  :func:`check_fields`, run by every spec's ``__post_init__``,
is the one check (direct construction, ``dataclasses.replace`` and decoding
alike); :func:`repro.serving.spec.scenario_schema` publishes the domains.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import numbers
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Union

__all__ = [
    "Choice", "FieldError", "Known", "MAX_MS", "MAX_QUERIES", "Number", "check_fields",
    "check_inline", "declare",
]

#: Longest simulated time any time field accepts: one week, in ms.
MAX_MS = 604_800_000.0

#: Longest query stream: ten times the largest the repo runs (10M queries).
MAX_QUERIES = 100_000_000


class FieldError(ValueError):
    """A value outside its field's domain, or a broken cross-field rule.

    ``path`` is the field's dotted path from the spec that raised it;
    decoding prefixes the enclosing spec's path on the way out.
    """

    def __init__(self, path: str, reason: str) -> None:
        super().__init__(f"invalid value at {path!r}: {reason}")
        self.path = path
        self.reason = reason


@dataclass(frozen=True)
class Number:
    """An int or float between optional bounds (``gt``/``ge`` below,
    ``lt``/``le`` above).  A domain without an upper bound says why in
    ``unbounded``."""

    type: str
    gt: float | None = None
    ge: float | None = None
    lt: float | None = None
    le: float | None = None
    unbounded: str | None = None

    def __str__(self) -> str:
        low = f"[{self.ge!r}" if self.gt is None else f"({self.gt!r}"
        if self.unbounded is not None:
            kind = "finite float" if self.type == "float" else "int"
            return f"{kind} {'>=' if self.gt is None else '>'} {low[1:]}"
        high = f"{self.le!r}]" if self.lt is None else f"{self.lt!r})"
        return f"{self.type} in {low}, {high}"

    def admits(self, value: Any) -> bool:
        if isinstance(value, bool) or not isinstance(
            value, numbers.Integral if self.type == "int" else numbers.Real
        ):
            return False
        if self.type == "float":
            try:
                if not math.isfinite(value):
                    return False
            except OverflowError:  # an int too large for any float
                return False
        return (
            (self.gt is None or value > self.gt)
            and (self.ge is None or value >= self.ge)
            and (self.lt is None or value < self.lt)
            and (self.le is None or value <= self.le)
        )

    def to_dict(self) -> dict[str, Any]:
        return {k: v for k, v in dataclasses.asdict(self).items() if v is not None}


@dataclass(frozen=True)
class Choice:
    """One of a closed set of names."""

    names: tuple[str, ...]

    def __str__(self) -> str:
        return f"one of {list(self.names)}"

    def admits(self, value: Any) -> bool:
        return value in self.names


@dataclass(frozen=True)
class Known:
    """A name ``lookup`` resolves; ``lookup`` raises ``ValueError`` for an
    unknown one (the set is open: aliases and case variants resolve too)."""

    lookup: Callable[[str], Any]


Domain = Union[Number, Choice, Known]


def declare(
    default: Any,
    domain: Domain | None = None,
    *,
    items: Domain | tuple[Domain, ...] | None = None,
    inline: Mapping[str, Domain] | None = None,
) -> Any:
    """A dataclass field defaulting to ``default`` whose value (or each
    item, or row) lies in its domain; ``None`` passes, as the type allows.
    ``inline`` maps the fields of an inline object the value may be to
    their domains."""
    return dataclasses.field(
        default=default, metadata={"domain": domain, "items": items, "inline": inline}
    )


@functools.cache
def _declared(cls: type[Any]) -> tuple[tuple[str, Any, Any, Any], ...]:
    declared = (
        (f.name, f.metadata.get("domain"), f.metadata.get("items"), f.metadata.get("inline"))
        for f in dataclasses.fields(cls)
    )
    return tuple(d for d in declared if any(x is not None for x in d[1:]))


def check_fields(spec: Any) -> None:
    """Raise :class:`FieldError` for the first field of dataclass ``spec``
    whose value lies outside its declared domain."""
    for name, domain, items, inline in _declared(type(spec)):
        value = getattr(spec, name)
        if value is None:
            continue
        if inline is not None and dataclasses.is_dataclass(value):
            check_inline(vars(value), inline, name)
            continue
        if domain is not None:
            _check(domain, value, name)
            continue
        if not isinstance(value, (tuple, list)):
            raise FieldError(name, f"expected a list, got {value!r}")
        for i, item in enumerate(value):
            if not isinstance(items, tuple):
                _check(items, item, f"{name}.{i}")
            elif isinstance(item, (tuple, list)) and len(item) == len(items):
                for j, (part, entry) in enumerate(zip(items, item)):
                    _check(part, entry, f"{name}.{i}.{j}")
            else:
                raise FieldError(
                    f"{name}.{i}", f"expected {len(items)} entries, got {item!r}"
                )


def check_inline(values: Mapping[str, Any], inline: Mapping[str, Domain], path: str) -> None:
    """Raise :class:`FieldError` for the first of an inline object's
    ``values`` (at ``path``) outside its domain in ``inline``."""
    for name, domain in inline.items():
        if values.get(name) is not None:
            _check(domain, values[name], f"{path}.{name}")


def _check(domain: Domain, value: Any, path: str) -> None:
    if isinstance(domain, Known):
        if isinstance(value, str):
            try:
                domain.lookup(value)
            except ValueError as exc:
                raise FieldError(path, str(exc)) from None
    elif not domain.admits(value):
        raise FieldError(path, f"expected {domain}, got {value!r}")
