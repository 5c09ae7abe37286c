"""Fuzzing the committed scenarios from the published field domains.

``scenario_schema()`` publishes each numeric field's domain and each
closed string field's choices.  A hypothesis strategy picks one leaf of a
committed scenario (every scenario in ``examples/scenarios/``, plus
variants that spell out the fields none of them sets: a flight recorder,
a scheduled and a tier-aware autoscaler, inline trace events, an inline
platform) and gives it
a value drawn from that leaf's declaration:

* an **in-domain** value must either run at a few dozen queries or be
  refused at parse time by a cross-field rule (one
  :class:`~repro.serving.domain.FieldError` whose reason is not the leaf's
  own domain);
* an **out-of-domain** value (past a bound, ``NaN``, ``Infinity``, a huge
  integer, a wrong JSON type, an unknown name) must raise one
  ``ValueError`` at parse time that names the leaf's dotted path, both as
  a ``--override`` value and in a mutated JSON document; ``json.loads``
  reads ``NaN`` and ``Infinity``, so both routes see them.

Nothing may raise ``KeyError``, ``TypeError`` or ``OverflowError``.  Huge
counts (``2**70``) are only ever parsed: the runs cap the stream length.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import pytest
from hypothesis import event, given, settings, strategies as st

from repro.accelerator.platforms import ANALYTIC_DEFAULT
from repro.cli import _parse_override
from repro.serving.api import run_scenario
from repro.serving.domain import FieldError
from repro.serving.spec import ScenarioSpec, scenario_schema

REPO_ROOT = Path(__file__).resolve().parents[2]
SCHEMA = scenario_schema()
DOMAINS, ENUMS = SCHEMA["domains"], SCHEMA["enums"]


#: Rows of the committed replay log: a replayed run needs no more queries.
LOG_ROWS = 60


def _bases() -> dict[str, dict]:
    committed = {
        path.stem: ScenarioSpec.from_json(path.read_text())
        for path in sorted((REPO_ROOT / "examples" / "scenarios").glob("*.json"))
    }
    # The committed log path is relative to the repository root.
    committed["replayed_pool"] = committed["replayed_pool"].override(
        "arrivals.path", str(REPO_ROOT / committed["replayed_pool"].arrivals.path)
    )
    poisson, hetero = committed["poisson_pool"], committed["hetero_pool"]
    variants = {
        "observed_pool": poisson.override(
            "observability", {"trace": True, "metrics_interval_ms": 5.0}
        ),
        "inline_pool": poisson.override(
            "arrivals", {"kind": "trace", "events": [0.5 * i for i in range(LOG_ROWS)]}
        ),
        "platform_pool": poisson.override(
            "replica_groups.0.platform", dataclasses.asdict(ANALYTIC_DEFAULT)
        ),
        "scheduled_pool": committed["autoscale_pool"].override_many(
            [
                ("autoscaler.policy", "scheduled"),
                ("autoscaler.schedule", [[0.0, 1], [50.0, 3]]),
                ("autoscaler.period_ms", 120.0),
            ]
        ),
        "tiered_pool": hetero.override(
            "autoscaler",
            {
                "policy": "tier_aware",
                "groups": [g.name for g in hetero.replica_groups],
                "cost_budget": 6.0,
                "control_interval_ms": 8.0,
                "max_replicas": 4,
            },
        ),
    }
    return {name: spec.to_dict() for name, spec in {**committed, **variants}.items()}


BASES = _bases()


def _leaves(node, parts=()):
    """The path parts of every scalar in a serialized spec."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            yield from _leaves(value, (*parts, key))
    else:
        yield parts


def _key(parts) -> str:
    """The schema key of a leaf: list indices become ``[]``, and a row's
    entry position (``arrivals.segments.2.0``) is dropped."""
    key = ""
    for part in parts:
        if not isinstance(part, int):
            key = f"{key}.{part}" if key else part
        elif not key.endswith("[]"):
            key += "[]"
    return key


def _declaration(parts):
    """The published domain (or choices) of the leaf at ``parts``."""
    key = _key(parts)
    if key in ENUMS:
        return ENUMS[key]
    domain = DOMAINS.get(key)
    return domain[parts[-1]] if isinstance(domain, list) else domain


LEAVES = [
    (name, parts, _declaration(parts))
    for name, data in BASES.items()
    for parts in _leaves(data)
    if _declaration(parts) is not None
]


def test_every_published_declaration_is_fuzzed():
    reached = {_key(parts) for _, parts, _ in LEAVES}
    assert reached == set(DOMAINS) | set(ENUMS)


def _low(domain):
    return domain["ge"] if "ge" in domain else domain["gt"]


def in_domain(domain) -> st.SearchStrategy:
    if isinstance(domain, list):  # choices
        return st.sampled_from(domain)
    low = _low(domain)
    high = domain.get("le", domain.get("lt"))
    if domain["type"] == "int":
        low = low if "ge" in domain else low + 1
        if high is None:
            return st.integers(low, 2**70)
        return st.integers(low, high if "le" in domain else high - 1)
    return st.floats(
        low,
        1e300 if high is None else high,
        exclude_min="gt" in domain,
        exclude_max="lt" in domain,
    )


def out_of_domain(domain) -> st.SearchStrategy:
    """JSON text of values the declaration refuses."""
    if isinstance(domain, list):
        return st.sampled_from(['"no_such_name"', "7", "[]", "{}"])
    tokens = ["NaN", "Infinity", "-Infinity", "1e999", "true", '"3"', "[1]", "{}"]
    low = _low(domain)
    high = domain.get("le", domain.get("lt"))
    if domain["type"] == "int":
        tokens += ["1.5", str(-(2**70)), str(low - 1 if "ge" in domain else low)]
        if high is not None:
            tokens += [str(2**70), str(high + 1 if "le" in domain else high)]
    else:
        tokens.append(json.dumps(math.nextafter(low, -math.inf) if "ge" in domain else low))
        if high is not None:
            tokens.append(json.dumps(math.nextafter(high, math.inf) if "le" in domain else high))
    return st.sampled_from(tokens)


def dotted(parts) -> str:
    return ".".join(map(str, parts))


def mutated_document(name, parts, token: str) -> dict:
    """The base scenario's JSON text with the leaf replaced by ``token``."""
    data = json.loads(json.dumps(BASES[name]))
    node = data
    for part in parts[:-1]:
        node = node[part]
    node[parts[-1]] = "__LEAF__"
    return json.loads(json.dumps(data).replace('"__LEAF__"', token))


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_out_of_domain_values_are_refused_at_parse_by_path(data):
    name, parts, domain = data.draw(st.sampled_from(LEAVES))
    token = data.draw(out_of_domain(domain))
    path = dotted(parts)
    # As a ``repro serve --override`` value and in a mutated scenario file;
    # a KeyError, TypeError or OverflowError escapes ``pytest.raises`` and
    # fails the test.
    override = _parse_override(f"{path}={token}")
    with pytest.raises(ValueError) as by_override:
        ScenarioSpec.from_dict(BASES[name]).override_many([override])
    with pytest.raises(ValueError) as by_file:
        ScenarioSpec.from_dict(mutated_document(name, parts, token))
    for info in (by_override, by_file):
        assert f"{path!r}" in str(info.value), (token, str(info.value))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_in_domain_values_run_or_break_a_named_cross_field_rule(data):
    name, parts, domain = data.draw(st.sampled_from(LEAVES))
    value = data.draw(in_domain(domain))
    path = dotted(parts)
    replay = BASES[name]["arrivals"]["kind"] == "trace"
    queries = data.draw(st.integers(1, LOG_ROWS if replay else 80))
    overrides = [(path, value)]
    if path != "num_queries":
        overrides.append(("num_queries", queries))
    try:
        spec = ScenarioSpec.from_dict(BASES[name]).override_many(overrides)
    except FieldError as exc:
        # Refused by a rule between fields, never by the leaf's own domain.
        assert not exc.reason.startswith("expected "), str(exc)
        event("refused by a cross-field rule")
        return
    if spec.num_queries > queries:  # parse a huge count, run a small one
        spec = spec.override("num_queries", queries)
    result = run_scenario(spec)
    assert result.num_served + result.num_dropped == spec.num_queries
