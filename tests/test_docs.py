"""Docs stay in sync with the code: schema reference, links, scenarios.

Four guarantees:

* ``docs/scenario-schema.md`` documents every field, every enum value
  and every numeric domain that :func:`repro.serving.spec.scenario_schema`
  (the source of truth behind ``python -m repro schema``) exposes —
  adding a spec field, or changing a bound, without documenting it fails
  here.
* ``docs/experiments.md`` documents every registered experiment id.
* ``docs/invariants.md`` round-trips exactly against the invariant
  linter's registered checker codes (``repro.lint``) — a new checker
  must be documented, and phantom codes cannot linger in the docs.
* Relative links in the markdown tree resolve and every checked-in
  scenario and sweep JSON re-serializes to its exact text (shared with CI
  via ``tools/check_docs.py``); the schema, a sweep artifact and a trace
  fit are pinned by digest.
"""

from __future__ import annotations

import hashlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.registry import EXPERIMENTS
from repro.serving.domain import Number
from repro.serving.spec import (
    ArrivalSpec,
    ReplicaGroupSpec,
    ScenarioSpec,
    scenario_schema,
)
from repro.serving.trace_io import TraceFit, fit_piecewise_poisson, load_trace_log
from repro.sweep import METRIC_FIELDS, CellResult, SweepAxis, SweepResult, SweepSpec

REPO_ROOT = Path(__file__).resolve().parents[1]
DOCS = REPO_ROOT / "docs"


@pytest.fixture(scope="module")
def schema_doc() -> str:
    return (DOCS / "scenario-schema.md").read_text(encoding="utf-8")


def code_spans(text: str) -> set[str]:
    return set(re.findall(r"`([^`\n]+)`", text))


class TestSchemaDocSync:
    def test_every_spec_field_documented(self, schema_doc):
        spans = code_spans(schema_doc)
        schema = scenario_schema()
        missing = [
            f"{section}.{field}"
            for section, defaults in schema["defaults"].items()
            for field in defaults
            if field not in spans
        ]
        assert not missing, (
            "fields missing from docs/scenario-schema.md (document them "
            f"or python -m repro schema will disagree): {missing}"
        )

    def test_every_enum_value_documented(self, schema_doc):
        spans = code_spans(schema_doc)
        schema = scenario_schema()
        missing = [
            f"{field}={value}"
            for field, values in schema["enums"].items()
            for value in values
            if value not in spans
        ]
        assert not missing, (
            f"enum values missing from docs/scenario-schema.md: {missing}"
        )

    def test_every_domain_documented(self, schema_doc):
        """Each published domain appears, as the text its errors print, in
        the table row of its field."""
        rows: dict[str, list[str]] = {}
        for row in re.findall(r"^\| `\w+` \|.*$", schema_doc, flags=re.M):
            rows.setdefault(row.split("`")[1], []).append(row)
        missing = []
        for key, domain in scenario_schema()["domains"].items():
            field = key.rsplit(".", 1)[-1].removesuffix("[]")
            texts = [
                f"`{Number(**d)}`" for d in (domain if isinstance(domain, list) else [domain])
            ]
            if not any(all(t in row for t in texts) for row in rows.get(field, [])):
                missing.append(f"{key}: {' × '.join(texts)}")
        assert not missing, (
            f"domains missing from docs/scenario-schema.md: {missing}"
        )

    def test_no_phantom_autoscaler_fields_documented(self, schema_doc):
        """The autoscaler table documents only fields that really exist."""
        schema = scenario_schema()
        table = schema_doc.split("## Autoscaler")[1].split("###")[0]
        documented = {
            m.group(1)
            for m in re.finditer(r"^\| `(\w+)` \|", table, flags=re.M)
        }
        assert documented == set(schema["defaults"]["autoscaler"])


class TestExperimentsDocSync:
    def test_every_experiment_documented(self):
        text = (DOCS / "experiments.md").read_text(encoding="utf-8")
        spans = code_spans(text)
        missing = sorted(set(EXPERIMENTS) - spans)
        assert not missing, f"experiments missing from docs/experiments.md: {missing}"


class TestInvariantsDocSync:
    def test_codes_round_trip_against_registry(self):
        from repro.lint import checker_codes

        text = (DOCS / "invariants.md").read_text(encoding="utf-8")
        documented = set(re.findall(r"RPR\d{3}", text))
        registered = set(checker_codes())
        assert documented == registered, (
            f"docs/invariants.md vs repro.lint registry drift — "
            f"undocumented: {sorted(registered - documented)}, "
            f"phantom: {sorted(documented - registered)}"
        )

    def test_every_code_has_a_runtime_backstop_column(self):
        from repro.lint import checker_codes

        text = (DOCS / "invariants.md").read_text(encoding="utf-8")
        for code in checker_codes():
            row = next(
                (
                    line
                    for line in text.splitlines()
                    if line.startswith(f"| `{code}`")
                ),
                None,
            )
            assert row is not None, f"no table row for {code} in invariants.md"
            backstop = row.rstrip("|").rsplit("|", 1)[-1]
            assert "tests/" in backstop, (
                f"{code}'s table row names no runtime backstop test"
            )


class TestCheckDocsTool:
    def test_check_docs_passes(self):
        result = subprocess.run(
            [sys.executable, str(REPO_ROOT / "tools" / "check_docs.py")],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "docs OK" in result.stdout

    def test_checked_in_scenarios_roundtrip(self):
        # Byte-exact, not just equal: re-serializing a committed file must
        # reproduce its text, so the codec's key order and number spelling
        # are pinned by every example.
        for folder, spec_cls in (("scenarios", ScenarioSpec), ("sweeps", SweepSpec)):
            files = sorted((REPO_ROOT / "examples" / folder).glob("*.json"))
            assert files, folder
            for path in files:
                text = path.read_text(encoding="utf-8")
                spec = spec_cls.from_json(text)
                assert spec_cls.from_dict(spec.to_dict()) == spec
                assert text == spec.to_json() + "\n", path.name


def pinned_sweep_result() -> SweepResult:
    base = ScenarioSpec(
        name="pinned",
        supernet_name="ofa_mobilenetv3",
        replica_groups=(ReplicaGroupSpec(count=2, name="pool"),),
        arrivals=ArrivalSpec(kind="trace", events=(0.5, 1.0, 2.5)),
        seed=3,
    )
    spec = SweepSpec(
        base=base,
        axes=(
            SweepAxis(path="workload.accuracy_range", values=((0.7, 0.8),)),
            SweepAxis(path="replica_groups.0.count", values=(1, 0)),
        ),
        name="pinned-grid",
    )
    cells = spec.cells()
    return SweepResult(
        spec=spec,
        cells=(
            CellResult(
                index=0,
                overrides=cells[0],
                metrics={name: i / 7 for i, name in enumerate(METRIC_FIELDS)},
            ),
            CellResult(
                index=1,
                overrides=cells[1],
                error="ValueError: replica count must be positive, got 0",
            ),
        ),
    )


def replay_sample_fit() -> TraceFit:
    log = load_trace_log(REPO_ROOT / "examples" / "traces" / "replay_sample.csv")
    return fit_piecewise_poisson(log.timestamps_ms)


#: sha256 of each artifact's two-space-indented JSON; any drift in key
#: order, number spelling or nesting changes the digest.
PINNED_DIGESTS = {
    "schema": (
        scenario_schema,
        "50760041c873ba3d2ab3d91916964e22b6358101ebf1c8162ca74782653e20f1",
    ),
    "sweep_result": (
        lambda: pinned_sweep_result().to_dict(),
        "844bf82cbcd2e11337a789591cced879756536ad5fc93a84a4186ff74cf481fc",
    ),
    "trace_fit": (
        lambda: replay_sample_fit().to_dict(),
        "14d4272eecc3fee8d9ab76d2be3b7fe2bf8ad83a47ea73faa99cf3a4faffa5d8",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
def test_serialized_bytes_are_pinned(name):
    build, digest = PINNED_DIGESTS[name]
    text = json.dumps(build(), indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
