#!/usr/bin/env python
"""Docs health check: links, scenario round-trips, lint-code sync.

Three checks, run by the CI ``docs`` job and the tier-1 docs tests:

1. **Link check** — every relative markdown link in ``README.md``,
   ``ROADMAP.md`` and ``docs/*.md`` must point at a file that exists
   (anchors are stripped; external ``http(s)`` links are skipped — the
   target environment is offline).
2. **Spec round-trips** — every ``examples/scenarios/*.json`` (and
   ``examples/sweeps/*.json``) must parse into a valid
   :class:`ScenarioSpec` (:class:`SweepSpec`), survive
   ``from_dict(to_dict(spec)) == spec`` exactly, and re-serialize to the
   file's exact text.
3. **Invariant-code sync** — the ``RPR###`` codes referenced in
   ``docs/invariants.md`` must round-trip exactly against the checkers
   registered in :mod:`repro.lint`: every registered code documented,
   no phantom codes documented.

Usage::

    PYTHONPATH=src python tools/check_docs.py

Exits non-zero with a per-finding report when anything is broken.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Markdown files whose relative links must resolve.
DOC_FILES = ("README.md", "ROADMAP.md")
DOC_GLOBS = ("docs/*.md",)

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def iter_doc_files() -> list[Path]:
    files = [REPO_ROOT / name for name in DOC_FILES]
    for pattern in DOC_GLOBS:
        files.extend(sorted(REPO_ROOT.glob(pattern)))
    return [f for f in files if f.exists()]


def check_links() -> list[str]:
    errors = []
    for doc in iter_doc_files():
        text = doc.read_text(encoding="utf-8")
        for match in _LINK.finditer(text):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path = target.split("#", 1)[0]
            if not path:  # pure in-page anchor
                continue
            resolved = (doc.parent / path).resolve()
            if not resolved.exists():
                errors.append(
                    f"{doc.relative_to(REPO_ROOT)}: broken link -> {target}"
                )
    return errors


def check_scenarios() -> list[str]:
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.serving.spec import ScenarioSpec
    from repro.sweep import SweepSpec

    errors = []
    for folder, spec_cls in (("scenarios", ScenarioSpec), ("sweeps", SweepSpec)):
        files = sorted((REPO_ROOT / "examples" / folder).glob("*.json"))
        if not files:
            errors.append(f"no spec files found under examples/{folder}/")
        for path in files:
            rel = path.relative_to(REPO_ROOT)
            text = path.read_text(encoding="utf-8")
            try:
                spec = spec_cls.from_json(text)
            except Exception as exc:  # noqa: BLE001 - report, don't crash
                errors.append(f"{rel}: does not parse ({exc})")
                continue
            if spec_cls.from_dict(spec.to_dict()) != spec:
                errors.append(f"{rel}: to_dict/from_dict round-trip is not exact")
            elif text != spec.to_json() + "\n":
                errors.append(f"{rel}: re-serializing does not reproduce the file")
    return errors


def check_invariant_codes() -> list[str]:
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.lint import checker_codes

    doc = REPO_ROOT / "docs" / "invariants.md"
    if not doc.exists():
        return ["docs/invariants.md is missing"]
    documented = set(re.findall(r"RPR\d{3}", doc.read_text(encoding="utf-8")))
    registered = set(checker_codes())
    errors = []
    for code in sorted(registered - documented):
        errors.append(
            f"docs/invariants.md: registered lint code {code} is undocumented"
        )
    for code in sorted(documented - registered):
        errors.append(
            f"docs/invariants.md: references {code}, which is not a "
            "registered checker"
        )
    return errors


def main() -> int:
    errors = check_links() + check_scenarios() + check_invariant_codes()
    docs = len(iter_doc_files())
    if errors:
        for error in errors:
            print(f"FAIL {error}")
        print(f"{len(errors)} problem(s) across {docs} docs")
        return 1
    print(
        f"docs OK: {docs} markdown files link-checked, example specs "
        "re-serialize exactly, lint codes in sync"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
