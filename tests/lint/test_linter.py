"""Tests for the repro invariant linter (codes RPR000–RPR002, RPR005).

Fixture modules under ``tests/lint/fixtures/`` carry ``# expect: CODE``
markers on every line a checker must flag; the tests assert the linter
reports *exactly* those (code, line) pairs — nothing more, nothing less.
Clean fixtures (near-miss patterns, out-of-scope files, justified
suppressions) must report nothing.  Finally, the real ``src/`` tree must
be lint-clean, and stay fast.
"""

from __future__ import annotations

import json
import re
import time
from pathlib import Path

import pytest

from repro.lint import (
    CHECKERS,
    EVENT_ORDER,
    checker_codes,
    format_json,
    format_text,
    run_lint,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).resolve().parent / "fixtures"
BAD_SLOTS = FIXTURES / "serving/engine/bad_slots.py"

EXPECT_RE = re.compile(r"#\s*expect:\s*([A-Z0-9,\s]+?)\s*$")

MARKER_FIXTURES = [
    "serving/engine/bad_determinism.py",
    "serving/engine/bad_slots.py",
    "serving/engine/bad_heappush.py",
    "events/bad_eventkind.py",
]

CLEAN_FIXTURES = [
    "serving/engine/clean_ok.py",
    "out_of_scope/wall_clock.py",
    "suppressed/justified.py",
]


def expected_violations(path: Path) -> list[tuple[str, int]]:
    expected: list[tuple[str, int]] = []
    for lineno, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        match = EXPECT_RE.search(line)
        if match:
            for code in match.group(1).split(","):
                expected.append((code.strip(), lineno))
    return sorted(expected)


def reported(path: Path, **kwargs) -> list[tuple[str, int]]:
    result = run_lint([path], root=REPO_ROOT, **kwargs)
    return sorted((v.code, v.line) for v in result.violations)


class TestFixtures:
    @pytest.mark.parametrize("relpath", MARKER_FIXTURES)
    def test_exact_codes_and_lines(self, relpath: str) -> None:
        path = FIXTURES / relpath
        expected = expected_violations(path)
        assert expected, f"fixture {relpath} carries no expect markers"
        assert reported(path) == expected

    @pytest.mark.parametrize("relpath", CLEAN_FIXTURES)
    def test_clean_fixtures_report_nothing(self, relpath: str) -> None:
        assert reported(FIXTURES / relpath) == []

    def test_whole_fixture_tree_matches_markers(self) -> None:
        # Linting the whole tree at once (cross-file index, scoping, and
        # suppressions all interacting) still yields exactly the union of
        # the per-file expectations plus bare.py's RPR000 pair.
        expected = []
        for relpath in MARKER_FIXTURES:
            path = FIXTURES / relpath
            rel = path.relative_to(REPO_ROOT).as_posix()
            expected.extend(
                (code, line, rel) for code, line in expected_violations(path)
            )
        bare = FIXTURES / "suppressed/bare.py"
        rel = bare.relative_to(REPO_ROOT).as_posix()
        for lineno, text in enumerate(
            bare.read_text(encoding="utf-8").splitlines(), start=1
        ):
            if "disable=" in text:
                expected.append(("RPR000", lineno, rel))
        result = run_lint([FIXTURES], root=REPO_ROOT)
        got = sorted((v.code, v.line, v.path) for v in result.violations)
        assert got == sorted(expected)


class TestSuppressions:
    def test_justified_suppression_waives_the_violation(self) -> None:
        assert reported(FIXTURES / "suppressed/justified.py") == []

    def test_bare_and_unknown_suppressions_are_rpr000(self) -> None:
        path = FIXTURES / "suppressed/bare.py"
        lines = path.read_text(encoding="utf-8").splitlines()
        bare_line = next(
            i for i, t in enumerate(lines, 1) if "disable=RPR002" in t
        )
        unknown_line = next(
            i for i, t in enumerate(lines, 1) if "disable=RPR999" in t
        )
        # The bare suppression still waives RPR002 (so the only findings
        # are the hygiene ones), but RPR000 itself is unsuppressible.
        assert reported(path) == sorted(
            [("RPR000", bare_line), ("RPR000", unknown_line)]
        )

    def test_syntax_mentions_in_docstrings_are_not_suppressions(self) -> None:
        # base.py's own docstrings spell out the disable syntax; only real
        # comments count, so the lint package itself stays clean.
        assert reported(REPO_ROOT / "src/repro/lint/base.py") == []


class TestSelect:
    def test_select_limits_to_requested_codes(self) -> None:
        path = FIXTURES / "serving/engine/bad_determinism.py"
        assert reported(path, select=["RPR005"]) == []
        all_codes = {code for code, _ in reported(path)}
        assert all_codes == {"RPR001"}

    def test_unknown_select_code_raises(self) -> None:
        with pytest.raises(ValueError, match="RPR777"):
            run_lint([FIXTURES], select=["RPR777"], root=REPO_ROOT)


class TestOutputFormats:
    def test_text_format_lists_findings_and_summary(self) -> None:
        result = run_lint([BAD_SLOTS], root=REPO_ROOT)
        text = format_text(result)
        assert "RPR002" in text
        assert "bad_slots.py" in text
        assert "violation(s)" in text

    def test_json_format_round_trips(self) -> None:
        result = run_lint([BAD_SLOTS], root=REPO_ROOT)
        payload = json.loads(format_json(result))
        assert payload["ok"] is False
        assert payload["files_checked"] == 1
        assert payload["counts_by_code"] == {"RPR002": 3}
        codes = {v["code"] for v in payload["violations"]}
        assert codes == {"RPR002"}
        first = payload["violations"][0]
        assert set(first) == {"code", "path", "line", "col", "message"}

    def test_clean_run_reports_ok(self) -> None:
        result = run_lint([FIXTURES / "out_of_scope"], root=REPO_ROOT)
        assert result.ok
        assert "lint-clean" in format_text(result)


class TestRegistry:
    def test_registered_codes(self) -> None:
        assert checker_codes() == (
            "RPR000",
            "RPR001",
            "RPR002",
            "RPR005",
        )

    def test_every_checker_is_documented(self) -> None:
        for code, checker in CHECKERS.items():
            assert checker.code == code
            assert checker.name
            assert checker.description

    def test_event_order_matches_the_real_eventkind(self) -> None:
        # The linter's contract constant and the engine enum must agree —
        # extending one without the other is exactly the drift RPR005
        # exists to catch.
        from repro.serving.engine.events import EventKind

        members = tuple(
            member.name
            for member in sorted(EventKind, key=lambda m: m.value)
        )
        assert members == EVENT_ORDER
        assert [EventKind[name].value for name in EVENT_ORDER] == [0, 1, 2, 3, 4, 5]


class TestSourceTree:
    def test_src_is_lint_clean(self) -> None:
        result = run_lint([REPO_ROOT / "src"], root=REPO_ROOT)
        rendered = "\n".join(v.render() for v in result.violations)
        assert result.ok, f"src/ must stay lint-clean:\n{rendered}"
        assert result.files_checked > 50

    def test_full_src_lint_is_fast(self) -> None:
        start = time.monotonic()
        run_lint([REPO_ROOT / "src"], root=REPO_ROOT)
        elapsed = time.monotonic() - start
        assert elapsed < 2.0, f"lint of src/ took {elapsed:.2f}s (budget 2s)"

    def test_bad_paths_raise_oserror(self) -> None:
        with pytest.raises(OSError):
            run_lint([REPO_ROOT / "does-not-exist"], root=REPO_ROOT)
