"""Seeding a deliberate violation into a scratch copy of the engine is
caught — one test per RPR code, against *real* engine sources.

Each test copies the relevant files into ``tmp_path`` (preserving the
``serving/engine/`` layout so path-scoped checkers engage), applies a
small textual mutation of the kind a careless patch would make, and
asserts the corresponding code fires.  The unmutated copies are also
linted once to prove the scratch layout itself is clean — so the signal
really is the seeded bug, not an artifact of copying.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable

from repro.lint import run_lint

REPO_ROOT = Path(__file__).resolve().parents[2]
ENGINE = REPO_ROOT / "src" / "repro" / "serving" / "engine"


def lint_codes(root: Path) -> set[str]:
    result = run_lint([root], root=root)
    return {v.code for v in result.violations}


def copy_engine(
    tmp_path: Path, mutations: dict[str, Callable[[str], str]]
) -> Path:
    """Copy named engine files into tmp_path/serving/engine, mutated."""
    target = tmp_path / "serving" / "engine"
    target.mkdir(parents=True, exist_ok=True)
    for name, mutate in mutations.items():
        source = (ENGINE / name).read_text(encoding="utf-8")
        mutated = mutate(source)
        if mutate is not _identity:
            assert mutated != source, f"mutation left {name} unchanged"
        (target / name).write_text(mutated, encoding="utf-8")
    return tmp_path


def _identity(source: str) -> str:
    return source


def test_unmutated_scratch_copies_are_clean(tmp_path: Path) -> None:
    root = copy_engine(
        tmp_path,
        {"core.py": _identity, "events.py": _identity, "results.py": _identity},
    )
    assert lint_codes(root) == set()


def test_rpr001_wall_clock_and_global_rng_in_core(tmp_path: Path) -> None:
    def mutate(source: str) -> str:
        return source + (
            "\n\ndef _jitter_ms():\n"
            "    import random\n"
            "    import time\n"
            "    return random.random() + time.time()\n"
        )

    root = copy_engine(tmp_path, {"core.py": mutate})
    assert "RPR001" in lint_codes(root)


def test_rpr002_unslotted_dataclass_in_events(tmp_path: Path) -> None:
    def mutate(source: str) -> str:
        return source + (
            "\n\n@dataclass(frozen=True)\n"
            "class LoggedEvent:\n"
            "    time_ms: float\n"
        )

    root = copy_engine(tmp_path, {"events.py": mutate})
    assert "RPR002" in lint_codes(root)


def test_rpr005_new_eventkind_member(tmp_path: Path) -> None:
    def mutate(source: str) -> str:
        return source.replace("CONTROL = 5", "CONTROL = 5\n    PREEMPTION = 6", 1)

    root = copy_engine(tmp_path, {"events.py": mutate})
    assert "RPR005" in lint_codes(root)


def test_rpr005_degenerate_heap_tuple(tmp_path: Path) -> None:
    def mutate(source: str) -> str:
        return source.replace(
            "(time_ms, kind, self._counter, payload)",
            "(time_ms, payload)",
            1,
        )

    root = copy_engine(tmp_path, {"events.py": mutate})
    assert "RPR005" in lint_codes(root)
