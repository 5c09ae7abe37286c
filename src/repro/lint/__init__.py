"""AST-based invariant linter for the repro codebase.

The simulator's credibility rests on contracts that used to live only in
docs and expensive runtime property tests: the deterministic
``(time, kind, seq)`` event tie-break, the record-identity ladder, and
the ``__slots__``/``__dict__`` coupling the engine hot path relies on.
This package turns those conventions into a static-analysis pass that
fails CI in well under a second::

    python -m repro lint                 # lint src/ (the default)
    python -m repro lint --format json src
    python -m repro lint --select RPR001,RPR005 src tests

Checkers (see ``docs/invariants.md`` for the invariant each guards):

========  ==================================================================
RPR000    suppression hygiene (known codes + a ``-- reason``); unsuppressible
RPR001    determinism: no global RNGs, wall clocks, or set-ordered iteration
RPR002    slots coverage: hot-path dataclasses slotted; no __dict__ stamps
          or dynamic writes on slotted classes
RPR005    event ordering: EventKind covered by the documented contract;
          heappush tuples carry the tie-break shape
========  ==================================================================

A finding is waived line-by-line with
``# repro-lint: disable=RPR002 -- one-line justification`` — the reason
is mandatory (RPR000 flags bare suppressions).
"""

from __future__ import annotations

from repro.lint.base import (
    CHECKERS,
    Checker,
    Violation,
    checker_codes,
)

# Importing the checker modules registers them (via @register).
from repro.lint import determinism as _determinism  # noqa: F401
from repro.lint import events_contract as _events_contract  # noqa: F401
from repro.lint import slots as _slots  # noqa: F401
from repro.lint.events_contract import EVENT_ORDER
from repro.lint.runner import (
    LintResult,
    format_json,
    format_text,
    run_lint,
)

__all__ = [
    "CHECKERS",
    "Checker",
    "EVENT_ORDER",
    "LintResult",
    "Violation",
    "checker_codes",
    "format_json",
    "format_text",
    "run_lint",
]
