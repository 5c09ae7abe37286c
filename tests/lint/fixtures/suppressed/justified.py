"""Fixture: a real RPR002 violation waived by a justified suppression —
must lint clean.

Never imported at runtime — this file exists only to be linted.
"""

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class WireSpec:
    alpha: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "legacy", 0)  # repro-lint: disable=RPR002 -- legacy attribute kept for v0 readers of this fixture
