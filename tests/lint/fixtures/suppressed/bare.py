"""Fixture: RPR000 suppression hygiene — a bare suppression (no reason)
and a suppression naming an unregistered code.

Never imported at runtime — this file exists only to be linted.
"""

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class SloppySpec:
    alpha: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "beta", 0)  # repro-lint: disable=RPR002

    @classmethod
    def build(cls, data):  # repro-lint: disable=RPR999 -- not a registered code
        return cls(**data)
