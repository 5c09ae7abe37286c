"""Fixture: in-scope module full of *near misses*; must lint clean.

Exercises the legitimate versions of every pattern the checkers flag:
seeded generators, sorted set iteration, slotted hot-path dataclasses,
the canonical event heap tuple, a complete ``__dict__`` stamp on an
unslotted dataclass, and a bare ``__new__`` (no stamp) on a slotted one.
"""

import heapq
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, slots=True)
class TinyEvent:
    time_ms: float
    kind: int


@dataclass(frozen=True)
class TinyOutcome:  # repro-lint: disable=RPR002 -- stamped via __dict__ below
    index: int
    value: float


class TinyQueue:
    __slots__ = ("_heap", "_counter")

    def __init__(self):
        self._heap = []
        self._counter = 0

    def push(self, event):
        self._counter += 1
        heapq.heappush(
            self._heap,
            (event.time_ms, int(event.kind), self._counter, event),
        )


def build(records):
    rng = np.random.default_rng(1234)
    order = []
    for name in sorted({record.name for record in records}):
        order.append(name)
    checked = name in {"a", "b"} if order else False  # membership is fine
    outcome = TinyOutcome.__new__(TinyOutcome)
    d = outcome.__dict__
    d["index"] = 0
    d["value"] = float(rng.integers(10))
    bare = TinyEvent.__new__(TinyEvent)  # no __dict__ stamp: pickle-style
    return rng, order, checked, outcome, bare
