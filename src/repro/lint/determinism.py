"""RPR001 — determinism: no wall clocks, global RNGs, or hash-order loops.

The engine's record-identity ladder (see ``docs/architecture.md``) only
holds if every source of ordering and randomness is explicit: simulation
time comes from the event loop, randomness from seeded
``numpy.random.Generator`` instances, and iteration order from
insertion-ordered structures.  Inside ``core/``, ``accelerator/``,
``serving/stack.py`` (the SUSHI stack the engine dispatches against),
``serving/engine/``, ``serving/autoscale/`` and ``serving/obs/`` (the
flight recorder sits on the hot path and its exports must be byte-stable;
the fault-injection layer ``serving/engine/faults.py`` samples
crash/straggle/dispatch-failure processes and must draw them from its
decorrelated seeded RNG stream) this checker flags:

* calls into the *global* ``random`` module (``random.random()``,
  ``from random import shuffle`` + ``shuffle(...)``) — use a seeded
  ``random.Random`` / ``numpy.random.Generator`` instance;
* legacy ``numpy.random.*`` module-level calls and **unseeded**
  ``default_rng()``;
* wall-clock reads: ``time.time()`` and friends, ``datetime.now()``;
* ``for``-loops and comprehensions that iterate a ``set`` /
  ``frozenset`` expression — hash order would feed dispatch or event
  insertion.  Wrap the set in ``sorted(...)`` (the idiom the engine
  already uses) or keep an insertion-ordered list/dict alongside it.

Note on dicts: CPython dicts preserve insertion order, so plain dict
iteration is deterministic and is *not* flagged; only set-typed
iteration is.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.base import (
    Checker,
    ModuleSource,
    ProjectIndex,
    Violation,
    _dotted,
    register,
)

_WALL_CLOCK_ATTRS = frozenset(
    {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
    }
)
_DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})
#: numpy.random attributes that are fine: seeded constructors, not draws.
_NP_RANDOM_OK = frozenset({"default_rng", "Generator", "SeedSequence", "RandomState"})
#: random-module attributes that build seeded instances rather than draw
#: from the hidden global state.
_RANDOM_OK = frozenset({"Random", "SystemRandom"})


def _set_expression(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


@register
class DeterminismChecker(Checker):
    code = "RPR001"
    name = "determinism"
    description = (
        "no global RNG draws, wall-clock reads, or set-ordered iteration "
        "inside core, accelerator, serving/stack.py, serving/engine, "
        "serving/autoscale and serving/obs"
    )
    scope = (
        "repro/core/",
        "repro/accelerator/",
        "serving/stack.py",
        "serving/engine",
        "serving/autoscale",
        "serving/obs",
    )

    def check(
        self, module: ModuleSource, project: ProjectIndex
    ) -> Iterator[Violation]:
        aliases = module.import_aliases
        random_modules = {n for n, o in aliases.items() if o == "random"}
        random_names = {
            n for n, o in aliases.items() if o.startswith("random.")
        }
        time_modules = {n for n, o in aliases.items() if o == "time"}
        time_names = {
            n
            for n, o in aliases.items()
            if o.startswith("time.") and o.split(".", 1)[1] in _WALL_CLOCK_ATTRS
        }
        numpy_modules = {n for n, o in aliases.items() if o == "numpy"}
        numpy_random_modules = {
            n for n, o in aliases.items() if o == "numpy.random"
        }
        default_rng_names = {
            n for n, o in aliases.items() if o == "numpy.random.default_rng"
        }
        datetime_roots = {
            n
            for n, o in aliases.items()
            if o in ("datetime", "datetime.datetime", "datetime.date")
        }

        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(
                    module,
                    node,
                    random_modules=random_modules,
                    random_names=random_names,
                    time_modules=time_modules,
                    time_names=time_names,
                    numpy_modules=numpy_modules,
                    numpy_random_modules=numpy_random_modules,
                    default_rng_names=default_rng_names,
                    datetime_roots=datetime_roots,
                )
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                yield from self._check_iter(module, node.iter)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                for generator in node.generators:
                    yield from self._check_iter(module, generator.iter)

    def _check_call(
        self,
        module: ModuleSource,
        node: ast.Call,
        *,
        random_modules: set[str],
        random_names: set[str],
        time_modules: set[str],
        time_names: set[str],
        numpy_modules: set[str],
        numpy_random_modules: set[str],
        default_rng_names: set[str],
        datetime_roots: set[str],
    ) -> Iterator[Violation]:
        func = node.func
        dotted = _dotted(func)
        if not dotted:
            return
        head, _, rest = dotted.partition(".")

        if head in random_modules and rest and rest not in _RANDOM_OK:
            yield self.violation(
                module,
                node,
                f"call to the global random module ({dotted}); draw from a "
                "seeded random.Random or numpy.random.Generator instance",
            )
            return
        if not rest and head in random_names:
            yield self.violation(
                module,
                node,
                f"call to {head}() imported from the global random module; "
                "draw from a seeded generator instance instead",
            )
            return

        np_attr = None
        if head in numpy_modules and rest.startswith("random."):
            np_attr = rest.split(".", 1)[1]
        elif head in numpy_random_modules and rest and "." not in rest:
            np_attr = rest
        if np_attr is not None:
            if np_attr == "default_rng" and not node.args and not node.keywords:
                yield self.violation(
                    module,
                    node,
                    "default_rng() without a seed is entropy-seeded; pass an "
                    "explicit seed so runs are reproducible",
                )
            elif np_attr not in _NP_RANDOM_OK:
                yield self.violation(
                    module,
                    node,
                    f"legacy numpy.random module-level call ({dotted}); use a "
                    "seeded numpy.random.Generator (default_rng(seed))",
                )
            return
        if not rest and head in default_rng_names:
            if not node.args and not node.keywords:
                yield self.violation(
                    module,
                    node,
                    "default_rng() without a seed is entropy-seeded; pass an "
                    "explicit seed so runs are reproducible",
                )
            return

        if head in time_modules and rest in _WALL_CLOCK_ATTRS:
            yield self.violation(
                module,
                node,
                f"wall-clock read ({dotted}()); simulation time must come "
                "from the event loop clock, not the host",
            )
            return
        if not rest and head in time_names:
            yield self.violation(
                module,
                node,
                f"wall-clock read ({head}()); simulation time must come "
                "from the event loop clock, not the host",
            )
            return

        if rest and dotted.rsplit(".", 1)[-1] in _DATETIME_ATTRS:
            if head in datetime_roots:
                yield self.violation(
                    module,
                    node,
                    f"wall-clock read ({dotted}()); timestamps must derive "
                    "from simulated time, not the host clock",
                )

    def _check_iter(
        self, module: ModuleSource, iter_expr: ast.expr
    ) -> Iterator[Violation]:
        if _set_expression(iter_expr):
            yield self.violation(
                module,
                iter_expr,
                "iteration over a set draws its order from hash seeds; "
                "sort it (sorted(...)) or iterate an insertion-ordered "
                "structure before it can feed dispatch or event insertion",
            )
