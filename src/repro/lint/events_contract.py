"""RPR005 — the event-ordering contract.

The engine's determinism rests on one documented tie-break: events are
heap-ordered by ``(time, kind, insertion seq)``, with the kind priority
COMPLETION < ARRIVAL < FAULT < RECOVERY < PROVISIONING < CONTROL
(completions free capacity before the arrival at the same instant sees the
queue; faults land after the data plane but before the control plane's
view; see ``docs/invariants.md``).  Two drift paths can silently break it:

* a **new EventKind member** whose priority nobody decided — flagged
  until :data:`EVENT_ORDER` here *and* ``docs/invariants.md`` are
  extended, so the ordering decision is forced into review;
* a **raw-tuple heappush** into an engine heap that omits the tie-break
  fields: a 2-tuple falls through to comparing payloads on ties (or
  crashes on uncomparable ones), and an event-queue ``push`` that heaps
  anything but the canonical ``(time, kind, seq, payload)`` shape
  reorders same-time events.

Scope: the EventKind rule runs everywhere (scratch copies included);
heappush shape rules run under ``serving/engine``.
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

#: The documented tie-break priority, lowest value wins.  Extending
#: EventKind requires extending this tuple (and docs/invariants.md) in
#: the same change — that is the point.
EVENT_ORDER: tuple[str, ...] = (
    "COMPLETION",
    "ARRIVAL",
    "FAULT",
    "RECOVERY",
    "PROVISIONING",
    "CONTROL",
)


def _heappush_names(module: ModuleSource) -> tuple[set[str], set[str]]:
    """Names that mean ``heapq.heappush``: (module aliases, bare names)."""
    heapq_modules = {
        n for n, o in module.import_aliases.items() if o == "heapq"
    }
    bare = {
        n for n, o in module.import_aliases.items() if o == "heapq.heappush"
    }
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            dotted = _dotted(node.value)
            if dotted and (
                dotted in {f"{m}.heappush" for m in heapq_modules}
                or dotted in bare
            ):
                bare.add(target.id)
    return heapq_modules, bare


def _is_heappush(call: ast.Call, heapq_modules: set[str], bare: set[str]) -> bool:
    dotted = _dotted(call.func)
    if not dotted:
        return False
    head, _, rest = dotted.partition(".")
    if rest == "heappush" and head in heapq_modules:
        return True
    return not rest and head in bare


@register
class EventOrderingChecker(Checker):
    code = "RPR005"
    name = "event-ordering-contract"
    description = (
        "EventKind members must be covered by the documented (time, kind, "
        "seq) ordering; raw-tuple heappushes must carry the tie-break shape"
    )
    scope = ()  # EventKind rule is global; heappush rules gate on the path

    def check(
        self, module: ModuleSource, project: ProjectIndex
    ) -> Iterator[Violation]:
        for info in module.classes.values():
            if info.name == "EventKind":
                yield from self._check_event_kind(module, info.node)

        if "serving/engine" not in module.relpath:
            return
        heapq_modules, bare = _heappush_names(module)
        if not heapq_modules and not bare:
            return

        # Calls inside an event-queue ``push`` method — ``push(self, event)``
        # or ``push(self, time_ms, kind, payload)`` — are held to the full
        # canonical shape; everything else to the minimum (time, tie-break,
        # payload) arity.
        in_event_push: set[ast.Call] = set()
        for class_node in ast.walk(module.tree):
            if not isinstance(class_node, ast.ClassDef):
                continue
            for stmt in class_node.body:
                if (
                    isinstance(stmt, ast.FunctionDef)
                    and stmt.name == "push"
                    and len(stmt.args.args) >= 2
                    and (
                        stmt.args.args[1].arg == "event"
                        or any(arg.arg == "kind" for arg in stmt.args.args)
                    )
                ):
                    for call in ast.walk(stmt):
                        if isinstance(call, ast.Call) and _is_heappush(
                            call, heapq_modules, bare
                        ):
                            in_event_push.add(call)
                            yield from self._check_canonical(module, call)

        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and node not in in_event_push
                and _is_heappush(node, heapq_modules, bare)
            ):
                yield from self._check_minimum(module, node)

    def _check_event_kind(
        self, module: ModuleSource, node: ast.ClassDef
    ) -> Iterator[Violation]:
        members: dict[str, tuple[int, object]] = {}
        for stmt in node.body:
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
            ):
                value = (
                    stmt.value.value
                    if isinstance(stmt.value, ast.Constant)
                    else None
                )
                members[stmt.targets[0].id] = (stmt.lineno, value)
        for name, (lineno, value) in members.items():
            if name not in EVENT_ORDER:
                yield self.violation(
                    module,
                    lineno,
                    f"EventKind member {name} is outside the documented "
                    "ordering contract; extend EVENT_ORDER in "
                    "repro/lint/events_contract.py and docs/invariants.md "
                    "before adding it",
                )
            elif value != EVENT_ORDER.index(name):
                yield self.violation(
                    module,
                    lineno,
                    f"EventKind.{name} must have value "
                    f"{EVENT_ORDER.index(name)} (documented priority "
                    f"{' < '.join(EVENT_ORDER)}); found {value!r}",
                )
        for name in EVENT_ORDER:
            if name not in members:
                yield self.violation(
                    module,
                    node.lineno,
                    f"EventKind is missing documented member {name}; the "
                    "(time, kind, seq) contract no longer matches the code",
                )

    def _check_canonical(
        self, module: ModuleSource, call: ast.Call
    ) -> Iterator[Violation]:
        if len(call.args) < 2:
            return
        item = call.args[1]
        if not isinstance(item, ast.Tuple):
            return  # pushing a prebuilt variable: cannot check statically
        ok = (
            len(item.elts) == 4
            and "time" in ast.unparse(item.elts[0])
            and "kind" in ast.unparse(item.elts[1])
            and any(
                tag in ast.unparse(item.elts[2]) for tag in ("counter", "seq")
            )
        )
        if not ok:
            yield self.violation(
                module,
                item,
                "event-queue push must heap the canonical (time_ms, kind, "
                "seq, payload) 4-tuple; anything else reorders same-time "
                "events",
            )

    def _check_minimum(
        self, module: ModuleSource, call: ast.Call
    ) -> Iterator[Violation]:
        if len(call.args) < 2:
            return
        item = call.args[1]
        if isinstance(item, ast.Tuple) and len(item.elts) < 3:
            yield self.violation(
                module,
                item,
                f"raw {len(item.elts)}-tuple heappush into an engine heap; "
                "ties would compare payloads — include a (time, tie-break, "
                "payload) shape with a deterministic tie-break field",
            )
