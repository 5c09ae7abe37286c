"""Shared infrastructure for the repro invariant linter.

The linter is a two-pass AST analysis:

1. every target file is parsed once into a :class:`ModuleSource` (AST +
   source lines + suppression comments), and a :class:`ProjectIndex` is
   built over all of them (class definitions, dataclass fields, slotted
   status, import aliases);
2. each registered :class:`Checker` runs over each module it is scoped
   to, yielding :class:`Violation` records.

Checkers register themselves into :data:`CHECKERS` via the
:func:`register` decorator; ``repro.lint.runner`` drives the passes and
applies ``# repro-lint: disable=RPRxxx -- reason`` suppressions.

Everything here is intentionally dependency-free (stdlib ``ast`` only) so
the pass stays fast — the whole of ``src/`` lints in well under a second.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar, Iterable, Iterator

#: Matches one suppression comment.  The justification after ``--`` is
#: required (a bare suppression is itself flagged, as RPR000).
SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*disable=(?P<codes>[A-Za-z0-9_,\s]*?)"
    r"(?:\s*--\s*(?P<reason>\S.*?))?\s*$"
)

#: Path fragments (posix) that mark the engine's hot path.  RPR001's
#: determinism rules and RPR002's slots-coverage rule apply only here.
HOT_PATH_SEGMENTS: tuple[str, ...] = ("serving/engine", "serving/autoscale")


@dataclass(frozen=True, slots=True)
class Violation:
    """One finding: a code, a location, and a one-line message."""

    code: str
    path: str
    line: int
    col: int
    message: str

    def sort_key(self) -> tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.code)

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


@dataclass(frozen=True, slots=True)
class Suppression:
    """A parsed ``# repro-lint: disable=...`` comment."""

    line: int
    codes: tuple[str, ...]
    reason: str | None


@dataclass(slots=True)
class ClassInfo:
    """What the project index records about one class definition."""

    name: str
    relpath: str
    lineno: int
    node: ast.ClassDef
    is_dataclass: bool = False
    dataclass_keywords: dict[str, object] = field(default_factory=dict)
    explicit_slots: tuple[str, ...] | None = None
    fields: tuple[str, ...] = ()

    @property
    def has_slots(self) -> bool:
        if self.explicit_slots is not None:
            return True
        return bool(self.dataclass_keywords.get("slots"))


class ModuleSource:
    """One parsed file: AST, raw lines, suppressions, import aliases."""

    __slots__ = (
        "path",
        "relpath",
        "source",
        "tree",
        "lines",
        "suppressions",
        "import_aliases",
        "classes",
    )

    def __init__(self, path: Path, relpath: str, source: str, tree: ast.Module):
        self.path = path
        self.relpath = relpath
        self.source = source
        self.tree = tree
        self.lines = source.splitlines()
        self.suppressions: dict[int, Suppression] = _parse_suppressions(source)
        #: local name -> dotted origin, e.g. {"np": "numpy",
        #: "SimulatedQueryOutcome": "repro.serving.engine.results"}
        self.import_aliases: dict[str, str] = _collect_imports(tree)
        self.classes: dict[str, ClassInfo] = {
            node.name: _class_info(node, relpath)
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
        }

    @property
    def dotted_name(self) -> str:
        """Best-effort module path, e.g. ``repro.serving.engine.core``."""
        parts = Path(self.relpath).with_suffix("").parts
        if parts and parts[0] == "src":
            parts = parts[1:]
        if parts and parts[-1] == "__init__":
            parts = parts[:-1]
        return ".".join(parts)

    def in_hot_path(self) -> bool:
        return any(seg in self.relpath for seg in HOT_PATH_SEGMENTS)


class ProjectIndex:
    """Cross-file view used to resolve class names at stamp/call sites."""

    __slots__ = ("modules", "by_dotted", "classes_by_name")

    def __init__(self, modules: Iterable[ModuleSource]):
        self.modules: list[ModuleSource] = list(modules)
        self.by_dotted: dict[str, ModuleSource] = {
            m.dotted_name: m for m in self.modules
        }
        self.classes_by_name: dict[str, list[ClassInfo]] = {}
        for module in self.modules:
            for info in module.classes.values():
                self.classes_by_name.setdefault(info.name, []).append(info)

    def resolve_class(self, module: ModuleSource, name: str) -> ClassInfo | None:
        """Resolve ``name`` as used in ``module`` to a scanned class.

        Resolution order: same-module definition, then ``from X import
        name`` against scanned modules (suffix-matched so the linter works
        on scratch copies outside ``src/``), then a project-wide unique
        simple name.  Returns ``None`` when the class cannot be pinned
        down — callers must treat that as "cannot verify", not "ok".
        """
        if name in module.classes:
            return module.classes[name]
        origin = module.import_aliases.get(name)
        if origin and "." in origin:
            target_module, _, target_name = origin.rpartition(".")
            for dotted, scanned in self.by_dotted.items():
                if dotted == target_module or target_module.endswith("." + dotted):
                    info = scanned.classes.get(target_name)
                    if info is not None:
                        return info
        candidates = self.classes_by_name.get(name, [])
        if len(candidates) == 1:
            return candidates[0]
        return None


class Checker:
    """Base class for one lint rule.  Subclasses self-register."""

    code: ClassVar[str] = ""
    name: ClassVar[str] = ""
    description: ClassVar[str] = ""
    #: posix path fragments this checker is limited to; empty = all files.
    scope: ClassVar[tuple[str, ...]] = ()

    def applies_to(self, module: ModuleSource) -> bool:
        if not self.scope:
            return True
        return any(seg in module.relpath for seg in self.scope)

    def check(
        self, module: ModuleSource, project: ProjectIndex
    ) -> Iterator[Violation]:
        raise NotImplementedError

    def violation(
        self, module: ModuleSource, node: ast.AST | int, message: str
    ) -> Violation:
        if isinstance(node, int):
            line, col = node, 0
        else:
            line = getattr(node, "lineno", 1)
            col = getattr(node, "col_offset", 0)
        return Violation(self.code, module.relpath, line, col, message)


#: code -> checker instance, in registration order.
CHECKERS: dict[str, Checker] = {}


def register(cls: type[Checker]) -> type[Checker]:
    """Class decorator adding one checker instance to :data:`CHECKERS`."""
    if not cls.code:
        raise ValueError(f"checker {cls.__name__} must define a code")
    if cls.code in CHECKERS:
        raise ValueError(f"duplicate checker code {cls.code}")
    CHECKERS[cls.code] = cls()
    return cls


def checker_codes() -> tuple[str, ...]:
    return tuple(sorted(CHECKERS))


# ---------------------------------------------------------------------------
# Suppressions
# ---------------------------------------------------------------------------


def _parse_suppressions(source: str) -> dict[int, Suppression]:
    """Scan *comments* (via tokenize, so docstrings that merely mention the
    syntax don't count) for ``# repro-lint: disable=...`` directives."""
    if "repro-lint" not in source:
        return {}
    found: dict[int, Suppression] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT or "repro-lint" not in token.string:
                continue
            match = SUPPRESS_RE.search(token.string)
            if not match:
                continue
            line = token.start[0]
            codes = tuple(
                part.strip()
                for part in match.group("codes").split(",")
                if part.strip()
            )
            found[line] = Suppression(line, codes, match.group("reason"))
    except tokenize.TokenError:  # pragma: no cover - file already ast-parsed
        pass
    return found


@register
class SuppressionHygiene(Checker):
    """RPR000 — suppressions must name known codes and carry a reason.

    This meta-check keeps ``# repro-lint: disable=`` comments honest: an
    unknown code would silently suppress nothing, and a missing ``--
    reason`` hides *why* an invariant is waived.  RPR000 itself cannot be
    suppressed (the runner never filters it).
    """

    code = "RPR000"
    name = "suppression-hygiene"
    description = (
        "repro-lint suppression comments must reference registered codes "
        "and carry a one-line justification after ' -- '"
    )

    def check(
        self, module: ModuleSource, project: ProjectIndex
    ) -> Iterator[Violation]:
        for suppression in module.suppressions.values():
            if not suppression.codes:
                yield self.violation(
                    module,
                    suppression.line,
                    "suppression comment names no lint codes "
                    "(expected '# repro-lint: disable=RPRxxx -- reason')",
                )
                continue
            for code in suppression.codes:
                if code not in CHECKERS:
                    yield self.violation(
                        module,
                        suppression.line,
                        f"unknown lint code {code!r} in suppression; "
                        f"registered codes: {', '.join(checker_codes())}",
                    )
            if not suppression.reason:
                yield self.violation(
                    module,
                    suppression.line,
                    "suppression lacks a justification; append "
                    "' -- <one-line reason>'",
                )


# ---------------------------------------------------------------------------
# AST helpers shared by several checkers
# ---------------------------------------------------------------------------


def _collect_imports(tree: ast.Module) -> dict[str, str]:
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                aliases[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                aliases[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
    return aliases


def _literal(node: ast.expr) -> object:
    try:
        return ast.literal_eval(node)
    except (ValueError, SyntaxError):
        return None


def _class_info(node: ast.ClassDef, relpath: str) -> ClassInfo:
    info = ClassInfo(name=node.name, relpath=relpath, lineno=node.lineno, node=node)
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        dotted = _dotted(target)
        if dotted in ("dataclass", "dataclasses.dataclass"):
            info.is_dataclass = True
            if isinstance(decorator, ast.Call):
                info.dataclass_keywords = {
                    kw.arg: _literal(kw.value)
                    for kw in decorator.keywords
                    if kw.arg is not None
                }
    fields: list[str] = []
    for stmt in node.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    value = _literal(stmt.value)
                    if isinstance(value, (tuple, list)):
                        info.explicit_slots = tuple(str(v) for v in value)
                    elif isinstance(value, str):
                        info.explicit_slots = (value,)
                    else:
                        info.explicit_slots = ()
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            annotation = ast.unparse(stmt.annotation)
            if "ClassVar" in annotation:
                continue
            fields.append(stmt.target.id)
    info.fields = tuple(fields)
    return info


def _dotted(node: ast.expr) -> str:
    """Render ``a.b.c`` attribute chains; empty string for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


@dataclass(slots=True)
class StampSite:
    """One ``Cls.__new__(Cls)`` + ``obj.__dict__`` stamping site."""

    class_name: str | None
    lineno: int
    #: True once the site actually reads ``obj.__dict__`` — a bare
    #: ``Cls.__new__(Cls)`` (pickle-style) is not a stamp.
    touches_dict: bool


def find_stamp_sites(func: ast.FunctionDef) -> list[StampSite]:
    """Locate fast-path construction sites inside one function.

    Recognizes the idiom that bypasses a constructor::

        out_new = Cls.__new__          # optional hoisted alias
        obj = out_new(Cls)             # or obj = Cls.__new__(Cls)
        d = obj.__dict__               # any read of obj.__dict__
        d["field"] = ...

    Dynamic classes (``cls = record.__class__``) yield ``class_name=None``
    and are skipped — "cannot verify" is not "ok", but it is also not a
    static violation.
    """
    new_alias: dict[str, str | None] = {}
    sites: dict[str, StampSite] = {}

    def class_of_new(value: ast.expr) -> str | None | bool:
        """Return the class name for a ``__new__`` call, None if dynamic,
        False if the expression is not a ``__new__`` call at all."""
        if not isinstance(value, ast.Call):
            return False
        func_expr = value.func
        if isinstance(func_expr, ast.Attribute) and func_expr.attr == "__new__":
            base = func_expr.value
            return base.id if isinstance(base, ast.Name) else None
        if isinstance(func_expr, ast.Name) and func_expr.id in new_alias:
            return new_alias[func_expr.id]
        return False

    for node in ast.walk(func):
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Name):
            continue
        value = node.value
        if isinstance(value, ast.Attribute) and value.attr == "__new__":
            base = value.value
            new_alias[target.id] = base.id if isinstance(base, ast.Name) else None
            continue
        resolved = class_of_new(value)
        if resolved is not False:
            sites[target.id] = StampSite(
                class_name=resolved if isinstance(resolved, str) else None,
                lineno=node.lineno,
                touches_dict=False,
            )

    for node in ast.walk(func):
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "__dict__"
            and isinstance(node.value, ast.Name)
            and node.value.id in sites
        ):
            sites[node.value.id].touches_dict = True
    return list(sites.values())


def iter_functions(tree: ast.Module) -> Iterator[ast.FunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            yield node
