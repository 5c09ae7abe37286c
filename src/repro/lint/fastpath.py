"""RPR003 — fast-path field parity.

A fast path may bypass a dataclass ``__init__`` by stamping attribute
values straight into ``obj.__dict__``; the one such site in the tree is
``QueryTrace.query_at`` building ``Query`` (the engine writes its
results into columns and builds no outcome objects).  The compiler
cannot check those string keys against the class definition, so adding
a field to the dataclass — or fat-fingering a key — silently produces
half-initialized objects.  This checker
re-derives the contract statically:

* a stamp site whose class resolves to a scanned dataclass must assign
  **exactly** the dataclass's field set (missing fields and unknown keys
  are both violations);
* a site that also calls ``d.update(...)`` is subset-checked only (the
  update may cover the rest), so unknown literal keys still fail;
* dynamically-typed sites (``cls = record.__class__``) and classes the
  project index cannot resolve are skipped — the runtime identity tests
  remain the backstop there.
"""

from __future__ import annotations

from typing import Iterator

from repro.lint.base import (
    Checker,
    ModuleSource,
    ProjectIndex,
    Violation,
    find_stamp_sites,
    iter_functions,
    register,
)


@register
class FastPathParityChecker(Checker):
    code = "RPR003"
    name = "fastpath-field-parity"
    description = (
        "__dict__-stamped keys at fast-path construction sites must exactly "
        "match the bypassed dataclass's field set"
    )
    scope = ()

    def check(
        self, module: ModuleSource, project: ProjectIndex
    ) -> Iterator[Violation]:
        for func in iter_functions(module.tree):
            for site in find_stamp_sites(func):
                if site.class_name is None or not site.keys:
                    continue
                info = project.resolve_class(module, site.class_name)
                if info is None or not info.is_dataclass:
                    continue
                expected = set(info.fields)
                got = set(site.keys)
                unknown = sorted(got - expected)
                missing = sorted(expected - got)
                if unknown:
                    yield self.violation(
                        module,
                        site.lineno,
                        f"fast-path stamp for {info.name} writes keys not in "
                        f"its field set: {', '.join(unknown)}",
                    )
                if missing and not site.uses_update:
                    yield self.violation(
                        module,
                        site.lineno,
                        f"fast-path stamp for {info.name} misses fields "
                        f"{', '.join(missing)}; records built here would be "
                        "half-initialized",
                    )
