"""R103 — tracer span names match the declared pipeline stages.

``PIPELINE_STAGES`` in :mod:`repro.obs.trace` is the single source of
truth for stage names: trace readers look spans up by them and the
docs promise the same spellings.  A typo'd
``tracer.span("line_featuers")`` silently produces a span no reader
looks for; a stage declared but never instrumented is a dashboard row
that is forever empty.  Both halves are whole-program
properties — span call sites are scattered over ``io``, ``core``,
``eval`` and ``perf`` — so the rule reads the declarations statically
from the ASTs in scope (never importing ``repro.obs``, which would
break the analysis layer's R002 footprint) and checks:

* every *literal* span name is declared (``PIPELINE_STAGES`` or the
  auxiliary ``AUX_SPANS`` — lifecycle spans like ``fit``/``analyze``);
* every declared pipeline stage has at least one literal call site.

Coverage is only enforced when the lint scope actually contains both
the declaring module and at least one other module using spans —
linting a single file in isolation must not report the whole pipeline
as uninstrumented.  Dynamic span names (``tracer.span(args.command)``)
are out of scope by design.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.findings import Finding
from repro.analysis.graph import ProjectGraph
from repro.analysis.registry import ProjectRule, register

_STAGE_DECLARATION = "PIPELINE_STAGES"
_AUX_DECLARATION = "AUX_SPANS"


def _declared_tuple(stmt: ast.stmt, name: str) -> ast.expr | None:
    """The value expression of a module-level ``name = (…)`` binding."""
    if isinstance(stmt, ast.AnnAssign):
        target = stmt.target
        if isinstance(target, ast.Name) and target.id == name:
            return stmt.value
    elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        target = stmt.targets[0]
        if isinstance(target, ast.Name) and target.id == name:
            return stmt.value
    return None


def _string_elements(value: ast.expr | None) -> list[str] | None:
    if not isinstance(value, (ast.Tuple, ast.List, ast.Set)):
        return None
    names: list[str] = []
    for element in value.elts:
        if not (
            isinstance(element, ast.Constant)
            and isinstance(element.value, str)
        ):
            return None
        names.append(element.value)
    return names


@register
class SpanCoverageRule(ProjectRule):
    rule_id = "R103"
    title = "span name not declared, or declared stage never spanned"
    rationale = (
        "PIPELINE_STAGES is the contract between instrumentation, "
        "trace readers and the docs; a misspelled span name or an "
        "uninstrumented stage silently breaks that contract and no "
        "behaviour test reads trace names."
    )

    def check_project(self, project: ProjectGraph) -> Iterator[Finding]:
        stages: list[str] = []
        allowed: set[str] = set()
        declaring: dict[str, tuple[str, int]] = {}
        declaring_modules: set[str] = set()
        for module_name in sorted(project.modules):
            table = project.modules[module_name]
            for stmt in table.info.tree.body:
                for declaration in (_STAGE_DECLARATION, _AUX_DECLARATION):
                    value = _declared_tuple(stmt, declaration)
                    if value is None:
                        continue
                    names = _string_elements(value)
                    if names is None:
                        continue
                    declaring_modules.add(module_name)
                    allowed.update(names)
                    if declaration == _STAGE_DECLARATION:
                        stages.extend(
                            n for n in names if n not in stages
                        )
                        for name in names:
                            declaring.setdefault(
                                name,
                                (str(table.info.path), stmt.lineno),
                            )
        if not stages:
            return  # No declaration in scope: nothing checkable.

        used: set[str] = set()
        external_sites = False
        for module_name in sorted(project.modules):
            table = project.modules[module_name]
            for node in table.info.nodes:
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "span"
                    and node.args
                ):
                    continue
                first = node.args[0]
                if not (
                    isinstance(first, ast.Constant)
                    and isinstance(first.value, str)
                ):
                    continue  # dynamic span names are out of scope
                name = first.value
                used.add(name)
                if module_name not in declaring_modules:
                    external_sites = True
                if name not in allowed:
                    yield self.project_finding(
                        str(table.info.path),
                        node.lineno,
                        node.col_offset,
                        f"span name {name!r} is not declared in "
                        f"{_STAGE_DECLARATION} or {_AUX_DECLARATION}; "
                        "declare it or fix the spelling",
                    )
        if not external_sites:
            return  # Partial scope: coverage would be all noise.
        for stage in stages:
            if stage in used:
                continue
            path, line = declaring[stage]
            yield self.project_finding(
                path, line, 0,
                f"pipeline stage {stage!r} is declared but no "
                "tracer.span(...) call site uses it; instrument the "
                "stage or retire the name",
            )
