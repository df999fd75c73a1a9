"""Walk files, parse once, run every rule, filter suppressions."""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis.findings import Finding
from repro.analysis.registry import (
    ProjectRule,
    Rule,
    all_rules,
    get_rule,
)
from repro.analysis.suppressions import collect_suppressions, is_suppressed
from repro.errors import AnalysisError


@dataclass
class ModuleInfo:
    """Everything a rule needs about one source module, parsed once."""

    path: Path
    module: str
    source: str
    tree: ast.Module
    suppressions: dict[int, frozenset[str]] = field(default_factory=dict)

    _nodes: list[ast.AST] | None = None
    _parents: dict[int, ast.AST] | None = None

    @property
    def nodes(self) -> list[ast.AST]:
        """Every node of ``tree`` in ``ast.walk`` order, walked once
        and shared by every rule that scans the whole module."""
        if self._nodes is None:
            self._nodes = list(ast.walk(self.tree))
        return self._nodes

    def parent(self, node: ast.AST) -> ast.AST | None:
        """The syntactic parent of ``node`` (lazily built, cached)."""
        if self._parents is None:
            parents: dict[int, ast.AST] = {}
            for outer in self.nodes:
                for child in ast.iter_child_nodes(outer):
                    parents[id(child)] = outer
            self._parents = parents
        return self._parents.get(id(node))

    def ancestors(self, node: ast.AST) -> Iterable[ast.AST]:
        """Parents of ``node`` from innermost outward."""
        current = self.parent(node)
        while current is not None:
            yield current
            current = self.parent(current)


def module_name_for_path(path: Path) -> str:
    """Dotted module name, rooted at the last ``repro`` path part.

    ``src/repro/core/strudel.py`` -> ``repro.core.strudel``.  Files
    outside any ``repro`` tree (ad-hoc fixtures) get their bare stem,
    which keeps path-scoped rules (R002, R003) inert on them unless
    the fixture deliberately mimics the package layout.
    """
    parts = list(path.parts)
    parts[-1] = path.stem
    anchors = [i for i, part in enumerate(parts) if part == "repro"]
    if anchors:
        parts = parts[anchors[-1]:]
    else:
        parts = parts[-1:]
    if parts[-1] == "__init__":
        parts = parts[:-1] or ["__init__"]
    return ".".join(parts)


def load_module(path: Path) -> ModuleInfo:
    """Read and parse one file into a :class:`ModuleInfo`."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    return ModuleInfo(
        path=path,
        module=module_name_for_path(path),
        source=source,
        tree=tree,
        suppressions=collect_suppressions(source),
    )


def iter_python_files(paths: Sequence[Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    found: set[Path] = set()
    for path in paths:
        if path.is_dir():
            found.update(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            found.add(path)
    return sorted(found)


def _resolve_rules(select: Sequence[str] | None) -> list[Rule]:
    if select is None:
        return all_rules()
    return [get_rule(rule_id.strip().upper()) for rule_id in select]


def lint_modules(
    modules: Iterable[ModuleInfo],
    select: Sequence[str] | None = None,
    graph: bool = True,
) -> list[Finding]:
    """Run the (selected) rules over already-parsed modules.

    Per-module rules see one module at a time; project
    (:class:`~repro.analysis.registry.ProjectRule`) rules see a
    :class:`~repro.analysis.graph.ProjectGraph` built once from every
    module in scope.  ``graph=False`` skips the project rules (and the
    graph build) entirely — the CLI's ``--no-graph``.  A graph that
    does not converge within its pass bound raises
    :class:`~repro.errors.AnalysisError` rather than feed the project
    rules an unfinished model.
    """
    module_list = list(modules)
    rules = _resolve_rules(select)
    if not graph:
        rules = [r for r in rules if not isinstance(r, ProjectRule)]
    project_rules = [r for r in rules if isinstance(r, ProjectRule)]
    local_rules = [r for r in rules if not isinstance(r, ProjectRule)]
    findings: list[Finding] = []
    for module in module_list:
        for rule in local_rules:
            for finding in rule.check(module):
                if is_suppressed(
                    module.suppressions, finding.line, finding.rule_id
                ):
                    continue
                findings.append(finding)
    if project_rules and module_list:
        from repro.analysis.graph import ProjectGraph

        project = ProjectGraph.build(module_list)
        if not project.converged:
            raise AnalysisError(
                "the whole-program call graph did not converge within "
                "its pass bound; the project rules "
                f"({', '.join(r.rule_id for r in project_rules)}) "
                "would read an unfinished graph"
            )
        suppressions_by_path = {
            str(module.path): module.suppressions
            for module in module_list
        }
        for rule in project_rules:
            for finding in rule.check_project(project):
                if is_suppressed(
                    suppressions_by_path.get(finding.path, {}),
                    finding.line,
                    finding.rule_id,
                ):
                    continue
                findings.append(finding)
    return sorted(findings)


def lint_paths(
    paths: Sequence[Path],
    select: Sequence[str] | None = None,
    graph: bool = True,
) -> list[Finding]:
    """Lint every ``.py`` file under ``paths``; the main entry point.

    A file that does not parse cannot be analyzed; it is reported as
    the reserved finding ``R000`` (never suppressed or deselected —
    a broken file must fail the gate regardless of rule selection).
    """
    modules: list[ModuleInfo] = []
    parse_errors: list[Finding] = []
    for path in iter_python_files(paths):
        try:
            modules.append(load_module(path))
        except SyntaxError as error:
            parse_errors.append(
                Finding(
                    path=str(path),
                    line=error.lineno or 1,
                    col=(error.offset or 1) - 1,
                    rule_id="R000",
                    message=f"file does not parse: {error.msg}",
                )
            )
    return sorted(
        lint_modules(modules, select=select, graph=graph) + parse_errors
    )


def lint_source(
    source: str,
    module: str = "fixture",
    path: str | Path = "<string>",
    select: Sequence[str] | None = None,
    graph: bool = True,
) -> list[Finding]:
    """Lint one in-memory snippet (rule unit tests use this)."""
    info = ModuleInfo(
        path=Path(path),
        module=module,
        source=source,
        tree=ast.parse(source),
        suppressions=collect_suppressions(source),
    )
    return lint_modules([info], select=select, graph=graph)


def lint_sources(
    sources: dict[str, str],
    select: Sequence[str] | None = None,
    graph: bool = True,
) -> list[Finding]:
    """Lint several in-memory modules as one project.

    ``sources`` maps dotted module names to source text; each module's
    synthetic path is ``<name>``.  This is how the R100-series fixture
    tests build multi-module programs without touching the filesystem.
    """
    modules = [
        ModuleInfo(
            path=Path(f"<{name}>"),
            module=name,
            source=source,
            tree=ast.parse(source),
            suppressions=collect_suppressions(source),
        )
        for name, source in sorted(sources.items())
    ]
    return lint_modules(modules, select=select, graph=graph)
