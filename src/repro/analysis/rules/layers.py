"""R002 — layer-boundary imports.

The package layering (``repro.analysis.layering``) is a declared DAG:
``ml`` may never import ``core``/``eval``, ``core`` may never import
``eval``/``baselines``, and so on.  The rule resolves every ``import``
/ ``from … import`` (module-level *and* function-local — a lazy
import is still a dependency) to a layering node and checks the edge
against the declaration.

Relative imports are resolved against the module's own dotted name so
``from ..core import strudel`` inside ``repro.ml`` is caught just like
the absolute spelling.  ``from pkg import name`` is checked as ``pkg``
and as ``pkg.name``, so a submodule imported by name from its package
(``from repro.ml import persistence``) meets its own node's boundary.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.findings import Finding
from repro.analysis.layering import ALLOWED_DEPENDENCIES, node_for_module
from repro.analysis.registry import Rule, register
from repro.analysis.runner import ModuleInfo


@register
class LayerBoundaryRule(Rule):
    rule_id = "R002"
    title = "import crosses a declared layer boundary"
    rationale = (
        "The ml -> core -> eval layering must stay acyclic as the "
        "system grows; upward imports make lower layers untestable "
        "in isolation and eventually force real import cycles."
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        source_node = node_for_module(module.module)
        if source_node is None:
            return
        allowed = ALLOWED_DEPENDENCIES.get(source_node, frozenset())
        is_package = module.path.name == "__init__.py"
        for node in module.nodes:
            # One finding per statement and disallowed layer, naming
            # the first target that reached it.
            reported: set[str] = set()
            for target in self._import_targets(
                node, module.module, is_package
            ):
                target_node = node_for_module(target)
                if target_node is None or target_node == source_node:
                    continue
                if target_node in allowed or target_node in reported:
                    continue
                reported.add(target_node)
                yield self.finding(
                    module,
                    node.lineno,
                    node.col_offset,
                    f"layer {source_node!r} may not import "
                    f"{target!r} (layer {target_node!r}); allowed: "
                    f"{sorted(allowed) or 'nothing'}",
                )

    # ------------------------------------------------------------------
    @staticmethod
    def _import_targets(
        node: ast.AST, module: str, is_package: bool
    ) -> list[str]:
        """Dotted names a statement imports: each ``import`` name, and
        for ``from pkg import a, b`` the package and ``pkg.a``,
        ``pkg.b`` (a name may be a submodule in another layer)."""
        if isinstance(node, ast.Import):
            return [alias.name for alias in node.names]
        if not isinstance(node, ast.ImportFrom):
            return []
        if node.level == 0:
            package = node.module or ""
        else:
            # Resolve `from ..pkg import x` against our own name;
            # level 1 is the containing package, which for an
            # __init__ module is the module itself.
            parts = module.split(".")
            if is_package:
                parts = parts + ["__init__"]
            package = ".".join(parts[: max(len(parts) - node.level, 0)])
            if node.module:
                package = (
                    f"{package}.{node.module}" if package else node.module
                )
        if not package:
            return []
        return [package] + [
            f"{package}.{alias.name}"
            for alias in node.names
            if alias.name != "*"
        ]
