"""R003 — feature-function contracts.

The Strudel-L / Strudel-C feature extractors
(``repro.core.line_features`` / ``repro.core.cell_features``) are the
contract surface between raw tables and the classifiers: every
function in them must make its numeric output type explicit, and no
NaN may escape unguarded — an empty line or cell must map to a
*defined* finite value (the docstrings spell out each boundary
convention), never to silent NaN propagation that a forest will
happily split on.

Concretely, inside the declared feature modules:

* every function and method (except dunders and ``@property``
  accessors, which expose metadata rather than feature values) must
  carry a return annotation, and that annotation must mention a
  numeric type (``float``, ``int``, ``bool``, ``np.ndarray``, …);
* a ``return`` whose expression contains ``float('nan')``, ``np.nan``
  or ``math.nan`` must sit under a guard (``if`` / ``try`` / the
  branch of a conditional expression), i.e. be an explicitly handled
  case rather than the unconditional result.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.astutil import dotted_name
from repro.analysis.findings import Finding
from repro.analysis.registry import Rule, register
from repro.analysis.runner import ModuleInfo

#: Modules whose functions carry the feature contract.
FEATURE_MODULES = frozenset(
    {"repro.core.line_features", "repro.core.cell_features"}
)

_NUMERIC_NAMES = frozenset({"float", "int", "bool", "complex"})
_NUMERIC_DOTTED = frozenset(
    {
        "np.ndarray", "numpy.ndarray", "np.float64", "numpy.float64",
        "np.floating", "numpy.floating", "np.number", "numpy.number",
    }
)
_NAN_DOTTED = frozenset({"np.nan", "numpy.nan", "math.nan"})


@register
class FeatureContractRule(Rule):
    rule_id = "R003"
    title = "feature function breaks the numeric contract"
    rationale = (
        "Strudel features must be total: annotated numeric outputs, "
        "and NaN only as an explicitly guarded case, so empty lines "
        "and cells can never leak undefined values into training."
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if module.module not in FEATURE_MODULES:
            return
        for node in module.nodes:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            if self._is_exempt(node):
                continue
            yield from self._check_annotation(module, node)
            yield from self._check_nan_returns(module, node)

    # ------------------------------------------------------------------
    @staticmethod
    def _is_exempt(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
        if node.name.startswith("__") and node.name.endswith("__"):
            return True
        for decorator in node.decorator_list:
            name = dotted_name(decorator)
            if name in {"property", "functools.cached_property",
                        "cached_property"}:
                return True
            if name is not None and name.endswith(".setter"):
                return True
        return False

    def _check_annotation(
        self,
        module: ModuleInfo,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> Iterator[Finding]:
        if node.returns is None:
            yield self.finding(
                module, node.lineno, node.col_offset,
                f"feature function {node.name!r} has no return "
                "annotation (must declare its numeric output)",
            )
            return
        if not self._mentions_numeric(node.returns):
            yield self.finding(
                module, node.returns.lineno, node.returns.col_offset,
                f"feature function {node.name!r} is annotated "
                f"{ast.unparse(node.returns)!r}, which names no "
                "numeric type",
            )

    @classmethod
    def _mentions_numeric(cls, annotation: ast.AST) -> bool:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Name) and node.id in _NUMERIC_NAMES:
                return True
            if isinstance(node, ast.Attribute):
                name = dotted_name(node)
                if name in _NUMERIC_DOTTED:
                    return True
            if isinstance(node, ast.Constant) and isinstance(
                node.value, str
            ):
                # String annotations: cheap textual membership test.
                if any(t in node.value for t in _NUMERIC_NAMES):
                    return True
        return False

    # ------------------------------------------------------------------
    def _check_nan_returns(
        self,
        module: ModuleInfo,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> Iterator[Finding]:
        for statement, guarded in self._walk_guarded(node.body, False):
            if not isinstance(statement, ast.Return):
                continue
            if statement.value is None:
                continue
            if guarded:
                continue
            if self._has_unguarded_nan(statement.value):
                yield self.finding(
                    module, statement.lineno, statement.col_offset,
                    f"feature function {node.name!r} returns a bare "
                    "NaN on its unconditional path; guard it and "
                    "return a defined boundary value",
                )

    @classmethod
    def _walk_guarded(
        cls, statements: list[ast.stmt], guarded: bool
    ) -> Iterator[tuple[ast.stmt, bool]]:
        for statement in statements:
            yield statement, guarded
            if isinstance(statement, ast.If):
                yield from cls._walk_guarded(statement.body, True)
                yield from cls._walk_guarded(statement.orelse, True)
            elif isinstance(statement, ast.Try):
                yield from cls._walk_guarded(statement.body, True)
                for handler in statement.handlers:
                    yield from cls._walk_guarded(handler.body, True)
                yield from cls._walk_guarded(statement.orelse, True)
                yield from cls._walk_guarded(
                    statement.finalbody, guarded
                )
            elif isinstance(
                statement, (ast.For, ast.While, ast.With)
            ):
                yield from cls._walk_guarded(statement.body, guarded)
                if hasattr(statement, "orelse"):
                    yield from cls._walk_guarded(
                        statement.orelse, guarded
                    )
            # Nested function/class defs are visited by the outer
            # pass over module.nodes in check(); skip them here.

    @classmethod
    def _has_unguarded_nan(cls, expression: ast.AST) -> bool:
        if isinstance(expression, ast.IfExp):
            # `x if cond else y`: both arms are guarded cases; only
            # the test expression could leak an unconditional NaN.
            return cls._has_unguarded_nan(expression.test)
        if cls._is_nan(expression):
            return True
        return any(
            cls._has_unguarded_nan(child)
            for child in ast.iter_child_nodes(expression)
        )

    @staticmethod
    def _is_nan(node: ast.AST) -> bool:
        if isinstance(node, ast.Attribute):
            return dotted_name(node) in _NAN_DOTTED
        if isinstance(node, ast.Call):
            callee = dotted_name(node.func)
            if callee in {"float"} and node.args:
                first = node.args[0]
                return (
                    isinstance(first, ast.Constant)
                    and isinstance(first.value, str)
                    and first.value.strip().lower() in {"nan", "-nan"}
                )
        return False
