"""R005 — mutable default arguments.

A ``def f(x, cache={})`` default is evaluated once at import and
shared by every call — state leaks across calls, across tests, and
(for the estimators) across fits.  The convention here, as in the
rest of the scientific Python world, is a ``None`` default plus an
explicit ``x = x if x is not None else {}`` in the body (see
``keys: list | None = None`` in ``repro.eval.runner``).

Flagged default expressions: list/dict/set displays, comprehensions,
and calls to the mutable builtin constructors (``list``, ``dict``,
``set``, ``bytearray``, ``collections.defaultdict``, …).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.astutil import dotted_name
from repro.analysis.findings import Finding
from repro.analysis.registry import Rule, register
from repro.analysis.runner import ModuleInfo

_MUTABLE_CONSTRUCTORS = frozenset(
    {
        "list", "dict", "set", "bytearray", "defaultdict",
        "OrderedDict", "Counter", "deque",
        "collections.defaultdict", "collections.OrderedDict",
        "collections.Counter", "collections.deque",
    }
)
_MUTABLE_DISPLAYS = (
    ast.List, ast.Dict, ast.Set,
    ast.ListComp, ast.DictComp, ast.SetComp,
)


@register
class MutableDefaultRule(Rule):
    rule_id = "R005"
    title = "mutable default argument"
    rationale = (
        "Defaults are evaluated once and shared across calls; a "
        "mutable one is cross-call hidden state, the exact opposite "
        "of the stateless estimator convention."
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in module.nodes:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    name = getattr(node, "name", "<lambda>")
                    yield self.finding(
                        module, default.lineno, default.col_offset,
                        f"function {name!r} has a mutable default "
                        f"({ast.unparse(default)}); use None and "
                        "construct inside the body",
                    )

    @staticmethod
    def _is_mutable(node: ast.expr) -> bool:
        if isinstance(node, _MUTABLE_DISPLAYS):
            return True
        if isinstance(node, ast.Call):
            return dotted_name(node.func) in _MUTABLE_CONSTRUCTORS
        return False
