"""R004 — nondeterministic iteration order.

Training data must be assembled in a deterministic order: hash
randomization makes ``set`` iteration differ between interpreter
runs, and ``os.listdir`` / ``Path.iterdir`` / ``glob`` return
filesystem order.  Either one upstream of a ``fit`` silently changes
bootstraps, folds and learned trees between otherwise identical runs
(the evaluation runner sorts its group sets for exactly this reason).

Flagged:

* ``for … in`` (or a comprehension) iterating directly over a ``set``
  display, ``set(…)`` / ``frozenset(…)`` call, or set comprehension;
* any ``os.listdir`` / ``os.scandir`` / ``glob.glob`` / ``glob.iglob``
  call, or ``.iterdir()`` / ``.glob()`` / ``.rglob()`` method call,
  that is not wrapped in ``sorted(…)`` within the same statement.

Sorting first (``sorted(set(xs))``, ``sorted(path.glob("*.csv"))``)
is the fix and is never flagged.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.astutil import dotted_name
from repro.analysis.findings import Finding
from repro.analysis.registry import Rule, register
from repro.analysis.runner import ModuleInfo

_SET_CONSTRUCTORS = frozenset({"set", "frozenset"})
_LISTING_FUNCTIONS = frozenset(
    {"os.listdir", "os.scandir", "glob.glob", "glob.iglob"}
)
_LISTING_METHODS = frozenset({"iterdir", "glob", "rglob", "scandir"})


@register
class NondeterministicIterationRule(Rule):
    rule_id = "R004"
    title = "iteration over an unordered source"
    rationale = (
        "set iteration order and directory listing order vary "
        "between runs; feeding either into training breaks "
        "seed-for-seed reproducibility in ways no unit test catches."
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in module.nodes:
            iterables: list[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iterables.append(node.iter)
            elif isinstance(
                node,
                (ast.ListComp, ast.SetComp, ast.DictComp,
                 ast.GeneratorExp),
            ):
                iterables.extend(g.iter for g in node.generators)
            for iterable in iterables:
                if self._is_set_valued(iterable):
                    yield self.finding(
                        module, iterable.lineno, iterable.col_offset,
                        "iterating a set has no stable order; sort it "
                        "first (sorted(...))",
                    )
            if isinstance(node, ast.Call):
                listing = self._listing_call(node)
                if listing and not self._under_sorted(module, node):
                    yield self.finding(
                        module, node.lineno, node.col_offset,
                        f"{listing} returns filesystem order; wrap it "
                        "in sorted(...)",
                    )

    # ------------------------------------------------------------------
    @staticmethod
    def _is_set_valued(node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            return dotted_name(node.func) in _SET_CONSTRUCTORS
        return False

    @staticmethod
    def _listing_call(node: ast.Call) -> str | None:
        name = dotted_name(node.func)
        if name in _LISTING_FUNCTIONS:
            return name
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _LISTING_METHODS
        ):
            return f".{node.func.attr}()"
        return None

    @staticmethod
    def _under_sorted(module: ModuleInfo, node: ast.Call) -> bool:
        for ancestor in module.ancestors(node):
            if isinstance(ancestor, ast.Call):
                callee = dotted_name(ancestor.func)
                if callee == "sorted":
                    return True
            if isinstance(ancestor, ast.stmt):
                break
        return False
