"""R104 — metric names are literals drawn from the declared registry.

The metrics glossary (``METRIC_NAMES`` in :mod:`repro.obs.metrics`,
mirrored in ``docs/observability.md``) is how a dashboard, a bench
report and a test agree on what ``ingest.recovered`` means.  Counter
names are plain strings, so one typo — ``ingest.recoverd`` — creates a
parallel metric that every reader silently misses.  This rule resolves
each ``.increment`` / ``.gauge`` / ``.observe`` / ``.time`` call's
*receiver* through the project graph (so ``get_metrics().increment``
and a ``metrics = get_metrics()`` local both count, while
``time.time()`` never does) and checks the name argument:

* a string literal must appear in ``METRIC_NAMES`` *exactly* —
  wildcard entries never cover literals, because a literal is fully
  known statically and letting ``cache.*`` absorb a typo'd
  ``cache.hitz`` would defeat the check;
* an f-string is allowed when a wildcard entry (``"cache.*"``) covers
  its literal prefix — a family of dynamic names such as per-corpus
  gauges;
* anything else (a variable, an unprefixed f-string) is a finding:
  the registry cannot vouch for a name it cannot see.

The module that declares ``METRIC_NAMES`` is exempt (the ``Metrics``
class forwards names through its own helpers), and the rule stands
down entirely when no declaration is in lint scope.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.findings import Finding
from repro.analysis.graph import ProjectGraph
from repro.analysis.registry import ProjectRule, register
from repro.analysis.rules.spans import _declared_tuple, _string_elements

_DECLARATION = "METRIC_NAMES"
_METRICS_CLASS = "Metrics"
_RECORDING_METHODS = frozenset({"increment", "gauge", "observe", "time"})


def _wildcard_match(name: str, registry: frozenset[str]) -> bool:
    for entry in sorted(registry):
        if entry.endswith(".*") and name.startswith(entry[:-1]):
            return True
    return False


@register
class MetricNameRule(ProjectRule):
    rule_id = "R104"
    title = "metric name not in the declared METRIC_NAMES registry"
    rationale = (
        "Metric names are stringly-typed: a typo mints a parallel "
        "counter that dashboards and tests silently miss. Requiring "
        "literals from one declared registry turns that runtime "
        "no-show into a lint finding."
    )

    def check_project(self, project: ProjectGraph) -> Iterator[Finding]:
        registry: set[str] = set()
        declaring_modules: set[str] = set()
        for module_name in sorted(project.modules):
            table = project.modules[module_name]
            for stmt in table.info.tree.body:
                value = _declared_tuple(stmt, _DECLARATION)
                names = _string_elements(value)
                if names is not None:
                    registry.update(names)
                    declaring_modules.add(module_name)
        if not registry:
            return  # No registry in scope: nothing to vouch against.
        frozen = frozenset(registry)

        metrics_classes = {
            qualname
            for qualname in project.classes
            if qualname.rpartition(".")[2] == _METRICS_CLASS
            and qualname.rpartition(".")[0] in declaring_modules
        }
        if not metrics_classes:
            return

        for qualname in sorted(project.functions):
            func = project.functions[qualname]
            if func.module.name in declaring_modules:
                continue  # the registry's own module forwards names
            for node in ast.walk(func.node):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _RECORDING_METHODS
                    and node.args
                ):
                    continue
                receiver = project.eval_in(qualname, node.func.value)
                if not any(
                    kind == "instance" and target in metrics_classes
                    for kind, target in receiver
                ):
                    continue
                yield from self._check_name(
                    func, node, node.args[0], frozen
                )

    def _check_name(
        self,
        func,
        call: ast.Call,
        name_node: ast.expr,
        registry: frozenset[str],
    ) -> Iterator[Finding]:
        path = str(func.module.info.path)
        if isinstance(name_node, ast.Constant) and isinstance(
            name_node.value, str
        ):
            # Literals must match exactly; wildcard entries are for
            # dynamic names only (a wildcard absorbing a typo'd
            # literal would defeat the check).
            if name_node.value in registry:
                return
            yield self.project_finding(
                path, call.lineno, call.col_offset,
                f"metric name {name_node.value!r} is not declared in "
                f"{_DECLARATION}; add it to the registry or fix the "
                "spelling",
            )
            return
        if isinstance(name_node, ast.JoinedStr):
            values = name_node.values
            if (
                values
                and isinstance(values[0], ast.Constant)
                and isinstance(values[0].value, str)
                and _wildcard_match(values[0].value, registry)
            ):
                return
            yield self.project_finding(
                path, call.lineno, call.col_offset,
                "dynamic metric name has no wildcard entry in "
                f"{_DECLARATION} covering its literal prefix",
            )
            return
        yield self.project_finding(
            path, call.lineno, call.col_offset,
            "metric name must be a string literal from "
            f"{_DECLARATION} (or an f-string under a declared "
            "wildcard); a variable name cannot be checked",
        )
