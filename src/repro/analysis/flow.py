"""Interprocedural raise-propagation over the project graph.

Answers one question per function: *which exception types can escape
it, and from which raise sites?*  Local ``raise`` statements are
resolved to builtin names (``builtins.ValueError``) or project class
qualnames, ``try``/``except`` scopes subtract what their handlers
catch (subclass-aware, over both the builtin hierarchy and project
``ReproError`` subclasses), and escapes propagate caller-ward over the
call graph to a fixpoint, carrying their origin raise sites so a
finding can anchor at the line that needs fixing or waiving.

The analysis is deliberately asymmetric in its approximations:

* a handler whose type expression does not resolve is treated as
  catch-all (suppressing escapes — precision over recall: a finding
  must point at a real untyped escape);
* a call whose callee does not resolve contributes nothing (again:
  no claim without information);
* only *explicit* ``raise`` sites are modelled — implicit exceptions
  (a failing dict subscript, arithmetic) are invisible, as is a bare
  ``raise`` re-raise inside a handler.

:data:`PUBLIC_ENTRY_POINTS` declares the API surface the R102 rule
guards: the CLI, the pipeline/classifier lifecycles, the evaluation
drivers and the ingestion front door.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator

from repro.analysis.astutil import dotted_name
from repro.analysis.graph import ModuleTable, ProjectGraph

#: Qualnames of the public pipeline APIs whose escaping exceptions
#: must be typed ``ReproError`` subclasses (rule R102).  Kept here —
#: next to the analysis that interprets it — so the list is data the
#: rule pack and the docs share.
PUBLIC_ENTRY_POINTS: tuple[str, ...] = (
    "repro.cli.main",
    "repro.core.strudel.StrudelPipeline.fit",
    "repro.core.strudel.StrudelPipeline.analyze",
    "repro.core.strudel.StrudelPipeline.analyze_bytes",
    "repro.core.strudel.StrudelPipeline.analyze_table",
    "repro.core.strudel.StrudelLineClassifier.fit",
    "repro.core.strudel.StrudelLineClassifier.predict",
    "repro.core.strudel.StrudelLineClassifier.predict_proba",
    "repro.core.strudel.StrudelCellClassifier.fit",
    "repro.core.strudel.StrudelCellClassifier.predict",
    "repro.core.strudel.LineToCellBaseline.fit",
    "repro.core.strudel.LineToCellBaseline.predict",
    "repro.eval.runner.cross_validate_lines",
    "repro.eval.runner.cross_validate_cells",
    "repro.eval.runner.transfer_lines",
    "repro.eval.runner.transfer_cells",
    "repro.io.ingest.ingest_bytes",
    "repro.io.ingest.ingest_path",
    "repro.io.ingest.ingest_text",
    "repro.perf.engine.CorpusEngine.process_payloads",
    "repro.serve.dlq.DeadLetterQueue.append",
    "repro.serve.dlq.replay_dead_letters",
    "repro.serve.protocol.decode_request",
    "repro.serve.protocol.decode_response",
    "repro.serve.protocol.result_from_payload",
    "repro.serve.service.ClassificationService.drain",
    "repro.serve.service.run_service",
)

#: Parent links of the builtin exceptions this analysis knows.  Names
#: are unprefixed; the analysis spells them ``builtins.<Name>``.
_BUILTIN_PARENTS: dict[str, str | None] = {
    "BaseException": None,
    "Exception": "BaseException",
    "ArithmeticError": "Exception",
    "ZeroDivisionError": "ArithmeticError",
    "OverflowError": "ArithmeticError",
    "AssertionError": "Exception",
    "AttributeError": "Exception",
    "BufferError": "Exception",
    "EOFError": "Exception",
    "ImportError": "Exception",
    "ModuleNotFoundError": "ImportError",
    "LookupError": "Exception",
    "IndexError": "LookupError",
    "KeyError": "LookupError",
    "MemoryError": "Exception",
    "NameError": "Exception",
    "OSError": "Exception",
    "FileNotFoundError": "OSError",
    "PermissionError": "OSError",
    "ReferenceError": "Exception",
    "RuntimeError": "Exception",
    "NotImplementedError": "RuntimeError",
    "RecursionError": "RuntimeError",
    "StopIteration": "Exception",
    "SyntaxError": "Exception",
    "SystemError": "Exception",
    "TypeError": "Exception",
    "ValueError": "Exception",
    "UnicodeError": "ValueError",
    "UnicodeDecodeError": "UnicodeError",
    "UnicodeEncodeError": "UnicodeError",
    "KeyboardInterrupt": "BaseException",
    "SystemExit": "BaseException",
    "GeneratorExit": "BaseException",
}

_BUILTIN_PREFIX = "builtins."

#: Sentinel handler meaning "catches everything" (bare ``except:``,
#: ``except Exception``, or an unresolvable handler expression).
_CATCH_ALL = "<catch-all>"

#: Cap on propagation rounds; the call graph is shallow enough that
#: real trees converge in a handful.
_MAX_ROUNDS = 30


@dataclass(frozen=True, order=True)
class RaiseSite:
    """Origin of one escaping exception: where the ``raise`` is."""

    path: str
    line: int
    col: int
    exception: str


def builtin_exception(name: str) -> str | None:
    """``builtins.<name>`` if it is a known builtin exception."""
    if name in _BUILTIN_PARENTS:
        return _BUILTIN_PREFIX + name
    return None


class EscapeAnalysis:
    """Which exceptions escape which functions, with origins."""

    def __init__(self, graph: ProjectGraph) -> None:
        self.graph = graph
        #: func qualname -> exception id -> origin raise sites.
        self.escapes: dict[str, dict[str, frozenset[RaiseSite]]] = {}
        self._run()

    # ------------------------------------------------------------------
    # Exception identity and subtyping
    # ------------------------------------------------------------------
    def resolve_exception(
        self, table: ModuleTable, node: ast.expr
    ) -> str | None:
        """Exception id for a ``raise``/``except`` expression.

        Returns a project class qualname, a ``builtins.*`` name, or
        ``None`` when the expression does not resolve to either.
        """
        if isinstance(node, ast.Call):
            node = node.func
        dotted = dotted_name(node)
        if dotted is None:
            return None
        canonical = self.graph.canonical_name(table, dotted)
        if canonical in self.graph.classes:
            return canonical
        if "." not in dotted:
            return builtin_exception(dotted)
        return None

    def ancestors(self, exception: str) -> list[str]:
        """Superclass chain of an exception id, itself excluded."""
        chain: list[str] = []
        if exception.startswith(_BUILTIN_PREFIX):
            current: str | None = exception[len(_BUILTIN_PREFIX):]
            current = _BUILTIN_PARENTS.get(current or "")
            while current is not None:
                chain.append(_BUILTIN_PREFIX + current)
                current = _BUILTIN_PARENTS[current]
            return chain
        seen = {exception}
        stack = [exception]
        while stack:
            cls_info = self.graph.classes.get(stack.pop())
            if cls_info is None:
                continue
            for base in cls_info.bases:
                base_id = base
                if base_id not in self.graph.classes:
                    builtin = builtin_exception(base_id.rpartition(".")[2])
                    if builtin is None:
                        continue
                    base_id = builtin
                if base_id in seen:
                    continue
                seen.add(base_id)
                chain.append(base_id)
                if base_id.startswith(_BUILTIN_PREFIX):
                    chain.extend(self.ancestors(base_id))
                else:
                    stack.append(base_id)
        return chain

    def is_subclass_of(self, exception: str, target: str) -> bool:
        return exception == target or target in self.ancestors(exception)

    def derives_from(self, exception: str, class_qualname: str) -> bool:
        """True when the exception id is ``class_qualname`` or a
        (project-) subclass of it."""
        return self.is_subclass_of(exception, class_qualname)

    # ------------------------------------------------------------------
    # Per-function collection
    # ------------------------------------------------------------------
    def _handler_types(
        self, table: ModuleTable, handler: ast.ExceptHandler
    ) -> list[str]:
        if handler.type is None:
            return [_CATCH_ALL]
        type_nodes: list[ast.expr]
        if isinstance(handler.type, ast.Tuple):
            type_nodes = list(handler.type.elts)
        else:
            type_nodes = [handler.type]
        resolved: list[str] = []
        for type_node in type_nodes:
            exception = self.resolve_exception(table, type_node)
            if exception is None:
                # A handler we cannot read must be assumed to catch
                # everything: better to miss an escape than to flag a
                # handled one.
                return [_CATCH_ALL]
            resolved.append(exception)
        return resolved

    def _caught_by(
        self, exception: str, active: tuple[tuple[str, ...], ...]
    ) -> bool:
        for clause in active:
            for handler_type in clause:
                if handler_type == _CATCH_ALL:
                    return True
                if self.is_subclass_of(exception, handler_type):
                    return True
        return False

    def _sites(
        self, qualname: str
    ) -> Iterator[tuple[ast.stmt | ast.expr, tuple[tuple[str, ...], ...]]]:
        """Every Raise statement and Call expression in a function
        body, paired with the handler clauses guarding it."""
        func = self.graph.functions[qualname]
        table = func.module

        def visit(
            stmts: list[ast.stmt], active: tuple[tuple[str, ...], ...]
        ) -> Iterator[
            tuple[ast.stmt | ast.expr, tuple[tuple[str, ...], ...]]
        ]:
            for stmt in stmts:
                if isinstance(stmt, ast.Try):
                    clauses = tuple(
                        tuple(self._handler_types(table, h))
                        for h in stmt.handlers
                    )
                    yield from visit(stmt.body, active + clauses)
                    for handler in stmt.handlers:
                        yield from visit(handler.body, active)
                    # else-clause exceptions are NOT caught by the
                    # handlers of the same try statement.
                    yield from visit(stmt.orelse, active)
                    yield from visit(stmt.finalbody, active)
                elif isinstance(
                    stmt, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    yield from visit(stmt.body, active)
                elif isinstance(stmt, ast.ClassDef):
                    continue
                elif isinstance(stmt, (ast.If, ast.While)):
                    yield from self._expr_sites(stmt.test, active)
                    yield from visit(stmt.body, active)
                    yield from visit(stmt.orelse, active)
                elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                    yield from self._expr_sites(stmt.iter, active)
                    yield from visit(stmt.body, active)
                    yield from visit(stmt.orelse, active)
                elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                    for item in stmt.items:
                        yield from self._expr_sites(
                            item.context_expr, active
                        )
                    yield from visit(stmt.body, active)
                elif isinstance(stmt, ast.Raise):
                    if stmt.exc is not None:
                        yield from self._expr_sites(stmt.exc, active)
                    yield stmt, active
                else:
                    for child in ast.iter_child_nodes(stmt):
                        if isinstance(child, ast.expr):
                            yield from self._expr_sites(child, active)

        yield from visit(func.node.body, ())

    @staticmethod
    def _expr_sites(
        expr: ast.expr, active: tuple[tuple[str, ...], ...]
    ) -> Iterator[tuple[ast.expr, tuple[tuple[str, ...], ...]]]:
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                yield node, active

    # ------------------------------------------------------------------
    # Fixpoint
    # ------------------------------------------------------------------
    def _run(self) -> None:
        site_cache = {
            qualname: list(self._sites(qualname))
            for qualname in sorted(self.graph.functions)
        }
        call_map: dict[str, dict[int, list[str]]] = {}
        for qualname in sorted(self.graph.functions):
            by_node: dict[int, list[str]] = {}
            for site in self.graph.calls_from(qualname):
                by_node.setdefault(id(site.node), []).append(site.callee)
            call_map[qualname] = by_node

        escapes: dict[str, dict[str, set[RaiseSite]]] = {
            qualname: {} for qualname in site_cache
        }

        # Seed with local raises.
        for qualname, sites in sorted(site_cache.items()):
            func = self.graph.functions[qualname]
            table = func.module
            for node, active in sites:
                if not isinstance(node, ast.Raise) or node.exc is None:
                    continue
                exception = self.resolve_exception(table, node.exc)
                if exception is None:
                    continue
                if self._caught_by(exception, active):
                    continue
                origin = RaiseSite(
                    path=str(table.info.path),
                    line=node.lineno,
                    col=node.col_offset,
                    exception=exception,
                )
                escapes[qualname].setdefault(exception, set()).add(origin)

        # Propagate caller-ward until stable.
        for _ in range(_MAX_ROUNDS):
            changed = False
            for qualname, sites in sorted(site_cache.items()):
                by_node = call_map[qualname]
                out = escapes[qualname]
                for node, active in sites:
                    if not isinstance(node, ast.Call):
                        continue
                    for callee in by_node.get(id(node), ()):
                        for exception, origins in sorted(
                            escapes.get(callee, {}).items()
                        ):
                            if self._caught_by(exception, active):
                                continue
                            bucket = out.setdefault(exception, set())
                            if not origins <= bucket:
                                bucket.update(origins)
                                changed = True
            if not changed:
                break

        self.escapes = {
            qualname: {
                exception: frozenset(origins)
                for exception, origins in per_func.items()
            }
            for qualname, per_func in escapes.items()
        }

    # ------------------------------------------------------------------
    def escaping(self, qualname: str) -> dict[str, frozenset[RaiseSite]]:
        """Exception id -> origin sites escaping ``qualname``."""
        return self.escapes.get(qualname, {})
