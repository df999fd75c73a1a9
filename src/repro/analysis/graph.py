"""Whole-program project model: symbols, imports, calls, values.

The per-module rules (R001–R006) see one tree at a time; the R100
series needs to see the *program* — which function calls which, what a
``self.`` attribute holds, what the composition root registered into a
module-level factory slot.  :class:`ProjectGraph` builds exactly that
from the already-parsed :class:`~repro.analysis.runner.ModuleInfo`
objects, with no imports executed: everything is recovered statically
from the ASTs, so linting a tree can never run its code (and the
``analysis`` layer keeps its no-dependency footprint, rule R002).

The model is a deliberately coarse abstract interpretation:

* every expression evaluates to a set of **values** — ``("module", q)``,
  ``("class", q)``, ``("func", q)`` or ``("instance", q)`` tuples with
  dotted qualnames — and anything unresolvable evaluates to the empty
  set (analyses must treat "no information" as "no claim");
* containers are transparent: a list/tuple/dict display evaluates to
  the union of its element values and a subscript passes the container
  value through.  That single approximation is what resolves the CLI's
  ``handlers[args.command](args, out)`` dict dispatch;
* assignments through a ``global`` statement inside a function make
  that function a **registrar**: every call site's argument values
  flow into the module-level slot, which is how the factory
  registration in ``repro/__init__.py``
  (``set_default_classifier_factory(RandomForestClassifier)``) becomes
  a resolvable call edge from ``StrudelLineClassifier.fit`` to
  ``RandomForestClassifier.fit``;
* the whole build iterates to a fixpoint (bounded passes) so return
  values, instance-attribute types and registry contents can feed each
  other.

Everything downstream — the raise-propagation analysis in
:mod:`repro.analysis.flow`, the R101 ingest gate, the R104 metric-name
check, the R105 lock discipline — reads this one structure.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.analysis.astutil import dotted_name
from repro.analysis.runner import ModuleInfo

#: A resolved abstract value: ``(kind, qualname)`` where kind is one of
#: ``module`` / ``class`` / ``func`` / ``instance``.  Unknown external
#: symbols stay ``("module", dotted)`` so attribute chains on them keep
#: their textual identity (``("module", "threading.Lock")``).
Value = tuple[str, str]

#: Upper bound on fixpoint passes.  The deepest real chain in this
#: repository (registry -> _default_classifier -> _make_model ->
#: fit-site resolution) converges in four; the bound only guards
#: against pathological inputs.
_MAX_PASSES = 6


@dataclass
class FunctionInfo:
    """One function or method: where it lives and what we learned."""

    qualname: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    module: "ModuleTable"
    cls: "ClassInfo | None" = None
    #: Module-level qualname of the global this function assigns its
    #: own parameter into (the registrar pattern), or ``None``.
    registrar_for: str | None = None

    @property
    def name(self) -> str:
        return self.node.name

    def is_method(self) -> bool:
        return self.cls is not None

    def decorator_names(self) -> list[str]:
        names = []
        for dec in self.node.decorator_list:
            dotted = dotted_name(dec.func if isinstance(dec, ast.Call) else dec)
            if dotted:
                names.append(dotted)
        return names


@dataclass
class ClassInfo:
    """One class: methods, declared bases, inferred attribute values."""

    qualname: str
    node: ast.ClassDef
    module: "ModuleTable"
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    #: Canonical dotted names of the declared bases (project classes
    #: resolve to their qualnames; externals keep their spelling).
    bases: list[str] = field(default_factory=list)
    #: ``self.attr`` -> values ever assigned to it (grown monotonically
    #: across fixpoint passes; includes dataclass field annotations).
    attr_values: dict[str, set[Value]] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.node.name


@dataclass
class ModuleTable:
    """Per-module symbol table derived from one parsed file."""

    info: ModuleInfo
    name: str
    #: Local name -> dotted import target (``from x import y as z``
    #: binds ``z -> x.y``; ``import a.b`` binds ``a -> a``).
    imports: dict[str, str] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    #: Module-level simple assignments, abstractly evaluated
    #: (``_METRICS = Metrics()`` -> ``{("instance", …Metrics)}``).
    module_values: dict[str, set[Value]] = field(default_factory=dict)


@dataclass(frozen=True)
class CallSite:
    """One resolved call edge, anchored at its AST node."""

    caller: str
    callee: str
    node: ast.Call

    @property
    def line(self) -> int:
        return self.node.lineno


@dataclass(frozen=True)
class Instantiation:
    """One resolved ``SomeClass(...)`` construction site."""

    caller: str
    class_qualname: str
    node: ast.Call

    @property
    def line(self) -> int:
        return self.node.lineno


class ProjectGraph:
    """The whole-program model over a set of parsed modules.

    Build with :meth:`build`; query ``modules`` / ``functions`` /
    ``classes`` / ``calls_from`` / ``instantiations_in`` /
    ``reachable_from``.  All containers are keyed by dotted qualname
    and iterate deterministically (sorted keys) so analyses built on
    top produce stable finding orders.
    """

    def __init__(self) -> None:
        self.modules: dict[str, ModuleTable] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        #: Module-global qualname -> values registered into it through
        #: registrar functions (monotone across passes).
        self.registries: dict[str, set[Value]] = {}
        self.return_values: dict[str, frozenset[Value]] = {}
        self._calls: dict[str, list[CallSite]] = {}
        self._instantiations: dict[str, list[Instantiation]] = {}
        self._envs: dict[str, dict[str, frozenset[Value]]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, modules: Iterable[ModuleInfo]) -> "ProjectGraph":
        graph = cls()
        for info in sorted(modules, key=lambda m: m.module):
            # Last table wins on duplicate dotted names (ad-hoc
            # fixtures sharing a stem); real trees have unique names.
            graph.modules[info.module] = graph._build_table(info)
        graph._index_symbols()
        graph._resolve_bases()
        graph._detect_registrars()
        graph._run_fixpoint()
        return graph

    def _build_table(self, info: ModuleInfo) -> ModuleTable:
        table = ModuleTable(info=info, name=info.module)
        for stmt in info.tree.body:
            self._collect_stmt(table, stmt)
        return table

    def _collect_stmt(self, table: ModuleTable, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            self._collect_import(table, stmt)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qual = f"{table.name}.{stmt.name}"
            table.functions[stmt.name] = FunctionInfo(
                qualname=qual, node=stmt, module=table
            )
        elif isinstance(stmt, ast.ClassDef):
            qual = f"{table.name}.{stmt.name}"
            cls_info = ClassInfo(qualname=qual, node=stmt, module=table)
            for body_stmt in stmt.body:
                if isinstance(
                    body_stmt, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    cls_info.methods[body_stmt.name] = FunctionInfo(
                        qualname=f"{qual}.{body_stmt.name}",
                        node=body_stmt,
                        module=table,
                        cls=cls_info,
                    )
            table.classes[stmt.name] = cls_info
        elif isinstance(stmt, (ast.If, ast.Try)):
            # TYPE_CHECKING guards, conditional imports.
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.stmt):
                    self._collect_stmt(table, child)

    @staticmethod
    def _collect_import(
        table: ModuleTable, stmt: ast.Import | ast.ImportFrom
    ) -> None:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                if alias.asname:
                    table.imports[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    table.imports[root] = root
            return
        base = stmt.module or ""
        if stmt.level:
            parts = table.name.split(".")
            anchor = parts[: max(len(parts) - stmt.level, 0)]
            prefix = ".".join(anchor)
            base = f"{prefix}.{base}" if base and prefix else (prefix or base)
        for alias in stmt.names:
            if alias.name == "*":
                continue
            local = alias.asname or alias.name
            table.imports[local] = f"{base}.{alias.name}" if base else alias.name

    def _index_symbols(self) -> None:
        for name in sorted(self.modules):
            table = self.modules[name]
            for func in table.functions.values():
                self.functions[func.qualname] = func
            for cls_info in table.classes.values():
                self.classes[cls_info.qualname] = cls_info
                for method in cls_info.methods.values():
                    self.functions[method.qualname] = method

    def _resolve_bases(self) -> None:
        for qual in sorted(self.classes):
            cls_info = self.classes[qual]
            for base in cls_info.node.bases:
                dotted = dotted_name(base)
                if dotted is None:
                    continue
                cls_info.bases.append(
                    self.canonical_name(cls_info.module, dotted)
                )

    def _detect_registrars(self) -> None:
        """Mark functions that assign a parameter into a module global."""
        for qual in sorted(self.functions):
            func = self.functions[qual]
            if func.is_method():
                continue
            globals_declared: set[str] = set()
            for stmt in ast.walk(func.node):
                if isinstance(stmt, ast.Global):
                    globals_declared.update(stmt.names)
            if not globals_declared:
                continue
            params = {a.arg for a in func.node.args.args}
            for stmt in ast.walk(func.node):
                if not isinstance(stmt, ast.Assign):
                    continue
                if not (
                    len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)
                    and stmt.targets[0].id in globals_declared
                    and isinstance(stmt.value, ast.Name)
                    and stmt.value.id in params
                ):
                    continue
                func.registrar_for = (
                    f"{func.module.name}.{stmt.targets[0].id}"
                )
                break

    def _run_fixpoint(self) -> None:
        previous: dict[str, frozenset[Value]] = {}
        for _ in range(_MAX_PASSES):
            self._calls = {}
            self._instantiations = {}
            self._envs = {}
            for name in sorted(self.modules):
                table = self.modules[name]
                evaluator = _Evaluator(self, table, func=None)
                evaluator.exec_block(table.info.tree.body)
            returns: dict[str, frozenset[Value]] = {}
            for qual in sorted(self.functions):
                func = self.functions[qual]
                evaluator = _Evaluator(self, func.module, func=func)
                returns[qual] = evaluator.run_function()
                self._envs[qual] = {
                    name: frozenset(vals)
                    for name, vals in evaluator.env.items()
                }
            self.return_values = returns
            if returns == previous:
                break
            previous = returns

    # ------------------------------------------------------------------
    # Name resolution
    # ------------------------------------------------------------------
    def canonical_name(
        self, table: ModuleTable, dotted: str, _seen: frozenset[str] = frozenset()
    ) -> str:
        """Follow import aliases to a canonical dotted name.

        ``get_metrics`` spelled in ``repro.perf.pool`` canonicalizes
        to ``repro.obs.metrics.get_metrics`` (through the ``repro.obs``
        re-export); external names keep their spelling
        (``threading.Lock``).
        """
        head, _, rest = dotted.partition(".")
        if head in table.functions or head in table.classes:
            dotted = f"{table.name}.{dotted}"
        elif head in table.imports:
            target = table.imports[head]
            dotted = f"{target}.{rest}" if rest else target
        return self._canonical_dotted(dotted, _seen)

    def _canonical_dotted(self, dotted: str, seen: frozenset[str]) -> str:
        if dotted in seen:
            return dotted
        parts = dotted.split(".")
        for i in range(len(parts) - 1, 0, -1):
            prefix = ".".join(parts[:i])
            if prefix not in self.modules:
                continue
            table = self.modules[prefix]
            member, rest = parts[i], parts[i + 1:]
            if member in table.functions or member in table.classes:
                return ".".join([prefix, member] + rest)
            if member in table.imports:
                target = table.imports[member]
                return self._canonical_dotted(
                    ".".join([target] + rest), seen | {dotted}
                )
            return dotted
        return dotted

    def values_for(self, canonical: str) -> frozenset[Value]:
        """Abstract values behind a canonical dotted name."""
        if canonical in self.modules:
            return frozenset({("module", canonical)})
        if canonical in self.classes:
            return frozenset({("class", canonical)})
        if canonical in self.functions:
            return frozenset({("func", canonical)})
        prefix, _, last = canonical.rpartition(".")
        values: set[Value] = set()
        if prefix in self.modules:
            values.update(self.modules[prefix].module_values.get(last, ()))
            values.update(self.registries.get(canonical, ()))
            if values:
                return frozenset(values)
        if prefix in self.classes:
            method = self.classes[prefix].methods.get(last)
            if method is not None:
                return frozenset({("func", method.qualname)})
        # Opaque external symbol: keep the dotted chain alive.
        return frozenset({("module", canonical)})

    def resolve_origin(self, table: ModuleTable, node: ast.AST) -> str | None:
        """Canonical dotted name of a Name/Attribute chain, or None."""
        dotted = dotted_name(node)
        if dotted is None:
            return None
        return self.canonical_name(table, dotted)

    def class_ancestry(self, qualname: str) -> Iterator[str]:
        """The project-class ancestor chain (canonical names), with
        external/builtin base names included as leaves."""
        seen: set[str] = set()
        stack = [qualname]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            yield current
            cls_info = self.classes.get(current)
            if cls_info is not None:
                stack.extend(reversed(cls_info.bases))

    def method_on(self, class_qual: str, attr: str) -> FunctionInfo | None:
        """Resolve ``attr`` as a method on ``class_qual`` or its bases."""
        for ancestor in self.class_ancestry(class_qual):
            cls_info = self.classes.get(ancestor)
            if cls_info is not None and attr in cls_info.methods:
                return cls_info.methods[attr]
        return None

    def attr_values_on(self, class_qual: str, attr: str) -> frozenset[Value]:
        """Inferred values of an instance attribute, bases included."""
        values: set[Value] = set()
        for ancestor in self.class_ancestry(class_qual):
            cls_info = self.classes.get(ancestor)
            if cls_info is not None:
                values.update(cls_info.attr_values.get(attr, ()))
        return frozenset(values)

    # ------------------------------------------------------------------
    # Query API
    # ------------------------------------------------------------------
    def calls_from(self, qualname: str) -> list[CallSite]:
        return self._calls.get(qualname, [])

    def instantiations_in(self, qualname: str) -> list[Instantiation]:
        return self._instantiations.get(qualname, [])

    def env_of(self, qualname: str) -> dict[str, frozenset[Value]]:
        """The final abstract local environment of one function."""
        return self._envs.get(qualname, {})

    def eval_in(self, qualname: str, node: ast.expr) -> frozenset[Value]:
        """Re-evaluate one expression in a function's final environment
        (read-only: records no new edges)."""
        func = self.functions.get(qualname)
        if func is None:
            return frozenset()
        evaluator = _Evaluator(self, func.module, func=func, record=False)
        evaluator.env = {
            name: set(vals) for name, vals in self.env_of(qualname).items()
        }
        evaluator.bind_parameters()
        return frozenset(evaluator.eval(node))

    def reachable_from(
        self, qualname: str, skip_module_prefixes: tuple[str, ...] = ()
    ) -> list[str]:
        """Functions reachable from ``qualname`` over call edges.

        Traversal never descends *into* a function whose module matches
        one of ``skip_module_prefixes`` (the function itself is listed,
        its callees are not) — R101 uses this to treat ``io.ingest`` as
        an opaque, trusted boundary.
        """
        seen: set[str] = set()
        stack = [qualname]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            func = self.functions.get(current)
            if func is not None and any(
                func.module.name == p or func.module.name.startswith(p + ".")
                for p in skip_module_prefixes
            ):
                continue
            for site in self.calls_from(current):
                if site.callee not in seen:
                    stack.append(site.callee)
        return sorted(seen)

    def record_call(self, caller: str, callee: str, node: ast.Call) -> None:
        self._calls.setdefault(caller, []).append(
            CallSite(caller=caller, callee=callee, node=node)
        )

    def record_instantiation(
        self, caller: str, class_qual: str, node: ast.Call
    ) -> None:
        self._instantiations.setdefault(caller, []).append(
            Instantiation(caller=caller, class_qualname=class_qual, node=node)
        )


_MODULE_CALLER_SUFFIX = ".<module>"


class _Evaluator:
    """Abstract interpreter for one function body (or module body).

    Evaluates expressions to sets of :data:`Value`, binding simple
    assignments into a flow-insensitive local environment, recording
    call and instantiation edges on the graph as a side effect.
    """

    def __init__(
        self,
        graph: ProjectGraph,
        table: ModuleTable,
        func: FunctionInfo | None,
        record: bool = True,
    ) -> None:
        self.graph = graph
        self.table = table
        self.func = func
        self.record = record
        self.env: dict[str, set[Value]] = {}
        self.returns: set[Value] = set()
        self._nested_depth = 0
        if func is None:
            self.caller = table.name + _MODULE_CALLER_SUFFIX
        else:
            self.caller = func.qualname

    # ------------------------------------------------------------------
    def run_function(self) -> frozenset[Value]:
        assert self.func is not None
        self.bind_parameters()
        self.exec_block(self.func.node.body)
        node = self.func.node
        if node.returns is not None:
            self.returns.update(self.eval_annotation(node.returns))
        return frozenset(self.returns)

    def bind_parameters(self) -> None:
        if self.func is None:
            return
        node = self.func.node
        decorators = self.func.decorator_names()
        args = list(node.args.posonlyargs) + list(node.args.args)
        if self.func.is_method() and args and "staticmethod" not in decorators:
            first = args[0]
            assert self.func.cls is not None
            if "classmethod" in decorators:
                kind = "class"
            else:
                kind = "instance"
            self.env.setdefault(first.arg, set()).add(
                (kind, self.func.cls.qualname)
            )
            args = args[1:]
        for arg in args + list(node.args.kwonlyargs):
            if arg.annotation is not None:
                self.env.setdefault(arg.arg, set()).update(
                    self.eval_annotation(arg.annotation)
                )

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def exec_block(self, stmts: list[ast.stmt]) -> None:
        for stmt in stmts:
            self.exec_stmt(stmt)

    def exec_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            values = self.eval(stmt.value)
            for target in stmt.targets:
                self.assign(target, values)
        elif isinstance(stmt, ast.AnnAssign):
            values: set[Value] = set()
            if stmt.value is not None:
                values |= self.eval(stmt.value)
            values |= self.eval_annotation(stmt.annotation)
            self.assign(stmt.target, values)
        elif isinstance(stmt, ast.AugAssign):
            self.eval(stmt.value)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                values = self.eval(stmt.value)
                if self._nested_depth == 0:
                    self.returns |= values
        elif isinstance(stmt, ast.Expr):
            self.eval(stmt.value)
        elif isinstance(stmt, (ast.If, ast.While)):
            self.eval(stmt.test)
            self.exec_block(stmt.body)
            self.exec_block(stmt.orelse)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            iter_values = self.eval(stmt.iter)
            # Transparent containers: binding the loop target to the
            # iterable's element union resolves `for b in [A(), B()]`.
            self.assign(stmt.target, iter_values)
            self.exec_block(stmt.body)
            self.exec_block(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                context = self.eval(item.context_expr)
                if item.optional_vars is not None:
                    self.assign(item.optional_vars, context)
            self.exec_block(stmt.body)
        elif isinstance(stmt, ast.Try):
            self.exec_block(stmt.body)
            for handler in stmt.handlers:
                if handler.type is not None:
                    self.eval(handler.type)
                self.exec_block(handler.body)
            self.exec_block(stmt.orelse)
            self.exec_block(stmt.finalbody)
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self.eval(stmt.exc)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested defs: their calls execute (eventually) on behalf
            # of the enclosing function; returns are not ours.
            self._nested_depth += 1
            self.exec_block(stmt.body)
            self._nested_depth -= 1
        elif isinstance(stmt, ast.ClassDef):
            pass  # nested classes are out of model
        elif isinstance(stmt, (ast.Delete, ast.Assert)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self.eval(child)

    def assign(self, target: ast.expr, values: set[Value]) -> None:
        if isinstance(target, ast.Name):
            if self.func is None:
                self.table.module_values.setdefault(
                    target.id, set()
                ).update(values)
            else:
                self.env.setdefault(target.id, set()).update(values)
        elif isinstance(target, ast.Attribute):
            # `self.attr = …` inside a method feeds the class model.
            if (
                self.func is not None
                and self.func.cls is not None
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                self.func.cls.attr_values.setdefault(
                    target.attr, set()
                ).update(v for v in values if v[0] == "instance")
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self.assign(element, values)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def eval(self, node: ast.expr) -> set[Value]:
        if isinstance(node, ast.Name):
            return self.eval_name(node.id)
        if isinstance(node, ast.Attribute):
            return self.eval_attribute(node)
        if isinstance(node, ast.Call):
            return self.eval_call(node)
        if isinstance(node, ast.BoolOp):
            values: set[Value] = set()
            for operand in node.values:
                values |= self.eval(operand)
            return values
        if isinstance(node, ast.IfExp):
            self.eval(node.test)
            return self.eval(node.body) | self.eval(node.orelse)
        if isinstance(node, ast.NamedExpr):
            values = self.eval(node.value)
            self.assign(node.target, values)
            return values
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            values = set()
            for element in node.elts:
                values |= self.eval(element)
            return values
        if isinstance(node, ast.Dict):
            values = set()
            for key in node.keys:
                if key is not None:
                    self.eval(key)
            for value in node.values:
                values |= self.eval(value)
            return values
        if isinstance(node, ast.Subscript):
            self.eval(node.slice)
            # Transparent containers: d[k] has the container's values.
            return self.eval(node.value)
        if isinstance(node, ast.Starred):
            return self.eval(node.value)
        if isinstance(node, ast.Await):
            return self.eval(node.value)
        if isinstance(
            node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)
        ):
            for generator in node.generators:
                self.assign(generator.target, self.eval(generator.iter))
                for condition in generator.ifs:
                    self.eval(condition)
            return self.eval(node.elt)
        if isinstance(node, ast.DictComp):
            for generator in node.generators:
                self.assign(generator.target, self.eval(generator.iter))
                for condition in generator.ifs:
                    self.eval(condition)
            self.eval(node.key)
            return self.eval(node.value)
        if isinstance(node, ast.Lambda):
            self._nested_depth += 1
            self.eval(node.body)
            self._nested_depth -= 1
            return set()
        # Constants, operators, f-strings, comparisons: evaluate the
        # children for their side effects (call edges), yield nothing.
        values = set()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self.eval(child)
        return set()

    def eval_name(self, name: str) -> set[Value]:
        if name in self.env:
            return set(self.env[name])
        table = self.table
        if name in table.functions:
            return {("func", table.functions[name].qualname)}
        if name in table.classes:
            return {("class", table.classes[name].qualname)}
        if name in table.imports:
            canonical = self.graph.canonical_name(table, name)
            return set(self.graph.values_for(canonical))
        values: set[Value] = set(table.module_values.get(name, ()))
        values |= self.graph.registries.get(f"{table.name}.{name}", set())
        return values

    def eval_attribute(self, node: ast.Attribute) -> set[Value]:
        base_values = self.eval(node.value)
        values: set[Value] = set()
        for value in base_values:
            values |= self.attr_lookup(value, node.attr)
        return values

    def attr_lookup(self, value: Value, attr: str) -> set[Value]:
        kind, qual = value
        if kind == "module":
            if qual in self.graph.modules:
                canonical = self.graph._canonical_dotted(
                    f"{qual}.{attr}", frozenset()
                )
                return set(self.graph.values_for(canonical))
            return {("module", f"{qual}.{attr}")}
        if kind in ("instance", "class"):
            method = self.graph.method_on(qual, attr)
            if method is not None:
                return {("func", method.qualname)}
            if kind == "instance":
                return set(self.graph.attr_values_on(qual, attr))
        return set()

    def eval_call(self, node: ast.Call) -> set[Value]:
        func_values = self.eval(node.func)
        arg_values: list[set[Value]] = []
        for arg in node.args:
            arg_values.append(self.eval(arg))
        for keyword in node.keywords:
            self.eval(keyword.value)
        results: set[Value] = set()
        for value in sorted(func_values):
            kind, qual = value
            if kind == "class" and qual in self.graph.classes:
                if self.record:
                    self.graph.record_instantiation(self.caller, qual, node)
                    init = self.graph.method_on(qual, "__init__")
                    if init is not None:
                        self.graph.record_call(
                            self.caller, init.qualname, node
                        )
                results.add(("instance", qual))
            elif kind == "func":
                func = self.graph.functions.get(qual)
                if func is None:
                    continue
                if self.record:
                    self.graph.record_call(self.caller, qual, node)
                if func.registrar_for is not None and arg_values:
                    self.graph.registries.setdefault(
                        func.registrar_for, set()
                    ).update(arg_values[0])
                results |= set(self.graph.return_values.get(qual, ()))
        return results

    # ------------------------------------------------------------------
    def eval_annotation(self, node: ast.expr) -> set[Value]:
        """Instance values implied by a type annotation.

        Handles ``X``, ``mod.X``, ``X | None``, ``Optional[X]`` and
        string annotations; container types (``list[X]``, ``dict`` …)
        deliberately yield nothing — a list of X is not an X.
        """
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                return set()
            return self.eval_annotation(parsed)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            return self.eval_annotation(node.left) | self.eval_annotation(
                node.right
            )
        if isinstance(node, ast.Subscript):
            base = dotted_name(node.value)
            if base in ("Optional", "typing.Optional"):
                return self.eval_annotation(node.slice)
            return set()
        if isinstance(node, (ast.Name, ast.Attribute)):
            canonical = self.graph.resolve_origin(self.table, node)
            if canonical is None:
                return set()
            values = set()
            for value in self.graph.values_for(canonical):
                if value[0] == "class" and value[1] in self.graph.classes:
                    values.add(("instance", value[1]))
            return values
        return set()
