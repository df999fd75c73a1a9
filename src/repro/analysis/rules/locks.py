"""R105 — attributes guarded by a lock anywhere are guarded everywhere.

The concurrency story (``SweepCache``, the tracer, the metrics
registry) is half-locked by construction: a class creates a
``threading.Lock``/``RLock`` in ``__init__`` and wraps *most* state
mutations in ``with self._lock``.  The failure mode is the forgotten
site — a later PR adds a ``reset()`` that clears the dict without the
lock, and the race it opens is invisible to every single-threaded
test.  This rule derives the guarded set *from the code itself*: any
``self.X`` mutated at least once under ``with self.<lock>`` is lock-
protected state, and every other mutation of ``X`` in the class must
either hold the lock or live in a **lock-safe helper** — an
underscore-named method whose every call site inside the class holds
the lock (say, a ``_trim`` called only inside ``with self._lock``).
``__init__`` is exempt: before ``__init__`` returns no second thread
can hold ``self``.

Mutations counted: assignment / augmented assignment / ``del`` through
``self.X`` (including subscripts and nested attributes, which mutate
the object held by ``X``), and calls to known mutator methods
(``.append`` / ``.update`` / ``.pop`` / …) on ``self.X``.  Reads are
deliberately out of scope — unlocked reads are a policy choice the
tracer makes on purpose.

**Module-level state** gets the same treatment (PR 9): a module that
creates a top-level ``threading.Lock()`` and mutates a module global
under ``with _LOCK:`` somewhere has declared that global shared
state, and every other mutation of it — from any function or method
in the module — must hold the lock or live in a lock-safe
underscore-named top-level helper.  There is no ``__init__``
exemption at module level: a registry like ``pool._LIVE_POOLS`` is
visible to every thread from import time, so even a constructor's
``.add`` must lock.  Module import itself (the top-level assignments
that create the state) is naturally exempt — only function bodies are
scanned.  A function that binds the same name as a plain local (no
``global`` declaration) shadows the global, and its mutations are
ignored.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.findings import Finding
from repro.analysis.graph import ClassInfo, ModuleTable, ProjectGraph
from repro.analysis.registry import ProjectRule, register

_LOCK_TYPES = frozenset({"threading.Lock", "threading.RLock"})

#: Method names that mutate their receiver in place.
_MUTATORS = frozenset({
    "append", "extend", "insert", "remove", "pop", "popitem",
    "clear", "update", "setdefault", "add", "discard",
    "move_to_end", "sort", "reverse",
})


def _name_root(node: ast.expr) -> str | None:
    """The ``X`` in an ``X``-rooted chain (``X``, ``X[k]``,
    ``X.field[k]``), else ``None``."""
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _self_attr_root(node: ast.expr) -> str | None:
    """The ``X`` in a ``self.X``-rooted chain, else ``None``.

    Peels subscripts and attribute accesses: ``self.X[k]``,
    ``self.X.field`` and ``self.X[k].field`` all root at ``X``.
    """
    while True:
        if isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                return node.attr
            node = node.value
        else:
            return None


@register
class LockDisciplineRule(ProjectRule):
    rule_id = "R105"
    title = "lock-guarded attribute mutated without the lock"
    rationale = (
        "A class that wraps some mutations of an attribute in `with "
        "self._lock` has declared that attribute shared state; one "
        "unlocked mutation site reopens the race, and single-threaded "
        "tests cannot catch it."
    )

    def check_project(self, project: ProjectGraph) -> Iterator[Finding]:
        for qualname in sorted(project.classes):
            cls = project.classes[qualname]
            locks = self._lock_attrs(project, cls)
            if not locks:
                continue
            yield from self._check_class(cls, locks)
        for name in sorted(project.modules):
            table = project.modules[name]
            locks = self._module_locks(project, table)
            if not locks:
                continue
            yield from self._check_module(table, locks)

    # ------------------------------------------------------------------
    @staticmethod
    def _lock_attrs(project: ProjectGraph, cls: ClassInfo) -> frozenset[str]:
        """Attributes assigned a ``threading.Lock()``/``RLock()``."""
        attrs: set[str] = set()
        for name in sorted(cls.methods):
            method = cls.methods[name]
            for node in ast.walk(method.node):
                if not (
                    isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Attribute)
                    and isinstance(node.targets[0].value, ast.Name)
                    and node.targets[0].value.id == "self"
                    and isinstance(node.value, ast.Call)
                ):
                    continue
                origin = project.resolve_origin(
                    cls.module, node.value.func
                )
                if origin in _LOCK_TYPES:
                    attrs.add(node.targets[0].attr)
        return frozenset(attrs)

    def _check_class(
        self, cls: ClassInfo, locks: frozenset[str]
    ) -> Iterator[Finding]:
        # (method, attr, node, directly_under_lock) for every mutation;
        # (caller_method, callee_method, under_lock) for self-calls.
        mutations: list[tuple[str, str, ast.AST, bool]] = []
        self_calls: list[tuple[str, str, bool]] = []
        for name in sorted(cls.methods):
            if name == "__init__":
                continue
            method = cls.methods[name]
            self._scan(
                name, method.node.body, locks, False,
                mutations, self_calls,
            )

        # Lock-safe helpers: underscore-named methods whose every
        # in-class call site holds the lock (directly, or from another
        # lock-safe helper).  Iterated to a fixpoint.
        callers: dict[str, list[tuple[str, bool]]] = {}
        for caller, callee, locked in self_calls:
            callers.setdefault(callee, []).append((caller, locked))
        lock_safe: set[str] = set()
        changed = True
        while changed:
            changed = False
            for name in sorted(cls.methods):
                if (
                    name in lock_safe
                    or not name.startswith("_")
                    or name.startswith("__")
                ):
                    continue
                sites = callers.get(name, [])
                if sites and all(
                    locked or caller in lock_safe
                    for caller, locked in sites
                ):
                    lock_safe.add(name)
                    changed = True

        guarded: set[str] = set()
        for _, attr, _, locked in mutations:
            if attr in locks:
                continue  # re-binding the lock itself is not state
            if locked:
                guarded.add(attr)
        if not guarded:
            return
        for method, attr, node, locked in mutations:
            if attr not in guarded or locked or method in lock_safe:
                continue
            yield self.project_finding(
                str(cls.module.info.path),
                node.lineno,
                getattr(node, "col_offset", 0),
                f"self.{attr} is mutated under the lock elsewhere in "
                f"{cls.name} but mutated here without holding it; "
                "wrap this in `with self."
                f"{sorted(locks)[0]}` or move it into a lock-safe "
                "helper",
            )

    # ------------------------------------------------------------------
    def _scan(
        self,
        method: str,
        stmts: list[ast.stmt],
        locks: frozenset[str],
        under_lock: bool,
        mutations: list[tuple[str, str, ast.AST, bool]],
        self_calls: list[tuple[str, str, bool]],
    ) -> None:
        for stmt in stmts:
            self._scan_stmt(
                method, stmt, locks, under_lock, mutations, self_calls
            )

    def _scan_stmt(
        self,
        method: str,
        stmt: ast.stmt,
        locks: frozenset[str],
        under_lock: bool,
        mutations: list[tuple[str, str, ast.AST, bool]],
        self_calls: list[tuple[str, str, bool]],
    ) -> None:
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            acquires = any(
                isinstance(item.context_expr, ast.Attribute)
                and isinstance(item.context_expr.value, ast.Name)
                and item.context_expr.value.id == "self"
                and item.context_expr.attr in locks
                for item in stmt.items
            )
            for item in stmt.items:
                self._scan_expr(
                    method, item.context_expr, locks, under_lock,
                    mutations, self_calls,
                )
            self._scan(
                method, stmt.body, locks, under_lock or acquires,
                mutations, self_calls,
            )
            return
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                self._record_target(
                    method, target, stmt, under_lock, mutations
                )
            self._scan_expr(
                method, stmt.value, locks, under_lock,
                mutations, self_calls,
            )
            return
        if isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
            self._record_target(
                method, stmt.target, stmt, under_lock, mutations
            )
            if stmt.value is not None:
                self._scan_expr(
                    method, stmt.value, locks, under_lock,
                    mutations, self_calls,
                )
            return
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                self._record_target(
                    method, target, stmt, under_lock, mutations
                )
            return
        # Generic statement: recurse into child statements with the
        # same lock state, and scan embedded expressions.
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                self._scan_stmt(
                    method, child, locks, under_lock,
                    mutations, self_calls,
                )
            elif isinstance(child, ast.expr):
                self._scan_expr(
                    method, child, locks, under_lock,
                    mutations, self_calls,
                )
            elif isinstance(child, (ast.excepthandler, ast.withitem)):
                for grand in ast.iter_child_nodes(child):
                    if isinstance(grand, ast.stmt):
                        self._scan_stmt(
                            method, grand, locks, under_lock,
                            mutations, self_calls,
                        )
                    elif isinstance(grand, ast.expr):
                        self._scan_expr(
                            method, grand, locks, under_lock,
                            mutations, self_calls,
                        )

    def _scan_expr(
        self,
        method: str,
        expr: ast.expr,
        locks: frozenset[str],
        under_lock: bool,
        mutations: list[tuple[str, str, ast.AST, bool]],
        self_calls: list[tuple[str, str, bool]],
    ) -> None:
        for node in ast.walk(expr):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if (
                isinstance(func.value, ast.Name)
                and func.value.id == "self"
            ):
                self_calls.append((method, func.attr, under_lock))
                continue
            if func.attr in _MUTATORS:
                attr = _self_attr_root(func.value)
                if attr is not None:
                    mutations.append((method, attr, node, under_lock))

    @staticmethod
    def _record_target(
        method: str,
        target: ast.expr,
        stmt: ast.stmt,
        under_lock: bool,
        mutations: list[tuple[str, str, ast.AST, bool]],
    ) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                LockDisciplineRule._record_target(
                    method, element, stmt, under_lock, mutations
                )
            return
        attr = _self_attr_root(target)
        if attr is not None:
            mutations.append((method, attr, stmt, under_lock))

    # ------------------------------------------------------------------
    # Module-level pass
    # ------------------------------------------------------------------
    @staticmethod
    def _module_locks(
        project: ProjectGraph, table: ModuleTable
    ) -> frozenset[str]:
        """Top-level names assigned a ``threading.Lock()``/``RLock()``."""
        locks: set[str] = set()
        for stmt in table.info.tree.body:
            if not (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and isinstance(stmt.value, ast.Call)
            ):
                continue
            origin = project.resolve_origin(table, stmt.value.func)
            if origin in _LOCK_TYPES:
                locks.add(stmt.targets[0].id)
        return frozenset(locks)

    @staticmethod
    def _module_names(table: ModuleTable) -> frozenset[str]:
        """Every name assigned at the module's top level."""
        names: set[str] = set()
        for stmt in table.info.tree.body:
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
            elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
                if isinstance(stmt.target, ast.Name):
                    names.add(stmt.target.id)
        return frozenset(names)

    def _check_module(
        self, table: ModuleTable, locks: frozenset[str]
    ) -> Iterator[Finding]:
        module_names = self._module_names(table)
        functions = list(table.functions.values())
        for cls in table.classes.values():
            functions.extend(cls.methods.values())
        mutations: list[tuple[str, str, ast.AST, bool]] = []
        calls: list[tuple[str, str, bool]] = []
        for func in functions:
            self._scan_global_func(
                func.name, func.node, module_names, locks,
                mutations, calls,
            )
        # Lock-safe helpers: underscore top-level functions whose
        # every in-module call site holds a module lock (directly or
        # through another lock-safe helper); same fixpoint as the
        # class pass.
        callers: dict[str, list[tuple[str, bool]]] = {}
        for caller, callee, locked in calls:
            callers.setdefault(callee, []).append((caller, locked))
        lock_safe: set[str] = set()
        changed = True
        while changed:
            changed = False
            for name in sorted(table.functions):
                if name in lock_safe or not name.startswith("_"):
                    continue
                sites = callers.get(name, [])
                if sites and all(
                    locked or caller in lock_safe
                    for caller, locked in sites
                ):
                    lock_safe.add(name)
                    changed = True
        guarded = {
            name
            for _, name, _, locked in mutations
            if locked and name not in locks
        }
        if not guarded:
            return
        for func_name, name, node, locked in mutations:
            if name not in guarded or locked or func_name in lock_safe:
                continue
            yield self.project_finding(
                str(table.info.path),
                node.lineno,
                getattr(node, "col_offset", 0),
                f"module global {name} is mutated under the lock "
                f"elsewhere in {table.name} but mutated here without "
                f"holding it; wrap this in `with "
                f"{sorted(locks)[0]}:` or move it into a lock-safe "
                "helper",
            )

    def _scan_global_func(
        self,
        func_name: str,
        func_node: ast.AST,
        module_names: frozenset[str],
        locks: frozenset[str],
        mutations: list[tuple[str, str, ast.AST, bool]],
        calls: list[tuple[str, str, bool]],
    ) -> None:
        """Scan one function for mutations of module globals.

        A name counts as the module's global inside this function
        unless the function shadows it with a plain local binding
        (no ``global`` declaration).
        """
        declared: set[str] = set()
        local_binds: set[str] = set()
        for node in ast.walk(func_node):
            if isinstance(node, ast.Global):
                declared.update(node.names)
            elif isinstance(node, ast.Name) and isinstance(
                node.ctx, ast.Store
            ):
                local_binds.add(node.id)

        def is_global(name: str) -> bool:
            if name not in module_names:
                return False
            return name in declared or name not in local_binds

        def record(target: ast.expr, stmt: ast.stmt, locked: bool):
            if isinstance(target, (ast.Tuple, ast.List)):
                for element in target.elts:
                    record(element, stmt, locked)
                return
            if isinstance(target, ast.Name):
                # A plain-name rebind is a mutation only when the
                # function declared the name global; otherwise it just
                # creates a shadowing local.
                if target.id in declared and target.id in module_names:
                    mutations.append(
                        (func_name, target.id, stmt, locked)
                    )
                return
            root = _name_root(target)
            if root is not None and is_global(root):
                mutations.append((func_name, root, stmt, locked))

        def scan_expr(expr: ast.expr, locked: bool):
            for node in ast.walk(expr):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if isinstance(func, ast.Name):
                    calls.append((func_name, func.id, locked))
                elif (
                    isinstance(func, ast.Attribute)
                    and func.attr in _MUTATORS
                ):
                    root = _name_root(func.value)
                    if root is not None and is_global(root):
                        mutations.append(
                            (func_name, root, node, locked)
                        )

        def scan_stmt(stmt: ast.stmt, locked: bool):
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                acquires = any(
                    isinstance(item.context_expr, ast.Name)
                    and item.context_expr.id in locks
                    for item in stmt.items
                )
                for item in stmt.items:
                    scan_expr(item.context_expr, locked)
                for child in stmt.body:
                    scan_stmt(child, locked or acquires)
                return
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    record(target, stmt, locked)
                scan_expr(stmt.value, locked)
                return
            if isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
                record(stmt.target, stmt, locked)
                if stmt.value is not None:
                    scan_expr(stmt.value, locked)
                return
            if isinstance(stmt, ast.Delete):
                for target in stmt.targets:
                    record(target, stmt, locked)
                return
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.stmt):
                    scan_stmt(child, locked)
                elif isinstance(child, ast.expr):
                    scan_expr(child, locked)
                elif isinstance(
                    child, (ast.excepthandler, ast.withitem)
                ):
                    for grand in ast.iter_child_nodes(child):
                        if isinstance(grand, ast.stmt):
                            scan_stmt(grand, locked)
                        elif isinstance(grand, ast.expr):
                            scan_expr(grand, locked)

        for stmt in func_node.body:
            scan_stmt(stmt, False)
