"""Unit tests for the whole-program model (graph) and raise flow."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.analysis.flow import EscapeAnalysis, PUBLIC_ENTRY_POINTS
from repro.analysis.graph import _MAX_PASSES, ProjectGraph
from repro.analysis.runner import (
    ModuleInfo,
    iter_python_files,
    lint_paths,
    load_module,
)
from repro.cli import main
from repro.errors import AnalysisError

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def build(sources: dict[str, str]) -> ProjectGraph:
    modules = [
        ModuleInfo(
            path=Path(f"<{name}>"),
            module=name,
            source=source,
            tree=ast.parse(source),
        )
        for name, source in sorted(sources.items())
    ]
    return ProjectGraph.build(modules)


def callees(graph: ProjectGraph, qualname: str) -> set[str]:
    return {site.callee for site in graph.calls_from(qualname)}


class TestSymbols:
    def test_functions_classes_and_imports_indexed(self):
        graph = build({
            "pkg.a": "def f():\n    pass\n\nclass C:\n    def m(self):\n        pass\n",
            "pkg.b": "from pkg.a import f as g\n",
        })
        assert "pkg.a.f" in graph.functions
        assert "pkg.a.C" in graph.classes
        assert "pkg.a.C.m" in graph.functions
        assert graph.modules["pkg.b"].imports["g"] == "pkg.a.f"

    def test_canonical_name_follows_reexport(self):
        graph = build({
            "pkg.impl": "def work():\n    pass\n",
            "pkg": "from pkg.impl import work\n",
            "pkg.user": "from pkg import work\n",
        })
        table = graph.modules["pkg.user"]
        assert graph.canonical_name(table, "work") == "pkg.impl.work"


class TestCallGraph:
    def test_direct_and_method_calls(self):
        graph = build({
            "m": (
                "class C:\n"
                "    def run(self):\n"
                "        return 1\n"
                "\n"
                "def helper():\n"
                "    pass\n"
                "\n"
                "def main():\n"
                "    helper()\n"
                "    c = C()\n"
                "    c.run()\n"
            ),
        })
        assert callees(graph, "m.main") == {"m.helper", "m.C.run"}
        quals = [s.class_qualname for s in graph.instantiations_in("m.main")]
        assert quals == ["m.C"]

    def test_annotation_binds_parameter_to_instance(self):
        graph = build({
            "m": (
                "class C:\n"
                "    def run(self):\n"
                "        pass\n"
                "\n"
                "def use(c: C):\n"
                "    c.run()\n"
            ),
        })
        assert "m.C.run" in callees(graph, "m.use")

    def test_dict_dispatch_resolves(self):
        graph = build({
            "m": (
                "def fa():\n    pass\n"
                "def fb():\n    pass\n"
                "def main(key):\n"
                "    handlers = {'a': fa, 'b': fb}\n"
                "    handlers[key]()\n"
            ),
        })
        assert callees(graph, "m.main") == {"m.fa", "m.fb"}

    def test_factory_registration_indirection(self):
        # The composition-root pattern: a registrar writes a class into
        # a module global through `global`, and a method instantiates
        # whatever was registered.  The call edge from use() to the
        # registered class's method must resolve.
        graph = build({
            "pkg.core": (
                "_factory = None\n"
                "\n"
                "def set_factory(factory):\n"
                "    global _factory\n"
                "    _factory = factory\n"
                "\n"
                "class Estimator:\n"
                "    def use(self):\n"
                "        model = _factory()\n"
                "        model.fit()\n"
            ),
            "pkg.ml": "class Forest:\n    def fit(self):\n        pass\n",
            "pkg": (
                "from pkg.core import set_factory\n"
                "from pkg.ml import Forest\n"
                "set_factory(Forest)\n"
            ),
        })
        assert graph.registries["pkg.core._factory"] == {
            ("class", "pkg.ml.Forest")
        }
        assert "pkg.ml.Forest.fit" in callees(graph, "pkg.core.Estimator.use")

    def test_reachable_from_skips_boundary_modules(self):
        graph = build({
            "pkg.gate": "def inner():\n    deep()\n\ndef deep():\n    pass\n",
            "pkg.outer": (
                "from pkg.gate import inner\n"
                "def entry():\n    inner()\n"
            ),
        })
        full = graph.reachable_from("pkg.outer.entry")
        assert "pkg.gate.deep" in full
        gated = graph.reachable_from(
            "pkg.outer.entry", skip_module_prefixes=("pkg.gate",)
        )
        assert "pkg.gate.inner" in gated  # the boundary itself is listed
        assert "pkg.gate.deep" not in gated  # but not descended into


def return_chain(links: int) -> str:
    """``f0`` returns a ``Leaf``; each ``f<k>`` returns ``f<k-1>()``.
    The model learns one more link per pass, and needs one pass more to
    see that nothing changed."""
    parts = ["class Leaf:\n    pass\n", "def f0():\n    return Leaf()\n"]
    for k in range(1, links):
        parts.append(f"def f{k}():\n    return f{k - 1}()\n")
    return "\n".join(parts)


class TestFixpoint:
    def test_chain_within_the_bound_converges(self):
        graph = build({"m": return_chain(_MAX_PASSES - 1)})
        assert graph.converged
        last = f"m.f{_MAX_PASSES - 2}"
        assert graph.return_values[last] == {("instance", "m.Leaf")}

    def test_chain_past_the_bound_does_not_converge(self):
        graph = build({"m": return_chain(_MAX_PASSES + 2)})
        assert not graph.converged
        assert not graph.return_values[f"m.f{_MAX_PASSES + 1}"]

    def test_lint_refuses_an_unconverged_graph(self, tmp_path):
        (tmp_path / "chain.py").write_text(
            return_chain(_MAX_PASSES + 2), encoding="utf-8"
        )
        with pytest.raises(AnalysisError, match="did not converge"):
            lint_paths([tmp_path])
        # The per-module rules need no graph.
        assert lint_paths([tmp_path], graph=False) == []

    def test_cli_exits_two_on_an_unconverged_graph(self, tmp_path, capsys):
        (tmp_path / "chain.py").write_text(
            return_chain(_MAX_PASSES + 2), encoding="utf-8"
        )
        assert main(["lint", str(tmp_path)]) == 2
        assert "did not converge" in capsys.readouterr().err


class TestRealTree:
    """The model holds on the shipped package, not just fixtures."""

    @pytest.fixture(scope="class")
    def graph(self) -> ProjectGraph:
        modules = [load_module(p) for p in iter_python_files([SRC])]
        return ProjectGraph.build(modules)

    def test_shipped_tree_converges(self, graph):
        assert graph.converged

    def test_factory_chain_pins_forest_fit(self, graph):
        # Strudel-L and Strudel-C build their forest in the shared
        # base's _make_model, so each fit must resolve a call edge into
        # RandomForestClassifier.fit with no registry slot in between.
        assert not any(
            slot.startswith("repro.core.") for slot in graph.registries
        )
        for fit in (
            "repro.core.strudel.StrudelLineClassifier.fit",
            "repro.core.strudel.StrudelCellClassifier.fit",
        ):
            assert "repro.ml.forest.RandomForestClassifier.fit" in callees(
                graph, fit
            )

    def test_public_entry_points_exist(self, graph):
        missing = [
            q for q in PUBLIC_ENTRY_POINTS if q not in graph.functions
        ]
        assert missing == []

    def test_cli_dispatch_reaches_handlers(self, graph):
        reach = graph.reachable_from("repro.cli.main")
        assert "repro.cli._cmd_lint" in reach
        assert "repro.cli._cmd_fuzz" in reach


class TestEscapeAnalysis:
    def test_raise_propagates_to_caller(self):
        graph = build({
            "m": (
                "def inner():\n"
                "    raise ValueError('boom')\n"
                "def outer():\n"
                "    inner()\n"
            ),
        })
        escaping = EscapeAnalysis(graph).escaping("m.outer")
        assert "builtins.ValueError" in escaping
        origins = escaping["builtins.ValueError"]
        assert {o.line for o in origins} == {2}

    def test_handler_stops_propagation(self):
        graph = build({
            "m": (
                "def inner():\n"
                "    raise ValueError('boom')\n"
                "def outer():\n"
                "    try:\n"
                "        inner()\n"
                "    except ValueError:\n"
                "        pass\n"
            ),
        })
        assert EscapeAnalysis(graph).escaping("m.outer") == {}

    def test_builtin_hierarchy_catches_subclass(self):
        graph = build({
            "m": (
                "def outer():\n"
                "    try:\n"
                "        raise KeyError('k')\n"
                "    except LookupError:\n"
                "        pass\n"
            ),
        })
        assert EscapeAnalysis(graph).escaping("m.outer") == {}

    def test_project_hierarchy_catches_subclass(self):
        graph = build({
            "m": (
                "class Base(Exception):\n    pass\n"
                "class Child(Base):\n    pass\n"
                "def inner():\n"
                "    raise Child('x')\n"
                "def outer():\n"
                "    try:\n"
                "        inner()\n"
                "    except Base:\n"
                "        pass\n"
            ),
        })
        assert EscapeAnalysis(graph).escaping("m.outer") == {}

    def test_wrong_handler_does_not_catch(self):
        graph = build({
            "m": (
                "def outer():\n"
                "    try:\n"
                "        raise ValueError('v')\n"
                "    except KeyError:\n"
                "        pass\n"
            ),
        })
        escaping = EscapeAnalysis(graph).escaping("m.outer")
        assert "builtins.ValueError" in escaping

    def test_bare_except_is_catch_all(self):
        graph = build({
            "m": (
                "def outer():\n"
                "    try:\n"
                "        raise ValueError('v')\n"
                "    except Exception:\n"
                "        pass\n"
            ),
        })
        assert EscapeAnalysis(graph).escaping("m.outer") == {}

    def test_handler_body_raises_escape(self):
        graph = build({
            "m": (
                "def outer():\n"
                "    try:\n"
                "        raise ValueError('v')\n"
                "    except ValueError:\n"
                "        raise KeyError('k')\n"
            ),
        })
        escaping = EscapeAnalysis(graph).escaping("m.outer")
        assert set(escaping) == {"builtins.KeyError"}
