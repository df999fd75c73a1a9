"""Unit tests for the static-analysis framework and its rules."""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis import all_rules, get_rule, lint_paths, lint_source
from repro.analysis.layering import (
    ALLOWED_DEPENDENCIES,
    check_declared_dag,
    node_for_module,
)
from repro.analysis.reporters import render_json, render_text
from repro.analysis.runner import module_name_for_path
from repro.errors import ConfigurationError


def lint(source: str, module: str = "fixture", select=None):
    return lint_source(
        textwrap.dedent(source), module=module, select=select
    )


def rule_ids(findings):
    return [f.rule_id for f in findings]


# ----------------------------------------------------------------------
# Framework
# ----------------------------------------------------------------------
class TestRegistry:
    def test_all_rules_registered(self):
        ids = [rule.rule_id for rule in all_rules()]
        assert ids == [
            "R001", "R002", "R003", "R004", "R005", "R006",
            "R101", "R102", "R103", "R104", "R105",
        ]

    def test_rules_have_metadata(self):
        for rule in all_rules():
            assert rule.title
            assert rule.rationale

    def test_unknown_rule_rejected(self):
        with pytest.raises(ConfigurationError):
            get_rule("R999")

    def test_select_runs_single_rule(self):
        findings = lint(
            "def f(x={}):\n    return x\n", select=["R005"]
        )
        assert rule_ids(findings) == ["R005"]


class TestSuppressions:
    def test_targeted_noqa_suppresses_one_rule(self):
        findings = lint(
            "def f(x={}):  # repro: noqa[R005]\n    return x\n"
        )
        assert findings == []

    def test_bare_noqa_suppresses_all(self):
        findings = lint(
            "def f(x={}):  # repro: noqa\n    return x\n"
        )
        assert findings == []

    def test_noqa_for_other_rule_does_not_suppress(self):
        findings = lint(
            "def f(x={}):  # repro: noqa[R001]\n    return x\n"
        )
        assert rule_ids(findings) == ["R005"]

    def test_marker_inside_string_is_inert(self):
        findings = lint(
            "s = '# repro: noqa[R005]'\n"
            "def f(x={}):\n    return x\n"
        )
        assert rule_ids(findings) == ["R005"]


class TestReporters:
    def test_text_report_lists_location_and_summary(self):
        findings = lint("def f(x=[]):\n    return x\n")
        text = render_text(findings)
        assert ":1:" in text
        assert "R005" in text
        assert "1 finding" in text

    def test_json_report_round_trips(self):
        import json

        findings = lint("def f(x=[]):\n    return x\n")
        payload = json.loads(render_json(findings))
        assert payload["count"] == 1
        assert payload["by_rule"] == {"R005": 1}
        assert payload["findings"][0]["rule"] == "R005"

    def test_clean_text_report(self):
        assert "no findings" in render_text([])


class TestModuleNaming:
    @pytest.mark.parametrize(
        "path, expected",
        [
            ("src/repro/core/strudel.py", "repro.core.strudel"),
            ("src/repro/__init__.py", "repro"),
            ("src/repro/ml/__init__.py", "repro.ml"),
            ("elsewhere/fixture.py", "fixture"),
        ],
    )
    def test_module_names(self, path, expected):
        from pathlib import Path

        assert module_name_for_path(Path(path)) == expected


class TestLayeringDeclaration:
    def test_declared_graph_is_acyclic(self):
        order = check_declared_dag()
        assert set(order) == set(ALLOWED_DEPENDENCIES)

    def test_ml_sits_below_core_and_persistence_above_both(self):
        # The documented layers: the estimators at the bottom, the
        # Strudel classifiers on them, model persistence over both.
        assert ALLOWED_DEPENDENCIES["ml"] == {"errors", "obs", "perf", "util"}
        order = check_declared_dag()
        assert order.index("ml") < order.index("core")
        assert order.index("ml.persistence") > order.index("core")
        assert order.index("ml.persistence") > order.index("ml")

    def test_cycle_is_rejected(self):
        with pytest.raises(ConfigurationError):
            check_declared_dag(
                {"a": frozenset({"b"}), "b": frozenset({"a"})}
            )

    def test_longest_prefix_lookup(self):
        assert node_for_module("repro.core.strudel") == "core"
        assert node_for_module("repro.ml.forest") == "ml"
        assert node_for_module("repro.ml.persistence") == "ml.persistence"
        assert node_for_module("repro.parsing") == "dialect"
        assert node_for_module("repro") == "app"
        assert node_for_module("numpy.random") is None


# ----------------------------------------------------------------------
# R001 — unseeded RNG
# ----------------------------------------------------------------------
class TestUnseededRandom:
    def test_legacy_numpy_api_flagged(self):
        findings = lint(
            "import numpy as np\nx = np.random.rand(3)\n"
        )
        assert rule_ids(findings) == ["R001"]

    def test_default_rng_without_seed_flagged(self):
        findings = lint(
            "from numpy.random import default_rng\n"
            "rng = default_rng()\n"
        )
        assert rule_ids(findings) == ["R001"]

    def test_np_default_rng_at_call_site_flagged(self):
        findings = lint(
            "import numpy as np\nrng = np.random.default_rng(42)\n"
        )
        assert rule_ids(findings) == ["R001"]

    def test_stdlib_random_flagged(self):
        findings = lint("import random\nx = random.random()\n")
        assert rule_ids(findings) == ["R001"]

    def test_unseeded_random_instance_flagged(self):
        findings = lint("import random\nr = random.Random()\n")
        assert rule_ids(findings) == ["R001"]

    def test_seeded_random_instance_allowed(self):
        assert lint("import random\nr = random.Random(7)\n") == []

    def test_generator_draws_allowed(self):
        findings = lint(
            "def f(rng):\n"
            "    return rng.random() + rng.integers(0, 2)\n"
        )
        assert findings == []

    def test_rng_module_is_exempt(self):
        findings = lint(
            "import numpy as np\n"
            "def as_generator(seed):\n"
            "    return np.random.default_rng(seed)\n",
            module="repro.util.rng",
        )
        assert findings == []


# ----------------------------------------------------------------------
# R002 — layer boundaries
# ----------------------------------------------------------------------
class TestLayerBoundaries:
    def test_ml_importing_core_flagged(self):
        findings = lint(
            "from repro.core.strudel import StrudelLineClassifier\n",
            module="repro.ml.forest",
        )
        assert rule_ids(findings) == ["R002"]

    def test_core_building_the_forest_allowed(self):
        findings = lint(
            "from repro.ml.forest import RandomForestClassifier\n",
            module="repro.core.strudel",
        )
        assert findings == []

    def test_ml_importing_eval_flagged(self):
        findings = lint(
            "import repro.eval.runner\n", module="repro.ml.forest"
        )
        assert rule_ids(findings) == ["R002"]

    def test_function_local_import_flagged(self):
        findings = lint(
            """
            def lazy():
                from repro.eval import runner
                return runner
            """,
            module="repro.core.blocks",
        )
        assert rule_ids(findings) == ["R002"]

    def test_relative_upward_import_flagged(self):
        findings = lint(
            "from ..core import strudel\n", module="repro.ml.forest"
        )
        assert rule_ids(findings) == ["R002"]

    def test_submodule_imported_by_name_meets_its_own_node(self):
        # ``ml.persistence`` sits above ``core``: importing it by name
        # from its package is the same dependency as the dotted import.
        findings = lint(
            "from repro.ml import persistence\n",
            module="repro.core.strudel",
        )
        assert rule_ids(findings) == ["R002"]
        assert "repro.ml.persistence" in findings[0].message

    def test_engine_imported_by_name_into_ml_flagged(self):
        findings = lint(
            "from repro.perf import engine, pool\n",
            module="repro.ml.forest",
        )
        assert rule_ids(findings) == ["R002"]

    def test_relative_submodule_import_flagged(self):
        findings = lint(
            "from . import persistence\n", module="repro.ml.forest"
        )
        assert rule_ids(findings) == ["R002"]

    def test_class_imported_by_name_stays_clean(self):
        findings = lint(
            "from repro.core.strudel import StrudelPipeline\n",
            module="repro.perf.engine",
        )
        assert findings == []

    def test_downward_import_allowed(self):
        findings = lint(
            "from repro.core.line_features import "
            "LineFeatureExtractor\n",
            module="repro.ml.persistence",
        )
        assert findings == []

    def test_app_layer_imports_everything(self):
        findings = lint(
            "from repro.eval import runner\n"
            "from repro.ml import forest\n",
            module="repro.cli",
        )
        assert findings == []

    def test_third_party_imports_ignored(self):
        findings = lint(
            "import numpy as np\nimport networkx\n",
            module="repro.core.blocks",
        )
        assert findings == []

    def test_lint_paths_maps_repro_tree(self, tmp_path):
        bad = tmp_path / "repro" / "core" / "evil.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(
            "from repro.eval import runner\n", encoding="utf-8"
        )
        findings = lint_paths([tmp_path])
        assert rule_ids(findings) == ["R002"]


# ----------------------------------------------------------------------
# R003 — feature contracts
# ----------------------------------------------------------------------
class TestFeatureContracts:
    MODULE = "repro.core.line_features"

    def test_missing_annotation_flagged(self):
        findings = lint(
            "def empty_cell_ratio(row):\n    return 0.0\n",
            module=self.MODULE,
        )
        assert rule_ids(findings) == ["R003"]

    def test_non_numeric_annotation_flagged(self):
        findings = lint(
            "def feature_name(row) -> str:\n    return 'x'\n",
            module=self.MODULE,
        )
        assert rule_ids(findings) == ["R003"]

    def test_unguarded_nan_return_flagged(self):
        findings = lint(
            """
            def ratio(values) -> float:
                return float('nan')
            """,
            module=self.MODULE,
        )
        assert rule_ids(findings) == ["R003"]

    def test_np_nan_attribute_flagged(self):
        findings = lint(
            """
            import numpy as np

            def ratio(values) -> float:
                return np.nan
            """,
            module=self.MODULE,
        )
        assert rule_ids(findings) == ["R003"]

    def test_guarded_nan_allowed(self):
        findings = lint(
            """
            def ratio(values) -> float:
                if not values:
                    return float('nan')
                return sum(values) / len(values)
            """,
            module=self.MODULE,
        )
        assert findings == []

    def test_numeric_annotation_allowed(self):
        findings = lint(
            """
            import numpy as np

            def extract(table) -> np.ndarray:
                return np.zeros(3)
            """,
            module=self.MODULE,
        )
        assert findings == []

    def test_rule_inert_outside_feature_modules(self):
        findings = lint(
            "def helper(row):\n    return float('nan')\n",
            module="repro.util.stats",
        )
        assert findings == []

    def test_properties_and_dunders_exempt(self):
        findings = lint(
            """
            class Extractor:
                def __init__(self):
                    self.names = ()

                @property
                def feature_names(self) -> tuple[str, ...]:
                    return self.names
            """,
            module=self.MODULE,
        )
        assert findings == []


# ----------------------------------------------------------------------
# R004 — nondeterministic iteration
# ----------------------------------------------------------------------
class TestNondeterministicIteration:
    def test_for_over_set_call_flagged(self):
        findings = lint(
            "def f(xs):\n"
            "    for x in set(xs):\n"
            "        yield x\n"
        )
        assert rule_ids(findings) == ["R004"]

    def test_comprehension_over_set_literal_flagged(self):
        findings = lint("ys = [x for x in {1, 2, 3}]\n")
        assert rule_ids(findings) == ["R004"]

    def test_unsorted_listdir_flagged(self):
        findings = lint(
            "import os\nnames = [n for n in os.listdir('.')]\n"
        )
        # Flagged once for the unsorted listdir call itself.
        assert "R004" in rule_ids(findings)

    def test_unsorted_glob_method_flagged(self):
        findings = lint(
            """
            from pathlib import Path

            def files(d):
                return list(Path(d).glob('*.csv'))
            """
        )
        assert rule_ids(findings) == ["R004"]

    def test_sorted_set_allowed(self):
        findings = lint(
            "def f(xs):\n"
            "    for x in sorted(set(xs)):\n"
            "        yield x\n"
        )
        assert findings == []

    def test_sorted_glob_allowed(self):
        findings = lint(
            """
            from pathlib import Path

            def files(d):
                return [p for p in sorted(Path(d).glob('*.csv'))]
            """
        )
        assert findings == []

    def test_set_membership_not_flagged(self):
        findings = lint(
            "def f(xs, allowed):\n"
            "    return [x for x in xs if x in set(allowed)]\n"
        )
        assert findings == []


# ----------------------------------------------------------------------
# R005 — mutable defaults
# ----------------------------------------------------------------------
class TestMutableDefaults:
    @pytest.mark.parametrize(
        "default", ["[]", "{}", "set()", "dict()", "list()"]
    )
    def test_mutable_defaults_flagged(self, default):
        findings = lint(f"def f(x={default}):\n    return x\n")
        assert rule_ids(findings) == ["R005"]

    def test_keyword_only_default_flagged(self):
        findings = lint("def f(*, x=[]):\n    return x\n")
        assert rule_ids(findings) == ["R005"]

    def test_lambda_default_flagged(self):
        findings = lint("g = lambda x={}: x\n")
        assert rule_ids(findings) == ["R005"]

    def test_none_default_allowed(self):
        findings = lint(
            "def f(x=None):\n"
            "    return x if x is not None else []\n"
        )
        assert findings == []

    def test_immutable_defaults_allowed(self):
        findings = lint("def f(x=(), y=0, z='s'):\n    return x\n")
        assert findings == []


# ----------------------------------------------------------------------
# R006 — wall-clock timing
# ----------------------------------------------------------------------
class TestWallClockTiming:
    def test_time_time_call_flagged(self):
        findings = lint(
            """
            import time
            started = time.time()
            """
        )
        assert rule_ids(findings) == ["R006"]

    def test_from_time_import_time_flagged(self):
        findings = lint("from time import time\n")
        assert rule_ids(findings) == ["R006"]

    def test_perf_counter_allowed(self):
        findings = lint(
            """
            import time
            started = time.perf_counter()
            elapsed = time.perf_counter() - started
            """
        )
        assert findings == []

    def test_monotonic_and_other_time_imports_allowed(self):
        findings = lint(
            """
            from time import perf_counter, monotonic
            a = perf_counter()
            b = monotonic()
            """
        )
        assert findings == []
