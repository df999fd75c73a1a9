"""The EXPERIMENTS.md generator: micro-scale smoke test and claims gate."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.eval import experiments, paper_values
from repro.eval.experiments import ExperimentConfig
from repro.eval.markdown import build_experiments_report, main, run_experiments
from repro.eval.runner import ClassificationScores, CVResult
from repro.types import CONTENT_CLASSES, CellClass


@pytest.mark.slow
def test_report_contains_every_section():
    config = ExperimentConfig(
        scale=0.02,
        n_splits=2,
        n_repeats=1,
        n_estimators=4,
        crf_max_iter=10,
        rnn_epochs=1,
        seed=0,
        mendeley_scale=0.03,
    )
    report = build_experiments_report(config)
    for marker in (
        "# EXPERIMENTS",
        "## Table 3",
        "## Table 4",
        "## Table 5",
        "## Table 6 (top)",
        "## Table 6 (bottom)",
        "## Table 7",
        "## Table 8",
        "## Figure 3",
        "## Figure 4",
        "### S1",
        "### S2",
        "### S4",
        "### S5",
        "## Paper shape claims",
        "(paper)",
    ):
        assert marker in report, marker
    # No wall-clock text: the committed file must regenerate exactly.
    assert "generated in" not in report.lower()
    # Markdown tables render: header separators present.
    assert report.count("|---|") > 10


def _scores(macro: float = 0.9, **f1: float) -> ClassificationScores:
    per_class = {klass: 0.95 for klass in CONTENT_CLASSES}
    per_class.update({CellClass(name): value for name, value in f1.items()})
    return ClassificationScores(
        per_class_f1=per_class, accuracy=0.95, macro_f1=macro, support={}
    )


def _cv(macro: float = 0.9, **f1: float) -> CVResult:
    return CVResult(scores=_scores(macro, **f1), confusion=np.eye(6))


def _results() -> dict:
    """Fabricated results, one per experiment, on which every claim holds."""
    return {
        "diversity_table": {
            name: {1: 90.0, 2: 10.0, 3: 0.0, 4: 0.0, 5: 0.0}
            for name in ("saus", "cius", "deex")
        },
        "dataset_summary": {
            "govuk": (10, 100, 900),
            "mendeley": (2, 1000, 8000),
            "troy": (20, 40, 60),
        },
        "class_distribution": {
            "metadata": (10, 11, 1.1),
            "header": (10, 80, 8.0),
            "group": (10, 30, 3.0),
            "data": (100, 1000, 10.0),
            "derived": (10, 500, 50.0),
            "notes": (10, 12, 1.2),
        },
        "line_comparison": {
            name: {
                "CRF-L": _cv(0.8),
                "Pytheas-L": _cv(0.7),
                "Strudel-L": _cv(0.9, derived=0.5),
            }
            for name in ("govuk", "saus", "cius", "deex")
        },
        "cell_comparison": {
            name: {
                "Line-C": _cv(0.8),
                "RNN-C": _cv(0.8),
                "Strudel-C": _cv(0.9),
            }
            for name in ("saus", "cius", "deex")
        },
        "out_of_domain": {
            "Strudel-L": _scores(0.8, derived=0.1),
            "Strudel-C": _scores(0.8),
        },
        "plain_text": {
            "Strudel-L": _scores(
                0.6, data=0.99, metadata=0.5, notes=0.5, group=0.5
            ),
            "Strudel-C": _scores(0.6),
        },
        "line_feature_importance": {
            "derived": {
                "derived_coverage": 0.5,
                "aggregation_word": 0.3,
                "value_length": 0.2,
            },
            "data": {"derived_coverage": 0.1, "value_length": 0.9},
        },
        "cell_feature_importance": {
            "derived": {"is_aggregation": 0.5, "column_position": 0.5},
            "notes": {"line_class_probability_notes": 1.0},
            "metadata": {"line_class_probability_metadata": 1.0},
        },
        "classifier_ablation": {
            "random_forest": _cv(0.9),
            "naive_bayes": _cv(0.8),
            "knn": _cv(0.8),
            "svm": _cv(0.8),
        },
        "global_feature_ablation": {
            "local_only": _cv(0.9),
            "with_global": _cv(0.9),
        },
        "derived_parameter_sweep": {(0.1, 0.5): 0.8, (1.0, 0.7): 0.7},
        "anchor_mode_ablation": {"keyword": 0.5, "exhaustive": 0.6},
        "feature_group_ablation": {
            "all": _cv(0.9),
            "without_content": _cv(0.5),
            "without_contextual": _cv(0.85),
            "without_computational": _cv(0.88),
        },
    }


@pytest.fixture
def fabricated(monkeypatch, tmp_path):
    """Replace every experiment with a canned result, in a temporary cwd.

    Edit an entry of ``.results`` before calling ``main`` to make a
    claim fail; ``.called`` records the experiments the generator ran.
    """
    monkeypatch.chdir(tmp_path)
    canned = SimpleNamespace(results=_results(), called=[])

    def fake(name):
        def run(config):
            canned.called.append(name)
            return canned.results[name]

        return run

    for name in canned.results:
        monkeypatch.setattr(experiments, name, fake(name))
    return canned


class TestClaimsGate:
    def test_every_claim_holds_on_the_fabricated_results(
        self, fabricated, tmp_path, capsys
    ):
        assert main([]) == 0
        report = (tmp_path / "EXPERIMENTS.md").read_text(encoding="utf-8")
        assert report.count("* ✅ ") == len(paper_values.CLAIMS)
        assert "❌" not in report
        assert "claim failed" not in capsys.readouterr().err

    def test_a_failed_claim_exits_1_and_is_named(
        self, fabricated, tmp_path, capsys
    ):
        fabricated.results["plain_text"]["Strudel-L"].macro_f1 = 0.96
        assert main([]) == 1
        err = capsys.readouterr().err
        assert "claim failed: Table 8: Strudel-L macro F1 < 0.95" in err
        assert err.count("claim failed") == 1
        # The file is still written, with the claim marked.
        report = (tmp_path / "EXPERIMENTS.md").read_text(encoding="utf-8")
        assert "* ❌ Table 8: Strudel-L macro F1 < 0.95 — fails" in report
        assert report.count("❌") == 1

    def test_a_per_dataset_claim_names_the_dataset(self, fabricated, capsys):
        line_c = fabricated.results["cell_comparison"]["deex"]["Line-C"]
        line_c.scores.macro_f1 = 0.95
        assert main([]) == 1
        err = capsys.readouterr().err
        assert (
            "claim failed: Table 6 cells: Strudel-C macro ≥ Line-C − 0.02"
            " — deex: fails" in err
        )

    def test_an_absent_input_fails_the_claim_instead_of_raising(
        self, fabricated, tmp_path, capsys
    ):
        # A class missing from a small corpus has no F1 entry.
        strudel_l = fabricated.results["plain_text"]["Strudel-L"]
        del strudel_l.per_class_f1[CellClass.GROUP]
        assert main([]) == 1
        err = capsys.readouterr().err
        assert (
            "Table 8: Strudel-L mean F1 of metadata, notes and group"
            in err
        )
        assert "input missing" in err

    def test_claim_names_are_unique(self):
        labels = [claim.label for claim in paper_values.CLAIMS]
        assert len(labels) == len(set(labels))

    def test_each_claim_reads_an_experiment_the_generator_runs(
        self, fabricated
    ):
        run = run_experiments(ExperimentConfig())
        assert fabricated.called == list(run)
        for claim in paper_values.CLAIMS:
            assert claim.experiment in run, claim.label
            assert claim.failure(run[claim.experiment]) is None, claim.label

    def test_failed_claims_checks_one_table_on_a_slice(self):
        line_results = _results()["line_comparison"]
        one_dataset = {"deex": line_results["deex"]}
        assert paper_values.failed_claims("Table 6 lines", one_dataset) == []
        line_results["deex"]["Pytheas-L"].scores.macro_f1 = 0.95
        assert paper_values.failed_claims("Table 6 lines", one_dataset) == [
            "Table 6 lines: Strudel-L macro > Pytheas-L: deex: fails"
        ]
