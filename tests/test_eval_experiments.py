"""Smoke tests for the per-table experiment functions.

These run every experiment at a micro scale so defects in the harness
surface in seconds; the full-scale runs live in ``benchmarks/``.
"""

from __future__ import annotations

import pytest

from repro.eval.experiments import (
    ExperimentConfig,
    anchor_mode_ablation,
    cell_comparison,
    class_distribution,
    classifier_ablation,
    dataset_summary,
    derived_parameter_sweep,
    diversity_table,
    feature_group_ablation,
    line_comparison,
    line_feature_importance,
    out_of_domain,
    plain_text,
)
from repro.types import CellClass


@pytest.fixture(scope="module")
def config():
    return ExperimentConfig(
        scale=0.025,
        n_splits=2,
        n_repeats=1,
        n_estimators=5,
        crf_max_iter=15,
        rnn_epochs=2,
        seed=0,
        mendeley_scale=0.03,
    )


class TestCorpusCaching:
    def test_corpus_is_cached(self, config):
        assert config.corpus("saus") is config.corpus("saus")

    def test_merged_transfer_train(self, config):
        merged = config.merged_transfer_train()
        assert merged.name == "saus+cius+deex"
        assert len(merged) == (
            len(config.corpus("saus"))
            + len(config.corpus("cius"))
            + len(config.corpus("deex"))
        )


class TestDescriptiveTables:
    def test_diversity_table(self, config):
        table = diversity_table(config)
        for dataset, shares in table.items():
            assert set(shares) == {1, 2, 3, 4, 5}
            assert sum(shares.values()) == pytest.approx(100.0)
            # Degree 1 dominates, as in the paper's Table 3.
            assert shares[1] > 50.0

    def test_dataset_summary(self, config):
        summary = dataset_summary(config)
        assert set(summary) == {
            "govuk", "saus", "cius", "deex", "mendeley", "troy",
        }
        for files, lines, cells in summary.values():
            assert files >= 2
            assert cells >= lines

    def test_class_distribution(self, config):
        distribution = class_distribution(config)
        assert set(distribution) == {
            "metadata", "header", "group", "data", "derived", "notes",
        }
        # Data dominates; derived lines are wide (cells per line).
        assert distribution["data"][0] > distribution["derived"][0]
        assert distribution["derived"][2] > distribution["metadata"][2]


class TestComparisons:
    def test_line_comparison_structure(self, config):
        results = line_comparison(config, datasets=("saus",))
        assert set(results["saus"]) == {"CRF-L", "Pytheas-L", "Strudel-L"}
        pytheas = results["saus"]["Pytheas-L"]
        assert CellClass.DERIVED not in pytheas.scores.per_class_f1
        strudel = results["saus"]["Strudel-L"]
        assert strudel.scores.accuracy > 0.6
        assert strudel.confusion.shape == (6, 6)  # Fig. 3 (top)

    def test_cell_comparison_structure(self, config):
        results = cell_comparison(config, datasets=("saus",))
        assert set(results["saus"]) == {"Line-C", "RNN-C", "Strudel-C"}
        strudel = results["saus"]["Strudel-C"]
        assert strudel.scores.accuracy > 0.6
        assert strudel.confusion.shape == (6, 6)  # Fig. 3 (bottom)


class TestTransfers:
    def test_out_of_domain(self, config):
        scores = out_of_domain(config)
        assert set(scores) == {"Strudel-L", "Strudel-C"}
        assert scores["Strudel-L"].accuracy > 0.5

    def test_plain_text(self, config):
        scores = plain_text(config)
        # Mendeley is data-dominated: data F1 should be very high.
        assert scores["Strudel-L"].per_class_f1[CellClass.DATA] > 0.9


class TestImportanceAndAblations:
    def test_line_feature_importance(self, config):
        shares = line_feature_importance(config)
        assert "data" in shares
        for class_shares in shares.values():
            assert sum(class_shares.values()) == pytest.approx(1.0)

    def test_classifier_ablation(self, config):
        results = classifier_ablation(config)
        assert set(results) == {
            "random_forest", "naive_bayes", "knn", "svm",
        }

    def test_derived_parameter_sweep(self, config):
        sweep = derived_parameter_sweep(
            config, deltas=(0.1,), coverages=(0.5,)
        )
        assert (0.1, 0.5) in sweep

    def test_anchor_mode_ablation(self, config):
        results = anchor_mode_ablation(config)
        assert set(results) == {"keyword", "exhaustive"}

    def test_feature_group_ablation(self, config):
        results = feature_group_ablation(config)
        assert set(results) == {
            "all", "without_content", "without_contextual",
            "without_computational",
        }


class TestConfigFromEnv:
    def test_defaults(self, monkeypatch):
        for variable in (
            "REPRO_SCALE", "REPRO_SPLITS", "REPRO_REPEATS", "REPRO_TREES",
        ):
            monkeypatch.delenv(variable, raising=False)
        config = ExperimentConfig.from_env()
        assert config.scale == 0.08
        assert config.n_splits == 3

    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.5")
        monkeypatch.setenv("REPRO_TREES", "77")
        config = ExperimentConfig.from_env()
        assert config.scale == 0.5
        assert config.n_estimators == 77
