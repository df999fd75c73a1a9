"""One function per paper table/figure (see DESIGN.md experiment index).

Every experiment accepts an :class:`ExperimentConfig` controlling the
corpus scale and model budgets.  Defaults are benchmark-friendly
(small corpora, 3-fold single-repeat CV, 30-tree forests); the
environment variables ``REPRO_SCALE``, ``REPRO_SPLITS``,
``REPRO_REPEATS``, ``REPRO_TREES`` and ``REPRO_SEED`` raise them
toward the paper's protocol (10x10-fold CV, 100 trees, full-size
corpora) when more time is available.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.baselines.crf_line import CRFLineClassifier
from repro.baselines.pytheas import PytheasLineClassifier
from repro.baselines.rnn_cells import RNNCellClassifier
from repro.core.cell_features import CELL_FEATURE_GROUPS, CellFeatureExtractor
from repro.core.derived import DerivedDetector
from repro.core.line_features import (
    LINE_FEATURE_GROUPS,
    LINE_FEATURE_NAMES,
    LineFeatureExtractor,
)
from repro.core.strudel import (
    LineToCellBaseline,
    StrudelCellClassifier,
    StrudelLineClassifier,
)
from repro.datagen.corpora import make_corpus
from repro.io.annotations import load_corpus
from repro.eval.runner import (
    ClassificationScores,
    CVResult,
    cross_validate_cells,
    cross_validate_lines,
    evaluate_lines,
    transfer_cells,
    transfer_lines,
)
from repro.ml.forest import RandomForestClassifier
from repro.ml.importance import normalize_importances, permutation_importance
from repro.ml.knn import KNeighborsClassifier
from repro.ml.metrics import f1_per_class
from repro.ml.naive_bayes import GaussianNaiveBayes
from repro.ml.svm import LinearSVM
from repro.types import (
    CLASS_TO_INDEX,
    CONTENT_CLASSES,
    CellClass,
    Corpus,
)

#: Datasets used for in-domain cross-validation experiments.
CV_LINE_DATASETS: tuple[str, ...] = ("govuk", "saus", "cius", "deex")
CV_CELL_DATASETS: tuple[str, ...] = ("saus", "cius", "deex")
#: Datasets merged into the paper's transfer-learning training set.
TRANSFER_TRAIN: tuple[str, ...] = ("saus", "cius", "deex")


@dataclass
class ExperimentConfig:
    """Knobs shared by all experiments.

    ``scale`` multiplies each corpus's file count (1.0 = paper-sized).
    """

    scale: float = 0.08
    n_splits: int = 3
    n_repeats: int = 1
    n_estimators: int = 30
    crf_max_iter: int = 40
    rnn_epochs: int = 6
    seed: int = 0
    n_jobs: int = 1
    mendeley_scale: float | None = None
    #: When set, a corpus named ``X`` is loaded from the annotation
    #: JSONs in ``<corpus_dir>/X`` (written by ``save_corpus`` /
    #: ``repro generate``) instead of being regenerated — the route
    #: for evaluating on real, hand-annotated files.  Reads go through
    #: the hardened ingestion decoder, so a BOM or a mislabelled
    #: encoding surfaces as a typed ``ReproError``, not a crash.
    corpus_dir: str | None = None
    _corpora: dict[str, Corpus] = field(default_factory=dict, repr=False)

    @classmethod
    def from_env(cls) -> "ExperimentConfig":
        """Build a config from ``REPRO_*`` environment variables."""
        return cls(
            scale=float(os.environ.get("REPRO_SCALE", 0.08)),
            n_splits=int(os.environ.get("REPRO_SPLITS", 3)),
            n_repeats=int(os.environ.get("REPRO_REPEATS", 1)),
            n_estimators=int(os.environ.get("REPRO_TREES", 30)),
            crf_max_iter=int(os.environ.get("REPRO_CRF_ITER", 40)),
            rnn_epochs=int(os.environ.get("REPRO_RNN_EPOCHS", 6)),
            seed=int(os.environ.get("REPRO_SEED", 0)),
            n_jobs=int(os.environ.get("REPRO_JOBS", 1)),
            corpus_dir=os.environ.get("REPRO_CORPUS_DIR") or None,
        )

    # ------------------------------------------------------------------
    def corpus(self, name: str) -> Corpus:
        """The (cached) corpus called ``name``: loaded from
        ``corpus_dir`` when configured and present, generated
        otherwise."""
        if name not in self._corpora:
            loaded = self._corpus_from_disk(name)
            if loaded is not None:
                self._corpora[name] = loaded
                return loaded
            scale = self.scale
            if name == "mendeley":
                # Mendeley files are enormous; a lower scale keeps the
                # transfer experiment tractable without changing its
                # data-dominated character.
                scale = self.mendeley_scale or min(self.scale, 0.08)
            self._corpora[name] = make_corpus(name, scale=scale)
        return self._corpora[name]

    def _corpus_from_disk(self, name: str) -> Corpus | None:
        """The on-disk corpus for ``name``, or ``None`` to generate."""
        if self.corpus_dir is None:
            return None
        directory = Path(self.corpus_dir) / name
        if not directory.is_dir():
            return None
        return load_corpus(directory, name=name)

    def merged_transfer_train(self) -> Corpus:
        """SAUS + CIUS + DeEx, the paper's transfer training set."""
        saus = self.corpus("saus")
        return saus.merged_with(
            self.corpus("cius"), self.corpus("deex"), name="saus+cius+deex"
        )

    # ------------------------------------------------------------------
    # Algorithm factories
    # ------------------------------------------------------------------
    def strudel_line(self, **kwargs) -> StrudelLineClassifier:
        """A config-sized Strudel-L instance."""
        kwargs.setdefault("n_estimators", self.n_estimators)
        kwargs.setdefault("random_state", self.seed)
        kwargs.setdefault("n_jobs", self.n_jobs)
        return StrudelLineClassifier(**kwargs)

    def strudel_cell(self, **kwargs) -> StrudelCellClassifier:
        """A config-sized Strudel-C instance."""
        kwargs.setdefault("n_estimators", self.n_estimators)
        kwargs.setdefault("random_state", self.seed)
        kwargs.setdefault("n_jobs", self.n_jobs)
        return StrudelCellClassifier(**kwargs)

    def crf_line(self) -> CRFLineClassifier:
        """A config-sized CRF-L instance."""
        return CRFLineClassifier(max_iter=self.crf_max_iter)

    def pytheas_line(self) -> PytheasLineClassifier:
        """A Pytheas-L instance."""
        return PytheasLineClassifier()

    def line_to_cell(self) -> LineToCellBaseline:
        """A config-sized Line-C instance."""
        return LineToCellBaseline(self.strudel_line())

    def rnn_cell(self) -> RNNCellClassifier:
        """A config-sized RNN-C instance."""
        return RNNCellClassifier(
            epochs=self.rnn_epochs, random_state=self.seed
        )


# ----------------------------------------------------------------------
# Table 3 — cell-class diversity degree
# ----------------------------------------------------------------------
def diversity_table(config: ExperimentConfig) -> dict[str, dict[int, float]]:
    """Percentage of non-empty lines per diversity degree (Table 3)."""
    result: dict[str, dict[int, float]] = {}
    for name in CV_CELL_DATASETS:
        corpus = config.corpus(name)
        counts: Counter[int] = Counter()
        total = 0
        for annotated in corpus:
            for i in annotated.non_empty_line_indices():
                counts[annotated.line_diversity_degree(i)] += 1
                total += 1
        result[name] = {
            degree: 100.0 * counts.get(degree, 0) / total
            for degree in range(1, 6)
        }
    return result


# ----------------------------------------------------------------------
# Table 4 — dataset summary
# ----------------------------------------------------------------------
def dataset_summary(
    config: ExperimentConfig,
) -> dict[str, tuple[int, int, int]]:
    """(files, non-empty lines, non-empty cells) per corpus (Table 4)."""
    return {
        name: (
            len(config.corpus(name)),
            config.corpus(name).total_lines(),
            config.corpus(name).total_cells(),
        )
        for name in CV_LINE_DATASETS + ("mendeley", "troy")
    }


# ----------------------------------------------------------------------
# Table 5 — class distribution
# ----------------------------------------------------------------------
def class_distribution(
    config: ExperimentConfig,
) -> dict[str, tuple[int, int, float]]:
    """Lines, cells and cells-per-line per class over the merged
    SAUS + CIUS + DeEx corpus (Table 5)."""
    line_counts: Counter[CellClass] = Counter()
    cell_counts: Counter[CellClass] = Counter()
    for name in TRANSFER_TRAIN:
        for annotated in config.corpus(name):
            for i in annotated.non_empty_line_indices():
                line_counts[annotated.line_labels[i]] += 1
            for _, _, label in annotated.non_empty_cell_items():
                cell_counts[label] += 1
    return {
        klass.value: (
            line_counts.get(klass, 0),
            cell_counts.get(klass, 0),
            (
                cell_counts.get(klass, 0) / line_counts[klass]
                if line_counts.get(klass)
                else 0.0
            ),
        )
        for klass in CONTENT_CLASSES
    }


# ----------------------------------------------------------------------
# Table 6 — comparative evaluation
# ----------------------------------------------------------------------
def line_comparison(
    config: ExperimentConfig,
    datasets: tuple[str, ...] = CV_LINE_DATASETS,
    algorithms: tuple[str, ...] = ("CRF-L", "Pytheas-L", "Strudel-L"),
) -> dict[str, dict[str, CVResult]]:
    """Table 6 (top): line classification CV per dataset/algorithm."""
    factories = {
        "CRF-L": config.crf_line,
        "Pytheas-L": config.pytheas_line,
        "Strudel-L": config.strudel_line,
    }
    results: dict[str, dict[str, CVResult]] = {}
    for dataset in datasets:
        corpus = config.corpus(dataset)
        results[dataset] = {}
        for name in algorithms:
            results[dataset][name] = cross_validate_lines(
                corpus,
                factories[name],
                n_splits=config.n_splits,
                n_repeats=config.n_repeats,
                seed=config.seed,
                exclude_derived=(name == "Pytheas-L"),
            )
    return results


def cell_comparison(
    config: ExperimentConfig,
    datasets: tuple[str, ...] = CV_CELL_DATASETS,
    algorithms: tuple[str, ...] = ("Line-C", "RNN-C", "Strudel-C"),
) -> dict[str, dict[str, CVResult]]:
    """Table 6 (bottom): cell classification CV per dataset/algorithm."""
    factories = {
        "Line-C": config.line_to_cell,
        "RNN-C": config.rnn_cell,
        "Strudel-C": config.strudel_cell,
    }
    results: dict[str, dict[str, CVResult]] = {}
    for dataset in datasets:
        corpus = config.corpus(dataset)
        results[dataset] = {}
        for name in algorithms:
            results[dataset][name] = cross_validate_cells(
                corpus,
                factories[name],
                n_splits=config.n_splits,
                n_repeats=config.n_repeats,
                seed=config.seed,
            )
    return results


# ----------------------------------------------------------------------
# Tables 7 and 8 — transfer evaluations
# ----------------------------------------------------------------------
def out_of_domain(
    config: ExperimentConfig,
) -> dict[str, ClassificationScores]:
    """Table 7: train on SAUS+CIUS+DeEx, test on Troy."""
    train = config.merged_transfer_train()
    troy = config.corpus("troy")
    return {
        "Strudel-L": transfer_lines(train, troy, config.strudel_line),
        "Strudel-C": transfer_cells(train, troy, config.strudel_cell),
    }


def plain_text(config: ExperimentConfig) -> dict[str, ClassificationScores]:
    """Table 8: train on SAUS+CIUS+DeEx, test on Mendeley."""
    train = config.merged_transfer_train()
    mendeley = config.corpus("mendeley")
    return {
        "Strudel-L": transfer_lines(train, mendeley, config.strudel_line),
        "Strudel-C": transfer_cells(train, mendeley, config.strudel_cell),
    }


# ----------------------------------------------------------------------
# Figure 3 — confusion matrices
# ----------------------------------------------------------------------
def line_confusion(
    config: ExperimentConfig,
    datasets: tuple[str, ...] = ("govuk", "cius", "deex"),
) -> dict[str, np.ndarray]:
    """Figure 3 (top): ensemble confusion matrices for Strudel-L."""
    results = line_comparison(config, datasets, algorithms=("Strudel-L",))
    return {
        dataset: results[dataset]["Strudel-L"].confusion
        for dataset in datasets
    }


def cell_confusion(
    config: ExperimentConfig,
    datasets: tuple[str, ...] = CV_CELL_DATASETS,
) -> dict[str, np.ndarray]:
    """Figure 3 (bottom): ensemble confusion matrices for Strudel-C."""
    results = cell_comparison(config, datasets, algorithms=("Strudel-C",))
    return {
        dataset: results[dataset]["Strudel-C"].confusion
        for dataset in datasets
    }


# ----------------------------------------------------------------------
# Figure 4 — permutation feature importance
# ----------------------------------------------------------------------
def _one_vs_rest_importance(
    X: np.ndarray,
    y: np.ndarray,
    feature_names: tuple[str, ...],
    config: ExperimentConfig,
    n_repeats: int = 5,
) -> dict[str, dict[str, float]]:
    result: dict[str, dict[str, float]] = {}
    for klass in CONTENT_CLASSES:
        binary = (y == CLASS_TO_INDEX[klass]).astype(np.int64)
        if binary.sum() == 0 or binary.sum() == len(binary):
            continue
        model = RandomForestClassifier(
            n_estimators=config.n_estimators, random_state=config.seed
        ).fit(X, binary)

        def binary_f1(y_true, y_pred) -> float:
            return f1_per_class(list(y_true), list(y_pred), labels=[1])[1]

        importances = permutation_importance(
            model, X, binary,
            n_repeats=n_repeats,
            scorer=binary_f1,
            random_state=config.seed,
        )
        shares = normalize_importances(importances)
        result[klass.value] = dict(zip(feature_names, shares.tolist()))
    return result


def _aggregate_neighbor_features(
    shares: dict[str, dict[str, float]]
) -> dict[str, dict[str, float]]:
    """Collapse the 8+8 neighbour features into two groups (Figure 4)."""
    out: dict[str, dict[str, float]] = {}
    for class_name, feature_shares in shares.items():
        collapsed: dict[str, float] = {}
        for feature, share in feature_shares.items():
            if feature.startswith("neighbor_value_length"):
                key = "neighbor_value_length"
            elif feature.startswith("neighbor_data_type"):
                key = "neighbor_data_type"
            else:
                key = feature
            collapsed[key] = collapsed.get(key, 0.0) + share
        out[class_name] = collapsed
    return out


def line_feature_importance(
    config: ExperimentConfig,
) -> dict[str, dict[str, float]]:
    """Figure 4 (top): per-class line feature importance shares."""
    extractor = LineFeatureExtractor()
    train = config.merged_transfer_train()
    matrices, labels = [], []
    for annotated in train:
        features = extractor.extract(annotated.table)
        for i in annotated.non_empty_line_indices():
            matrices.append(features[i])
            labels.append(CLASS_TO_INDEX[annotated.line_labels[i]])
    X = np.vstack(matrices)
    y = np.asarray(labels)
    return _one_vs_rest_importance(X, y, LINE_FEATURE_NAMES, config)


def cell_feature_importance(
    config: ExperimentConfig,
) -> dict[str, dict[str, float]]:
    """Figure 4 (bottom): per-class cell feature importance shares."""
    train = config.merged_transfer_train()
    line_model = config.strudel_line()
    line_model.fit(train.files)
    extractor = CellFeatureExtractor()
    matrices, labels = [], []
    for annotated in train:
        probabilities = line_model.predict_proba(annotated.table)
        positions, features = extractor.extract(
            annotated.table, probabilities
        )
        for (i, j), row in zip(positions, features):
            matrices.append(row)
            labels.append(CLASS_TO_INDEX[annotated.cell_labels[i][j]])
    X = np.vstack(matrices)
    y = np.asarray(labels)
    shares = _one_vs_rest_importance(
        X, y, extractor.feature_names, config
    )
    return _aggregate_neighbor_features(shares)


# ----------------------------------------------------------------------
# Supplementary ablations (Section 6.1.2 / Section 4 / Algorithm 2)
# ----------------------------------------------------------------------
def classifier_ablation(
    config: ExperimentConfig, dataset: str = "saus"
) -> dict[str, CVResult]:
    """RF vs Naive Bayes vs kNN vs SVM as the Strudel-L backbone."""
    backbones = {
        "random_forest": lambda: RandomForestClassifier(
            n_estimators=config.n_estimators, random_state=config.seed
        ),
        "naive_bayes": GaussianNaiveBayes,
        "knn": lambda: KNeighborsClassifier(n_neighbors=5),
        "svm": lambda: LinearSVM(random_state=config.seed),
    }
    corpus = config.corpus(dataset)
    results: dict[str, CVResult] = {}
    for name, backbone in backbones.items():
        results[name] = cross_validate_lines(
            corpus,
            lambda backbone=backbone: StrudelLineClassifier(
                classifier_factory=backbone
            ),
            n_splits=config.n_splits,
            n_repeats=config.n_repeats,
            seed=config.seed,
        )
    return results


def global_feature_ablation(
    config: ExperimentConfig, dataset: str = "deex"
) -> dict[str, CVResult]:
    """Strudel-L with and without the rejected global features."""
    corpus = config.corpus(dataset)
    return {
        "local_only": cross_validate_lines(
            corpus, config.strudel_line,
            n_splits=config.n_splits, n_repeats=config.n_repeats,
            seed=config.seed,
        ),
        "with_global": cross_validate_lines(
            corpus,
            lambda: config.strudel_line(
                extractor=LineFeatureExtractor(include_global_features=True)
            ),
            n_splits=config.n_splits, n_repeats=config.n_repeats,
            seed=config.seed,
        ),
    }


def derived_parameter_sweep(
    config: ExperimentConfig,
    dataset: str = "saus",
    deltas: tuple[float, ...] = (0.01, 0.1, 1.0),
    coverages: tuple[float, ...] = (0.3, 0.5, 0.7),
) -> dict[tuple[float, float], float]:
    """Derived-line F1 across (delta, coverage) settings.

    Reproduces the Section 6.1.2 claim of insensitivity to the
    aggregation delta and coverage parameters.
    """
    corpus = config.corpus(dataset)
    files = corpus.files
    cut = max(1, int(0.8 * len(files)))
    train, test = files[:cut], files[cut:]
    results: dict[tuple[float, float], float] = {}
    for delta in deltas:
        for coverage in coverages:
            detector = DerivedDetector(delta=delta, coverage=coverage)
            model = config.strudel_line(
                extractor=LineFeatureExtractor(detector=detector)
            )
            model.fit(train)
            y_true, y_pred = evaluate_lines(model, test)
            scores = f1_per_class(y_true, y_pred, labels=CONTENT_CLASSES)
            results[(delta, coverage)] = scores[CellClass.DERIVED]
    return results


def anchor_mode_ablation(
    config: ExperimentConfig, dataset: str = "troy"
) -> dict[str, float]:
    """Keyword anchoring vs exhaustive search in Algorithm 2.

    The paper's Troy failure analysis blames keyword anchoring for the
    missed derived lines; the exhaustive variant quantifies what the
    anchor heuristic trades away.
    """
    train = config.merged_transfer_train()
    test = config.corpus(dataset)
    results: dict[str, float] = {}
    for mode in ("keyword", "exhaustive"):
        detector = DerivedDetector(anchor_mode=mode)
        model = config.strudel_line(
            extractor=LineFeatureExtractor(detector=detector)
        )
        model.fit(train.files)
        y_true, y_pred = evaluate_lines(model, test.files)
        scores = f1_per_class(y_true, y_pred, labels=CONTENT_CLASSES)
        results[mode] = scores[CellClass.DERIVED]
    return results


def feature_group_ablation(
    config: ExperimentConfig, dataset: str = "saus"
) -> dict[str, CVResult]:
    """Strudel-L with one feature group removed at a time."""
    corpus = config.corpus(dataset)
    results: dict[str, CVResult] = {
        "all": cross_validate_lines(
            corpus, config.strudel_line,
            n_splits=config.n_splits, n_repeats=config.n_repeats,
            seed=config.seed,
        )
    }
    for group, members in LINE_FEATURE_GROUPS.items():
        kept = tuple(
            name for name in LINE_FEATURE_NAMES if name not in members
        )
        results[f"without_{group}"] = cross_validate_lines(
            corpus,
            lambda kept=kept: config.strudel_line(feature_subset=kept),
            n_splits=config.n_splits, n_repeats=config.n_repeats,
            seed=config.seed,
        )
    return results


def cell_feature_group_ablation(
    config: ExperimentConfig, dataset: str = "saus"
) -> dict[str, CVResult]:
    """Strudel-C with one feature group removed at a time."""
    corpus = config.corpus(dataset)
    all_names = tuple(
        name
        for group in CELL_FEATURE_GROUPS.values()
        for name in group
    )
    results: dict[str, CVResult] = {
        "all": cross_validate_cells(
            corpus, config.strudel_cell,
            n_splits=config.n_splits, n_repeats=config.n_repeats,
            seed=config.seed,
        )
    }
    for group, members in CELL_FEATURE_GROUPS.items():
        kept = tuple(name for name in all_names if name not in members)
        results[f"without_{group}"] = cross_validate_cells(
            corpus,
            lambda kept=kept: config.strudel_cell(feature_subset=kept),
            n_splits=config.n_splits, n_repeats=config.n_repeats,
            seed=config.seed,
        )
    return results
