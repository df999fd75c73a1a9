"""Generic evaluation runners.

The paper's protocol (Section 6.1.2): 10-fold cross-validation with
whole files assigned to folds, repeated ten times with fresh splits,
per-repetition scores averaged.  Confusion matrices (Figure 3) are
built from an *ensemble* prediction per element: the majority vote of
all repetitions, with ties resolved toward the rarer class.

These runners are algorithm-agnostic: any object with ``fit(files)``
and ``predict(table)`` (returning per-line classes for line
algorithms, or a position→class mapping for cell algorithms) can be
evaluated.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Protocol, Sequence

import numpy as np

from repro.errors import EvaluationError
from repro.obs import get_metrics, get_tracer
from repro.ml.metrics import (
    accuracy_score,
    confusion_matrix,
    f1_per_class,
    macro_f1,
    support_per_class,
)
from repro.ml.model_selection import RepeatedGroupKFold
from repro.types import CONTENT_CLASSES, AnnotatedFile, CellClass, Corpus, Table


class LineAlgorithm(Protocol):
    """Anything that labels the lines of a table after fitting."""

    def fit(self, files: list[AnnotatedFile]) -> "LineAlgorithm": ...

    def predict(self, table: Table) -> list[CellClass]: ...


class CellAlgorithm(Protocol):
    """Anything that labels the non-empty cells of a table."""

    def fit(self, files: list[AnnotatedFile]) -> "CellAlgorithm": ...

    def predict(self, table: Table) -> dict[tuple[int, int], CellClass]: ...


@dataclass
class ClassificationScores:
    """Per-class F1, accuracy and macro-average for one evaluation."""

    per_class_f1: dict[CellClass, float]
    accuracy: float
    macro_f1: float
    support: dict[CellClass, int]

    @classmethod
    def from_predictions(
        cls,
        y_true: Sequence[CellClass],
        y_pred: Sequence[CellClass],
        labels: Sequence[CellClass] = CONTENT_CLASSES,
    ) -> "ClassificationScores":
        """Compute all scores from aligned prediction vectors."""
        return cls(
            per_class_f1=f1_per_class(y_true, y_pred, labels=labels),
            accuracy=accuracy_score(y_true, y_pred),
            macro_f1=macro_f1(y_true, y_pred, labels=labels),
            support=support_per_class(y_true, labels),
        )

    @classmethod
    def average(
        cls, scores: list["ClassificationScores"]
    ) -> "ClassificationScores":
        """Mean of several score sets (the paper's repetition average)."""
        if not scores:
            raise EvaluationError("cannot average zero score sets")
        labels = list(scores[0].per_class_f1)
        return cls(
            per_class_f1={
                label: float(
                    np.mean([s.per_class_f1[label] for s in scores])
                )
                for label in labels
            },
            accuracy=float(np.mean([s.accuracy for s in scores])),
            macro_f1=float(np.mean([s.macro_f1 for s in scores])),
            support=scores[0].support,
        )


@dataclass
class CVResult:
    """Outcome of a repeated cross-validation run."""

    scores: ClassificationScores
    confusion: np.ndarray
    labels: tuple[CellClass, ...] = CONTENT_CLASSES
    per_repetition: list[ClassificationScores] = field(default_factory=list)

    @property
    def macro_f1_std(self) -> float:
        """Standard deviation of macro-F1 across repetitions.

        Zero for single-repetition runs; the paper repeats its
        10-fold CV ten times precisely to average this variability
        away.
        """
        if len(self.per_repetition) < 2:
            return 0.0
        return float(
            np.std([s.macro_f1 for s in self.per_repetition], ddof=1)
        )

    @property
    def accuracy_std(self) -> float:
        """Standard deviation of accuracy across repetitions."""
        if len(self.per_repetition) < 2:
            return 0.0
        return float(
            np.std([s.accuracy for s in self.per_repetition], ddof=1)
        )


# ----------------------------------------------------------------------
# Single train/test evaluations
# ----------------------------------------------------------------------
def evaluate_lines(
    model: LineAlgorithm,
    files: list[AnnotatedFile],
    exclude_derived: bool = False,
    keys: list | None = None,
) -> tuple[list[CellClass], list[CellClass]]:
    """Collect ``(y_true, y_pred)`` over the non-empty lines of ``files``.

    ``exclude_derived`` drops derived lines from the evaluation — the
    paper's treatment of Pytheas, which has no derived class.  When
    ``keys`` is a list, an identifying ``(file, line)`` tuple is
    appended for every evaluated element (used by the ensemble
    confusion matrices).
    """
    y_true: list[CellClass] = []
    y_pred: list[CellClass] = []
    for annotated in files:
        predictions = model.predict(annotated.table)
        for i in annotated.non_empty_line_indices():
            truth = annotated.line_labels[i]
            if exclude_derived and truth is CellClass.DERIVED:
                continue
            y_true.append(truth)
            y_pred.append(predictions[i])
            if keys is not None:
                keys.append((annotated.name, i))
    return y_true, y_pred


def evaluate_cells(
    model: CellAlgorithm,
    files: list[AnnotatedFile],
    keys: list | None = None,
) -> tuple[list[CellClass], list[CellClass]]:
    """Collect ``(y_true, y_pred)`` over the non-empty cells of ``files``."""
    y_true: list[CellClass] = []
    y_pred: list[CellClass] = []
    for annotated in files:
        predictions = model.predict(annotated.table)
        for i, j, truth in annotated.non_empty_cell_items():
            y_true.append(truth)
            y_pred.append(predictions.get((i, j), CellClass.DATA))
            if keys is not None:
                keys.append((annotated.name, i, j))
    return y_true, y_pred


# ----------------------------------------------------------------------
# Ensemble voting (Figure 3 protocol)
# ----------------------------------------------------------------------
def _rarity_order(y_true_by_key: dict) -> dict[CellClass, int]:
    """Classes ranked rarest-first, for tie-breaking ensemble votes."""
    counts = Counter(y_true_by_key.values())
    ranked = sorted(CONTENT_CLASSES, key=lambda c: counts.get(c, 0))
    return {label: rank for rank, label in enumerate(ranked)}


def majority_vote(
    votes_by_key: dict, y_true_by_key: dict
) -> tuple[list[CellClass], list[CellClass]]:
    """Ensemble predictions: per-element majority, rare-class ties.

    The paper: "To resolve possible ties, we stipulate that the fewer
    instances of a class included in the dataset, the more prior the
    class is."
    """
    rarity = _rarity_order(y_true_by_key)
    y_true: list[CellClass] = []
    y_pred: list[CellClass] = []
    for key, votes in votes_by_key.items():
        counts = Counter(votes)
        best = max(counts.items(), key=lambda kv: (kv[1], -rarity[kv[0]]))
        y_true.append(y_true_by_key[key])
        y_pred.append(best[0])
    return y_true, y_pred


# ----------------------------------------------------------------------
# Repeated grouped cross-validation
# ----------------------------------------------------------------------
def _cross_validate(
    corpus: Corpus,
    factory: Callable[[], object],
    collect: Callable,
    n_splits: int,
    n_repeats: int,
    seed: int | None,
    labels: tuple[CellClass, ...],
    **collect_kwargs,
) -> CVResult:
    names = [annotated.name for annotated in corpus.files]
    by_name = {annotated.name: annotated for annotated in corpus.files}
    splitter = RepeatedGroupKFold(
        n_splits=n_splits, n_repeats=n_repeats, random_state=seed
    )

    votes_by_key: dict = {}
    truth_by_key: dict = {}
    per_repetition: list[ClassificationScores] = []
    repetition_true: list[CellClass] = []
    repetition_pred: list[CellClass] = []
    current_repetition = 0

    def flush_repetition() -> None:
        nonlocal repetition_true, repetition_pred
        if repetition_true:
            per_repetition.append(
                ClassificationScores.from_predictions(
                    repetition_true, repetition_pred, labels=labels
                )
            )
        repetition_true, repetition_pred = [], []

    metrics = get_metrics()
    with get_tracer().span(
        "cross_validate", n_splits=n_splits, n_repeats=n_repeats
    ):
        for repetition, train_groups, test_groups in splitter.split(
            names
        ):
            if repetition != current_repetition:
                flush_repetition()
                current_repetition = repetition
            model = factory()
            # The fold is timed explicitly (not via span duration)
            # so the timer works under the default NullTracer too.
            fold_started = time.perf_counter()
            with get_tracer().span("cv_fold", repetition=repetition):
                model.fit([by_name[n] for n in sorted(train_groups)])
                keys: list = []
                y_true, y_pred = collect(
                    model,
                    [by_name[n] for n in sorted(test_groups)],
                    keys=keys,
                    **collect_kwargs,
                )
            metrics.increment("cv.folds")
            metrics.observe(
                "cv.fold_seconds", time.perf_counter() - fold_started
            )
            repetition_true.extend(y_true)
            repetition_pred.extend(y_pred)
            for key, truth, prediction in zip(keys, y_true, y_pred):
                votes_by_key.setdefault(key, []).append(prediction)
                truth_by_key[key] = truth
        flush_repetition()

    ensemble_true, ensemble_pred = majority_vote(votes_by_key, truth_by_key)
    confusion = confusion_matrix(
        ensemble_true, ensemble_pred, labels=labels, normalize=True
    )
    return CVResult(
        scores=ClassificationScores.average(per_repetition),
        confusion=confusion,
        labels=labels,
        per_repetition=per_repetition,
    )


def cross_validate_lines(
    corpus: Corpus,
    factory: Callable[[], LineAlgorithm],
    n_splits: int = 10,
    n_repeats: int = 10,
    seed: int | None = 0,
    exclude_derived: bool = False,
) -> CVResult:
    """Repeated grouped CV of a line algorithm over ``corpus``."""
    labels = tuple(
        c
        for c in CONTENT_CLASSES
        if not (exclude_derived and c is CellClass.DERIVED)
    )
    return _cross_validate(
        corpus, factory, evaluate_lines, n_splits, n_repeats, seed,
        labels, exclude_derived=exclude_derived,
    )


def cross_validate_cells(
    corpus: Corpus,
    factory: Callable[[], CellAlgorithm],
    n_splits: int = 10,
    n_repeats: int = 10,
    seed: int | None = 0,
) -> CVResult:
    """Repeated grouped CV of a cell algorithm over ``corpus``."""
    return _cross_validate(
        corpus, factory, evaluate_cells, n_splits, n_repeats, seed,
        CONTENT_CLASSES,
    )


# ----------------------------------------------------------------------
# Transfer evaluation (Troy / Mendeley protocol)
# ----------------------------------------------------------------------
def transfer_lines(
    train: Corpus, test: Corpus, factory: Callable[[], LineAlgorithm]
) -> ClassificationScores:
    """Train on one corpus, evaluate lines on another."""
    model = factory()
    model.fit(train.files)
    y_true, y_pred = evaluate_lines(model, test.files)
    return ClassificationScores.from_predictions(y_true, y_pred)


def transfer_cells(
    train: Corpus, test: Corpus, factory: Callable[[], CellAlgorithm]
) -> ClassificationScores:
    """Train on one corpus, evaluate cells on another."""
    model = factory()
    model.fit(train.files)
    y_true, y_pred = evaluate_cells(model, test.files)
    return ClassificationScores.from_predictions(y_true, y_pred)
