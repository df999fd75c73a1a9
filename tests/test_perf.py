"""The perf subsystem: the process fan-out helper and parity.

The contract under test everywhere here: performance machinery may
change *when* work happens (worker pools), never *what* it computes —
parity tests compare byte-for-byte, and the cross-validation scores
are pinned to exact values.
"""

from __future__ import annotations

import hashlib
import pickle

import numpy as np
import pytest

from repro.core.strudel import (
    StrudelCellClassifier,
    StrudelLineClassifier,
    StrudelPipeline,
)
from repro.eval.runner import cross_validate_cells, cross_validate_lines
from repro.ml.forest import RandomForestClassifier
from repro.obs import get_metrics
from repro.perf.pool import effective_jobs, parallel_map


# ----------------------------------------------------------------------
# Fan-out helpers
# ----------------------------------------------------------------------
def test_effective_jobs_semantics():
    assert effective_jobs(None, 10) == 1
    assert effective_jobs(1, 10) == 1
    assert effective_jobs(4, 10) == 4
    assert effective_jobs(4, 2) == 2  # clamped to the task count
    assert effective_jobs(4, 1) == 1
    assert effective_jobs(0, 10) >= 1  # "all cores" resolves positive


def _square(x: int) -> int:
    return x * x


def test_parallel_map_preserves_order():
    items = list(range(20))
    sequential = parallel_map(_square, items, n_jobs=1)
    pooled = parallel_map(_square, items, n_jobs=2)
    assert sequential == pooled == [x * x for x in items]


def test_parallel_map_processes_fall_back_on_unpicklable_work():
    # Lambdas cannot be shipped to a process pool; the helper must
    # degrade to the (equivalent) sequential path instead of raising —
    # and must say so, not degrade silently.
    items = list(range(8))
    with pytest.warns(RuntimeWarning, match="degrading to sequential"):
        result = parallel_map(lambda x: x + 1, items, n_jobs=4)
    assert result == [x + 1 for x in items]


class _Unpicklable:
    """A payload the pool machinery can never ship to a worker."""

    def __reduce__(self):
        raise pickle.PicklingError("not shippable")


def _type_name(item) -> str:
    return type(item).__name__


def test_parallel_map_pool_degradation_is_recorded():
    # Infrastructure failure (unpicklable *payload*, not a work
    # error): correct results via the sequential path, plus a warning
    # and a metrics counter so the degradation is observable.
    items = [_Unpicklable(), _Unpicklable()]
    before = get_metrics().counter("parallel.pool_degraded")
    with pytest.warns(RuntimeWarning, match="PicklingError"):
        result = parallel_map(_type_name, items, n_jobs=2)
    assert result == ["_Unpicklable", "_Unpicklable"]
    assert get_metrics().counter("parallel.pool_degraded") == before + 1


def _record_and_maybe_fail(arg: tuple[str, int]) -> int:
    """Append a marker per invocation (visible across processes),
    then fail on the designated item."""
    path, item = arg
    with open(path, "a") as handle:
        handle.write(f"{item}\n")
    if item == 3:
        raise ValueError(f"work error on item {item}")
    return item


def test_parallel_map_work_error_propagates_exactly_once(tmp_path):
    # A work-function exception is NOT pool infrastructure: it must
    # surface with its original type, and the failing item must have
    # run exactly once — never re-run sequentially after the pool
    # already executed it (the old bare-except masked the error and
    # doubled the work).
    marker = tmp_path / "calls.txt"
    work = [(str(marker), item) for item in range(6)]
    with pytest.raises(ValueError, match="work error on item 3"):
        parallel_map(_record_and_maybe_fail, work, n_jobs=2)
    calls = marker.read_text().splitlines()
    assert calls.count("3") == 1


# ----------------------------------------------------------------------
# Determinism parity: parallelism never changes results
# ----------------------------------------------------------------------
def _toy_classification(seed: int = 7, n: int = 120, d: int = 6):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = (X[:, 0] + X[:, 1] > 0).astype(int) + (X[:, 2] > 1).astype(int)
    return X, y


def test_forest_parallel_fit_is_byte_identical():
    X, y = _toy_classification()
    sequential = RandomForestClassifier(
        n_estimators=12, random_state=3, n_jobs=1
    ).fit(X, y)
    parallel = RandomForestClassifier(
        n_estimators=12, random_state=3, n_jobs=3
    ).fit(X, y)

    np.testing.assert_array_equal(
        sequential.predict_proba(X), parallel.predict_proba(X)
    )
    np.testing.assert_array_equal(
        sequential.feature_importances_, parallel.feature_importances_
    )


def test_pipeline_jobs_and_cache_are_byte_identical(tiny_corpus):
    files = tiny_corpus.files
    text = "\n".join(
        ",".join(row) for row in files[0].table.rows()
    )

    baseline = StrudelPipeline(n_estimators=8, random_state=0)
    baseline.fit(files)
    expected = baseline.analyze(text)

    tuned = StrudelPipeline(n_estimators=8, random_state=0, n_jobs=2)
    tuned.fit(files)
    result = tuned.analyze(text)

    assert result.line_classes == expected.line_classes
    assert result.cell_classes == expected.cell_classes
    np.testing.assert_array_equal(
        baseline.line_classifier._model.feature_importances_,
        tuned.line_classifier._model.feature_importances_,
    )
    np.testing.assert_array_equal(
        baseline.cell_classifier._model.feature_importances_,
        tuned.cell_classifier._model.feature_importances_,
    )


#: Strudel-L line and Strudel-C cell CV on ``tiny_corpus`` (4 trees, 3
#: splits, 1 repeat, seed 0): macro-F1, accuracy and the SHA-256 of
#: ``confusion.tobytes()``.  Seeds are fixed, so any change to these
#: numbers is a behaviour change that must be explained.
_PINNED_CV = {
    "line": (
        0.8818206885133898,
        0.9184397163120568,
        "10005db38d70d057a65e35763c69612b2c06c0cb6c28afe2a2ab6c94c2a6e5ff",
    ),
    "cell": (
        0.8365665840199065,
        0.8830219333874898,
        "78ba84cb28b24b4b2453e54a37802465fb0c1f48bfa7455eb98f4710ebcadd43",
    ),
}


@pytest.mark.parametrize("n_jobs", [1, 2])
def test_cross_validation_scores_are_pinned(tiny_corpus, n_jobs):
    runs = {
        "line": cross_validate_lines(
            tiny_corpus,
            lambda: StrudelLineClassifier(
                n_estimators=4, random_state=0, n_jobs=n_jobs
            ),
            n_splits=3, n_repeats=1, seed=0,
        ),
        "cell": cross_validate_cells(
            tiny_corpus,
            lambda: StrudelCellClassifier(
                n_estimators=4, random_state=0, n_jobs=n_jobs
            ),
            n_splits=3, n_repeats=1, seed=0,
        ),
    }
    for granularity, result in runs.items():
        macro, accuracy, confusion_digest = _PINNED_CV[granularity]
        assert result.scores.macro_f1 == macro, granularity
        assert result.scores.accuracy == accuracy, granularity
        assert (
            hashlib.sha256(result.confusion.tobytes()).hexdigest()
            == confusion_digest
        ), granularity
