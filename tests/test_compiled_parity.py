"""Byte-identity of compiled forest inference with the per-tree loop.

The compiled traversal (:mod:`repro.ml.compiled`) is a pure
performance substitution: for every fitted forest and every input —
including NaNs, empty batches, single-leaf trees and forests whose
bootstraps missed a rare class — ``predict_proba`` must reproduce the
per-tree loop (:func:`per_tree_predict_proba`, the oracle kept here)
**bit for bit** (``.tobytes()`` equality), not merely up to
tolerance.  Anything weaker would let chunking or compaction choices
leak into model outputs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import InvalidParameterError, NotFittedError
from repro.ml.base import check_fitted, check_X
from repro.ml.compiled import CompiledForest
from repro.ml.forest import RandomForestClassifier
from repro.obs import get_metrics


def per_tree_predict_proba(
    forest: RandomForestClassifier, X: np.ndarray
) -> np.ndarray:
    """The per-tree Python-loop prediction path, the parity oracle.

    One batched descent per tree, aligned onto the forest's global
    class order and accumulated in tree order, then divided by the
    tree count.
    """
    check_fitted(forest, "estimators_")
    X = check_X(X, forest.n_features_)
    class_index = {c: i for i, c in enumerate(forest.classes_)}
    total = np.zeros(
        (X.shape[0], len(forest.classes_)), dtype=np.float64
    )
    for tree in forest.estimators_:
        columns = np.array(
            [class_index[c] for c in tree.classes_], dtype=np.intp
        )
        total[:, columns] += tree.predict_proba(X)
    total /= len(forest.estimators_)
    return total


def _fit(n=300, n_features=5, n_estimators=12, seed=0, **params):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, n_features))
    y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(int) + (X[:, 2] > 1.2)
    forest = RandomForestClassifier(
        n_estimators=n_estimators, random_state=seed, **params
    ).fit(X, y)
    return forest, X


def _assert_bit_identical(forest, X):
    oracle = per_tree_predict_proba(forest, X)
    compiled = forest.predict_proba(X)
    assert compiled.dtype == oracle.dtype
    assert compiled.shape == oracle.shape
    assert compiled.tobytes() == oracle.tobytes()


class TestByteParity:
    def test_training_matrix(self):
        forest, X = _fit()
        _assert_bit_identical(forest, X)

    @pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 257, 2049])
    def test_batch_sizes_straddling_chunks(self, n):
        # chunk_rows = max(32, 16384 // n_features); sizes around the
        # chunk boundary exercise full chunks, partial chunks and the
        # merged tail in different mixes.
        forest, _ = _fit(n_features=512, n_estimators=6)
        rng = np.random.default_rng(7)
        X = rng.normal(size=(n, 512))
        _assert_bit_identical(forest, X)

    def test_multiple_chunks(self):
        forest, _ = _fit(n_features=5, n_estimators=8)
        rng = np.random.default_rng(1)
        # chunk_rows is 3276 for 5 features: force several chunks.
        X = rng.normal(size=(7000, 5))
        _assert_bit_identical(forest, X)

    def test_nan_features_follow_legacy_comparison(self):
        # NaN <= threshold is False, so NaN rows must go right in both
        # paths; the compiled gather must not special-case them.
        forest, X = _fit()
        X = X.copy()
        X[::3, 1] = np.nan
        X[1::5] = np.nan
        _assert_bit_identical(forest, X)

    def test_extreme_values(self):
        forest, X = _fit()
        X = X.copy()
        X[0] = np.inf
        X[1] = -np.inf
        X[2] = 0.0
        _assert_bit_identical(forest, X)

    def test_zero_row_input(self):
        forest, _ = _fit()
        X = np.empty((0, 5))
        _assert_bit_identical(forest, X)
        assert forest.predict_proba(X).shape == (0, len(forest.classes_))

    def test_fortran_ordered_input(self):
        forest, X = _fit()
        _assert_bit_identical(forest, np.asfortranarray(X))


class TestDegenerateForests:
    def test_single_leaf_trees(self):
        # A constant label yields trees that are exactly one leaf: the
        # frontier finishes on the first iteration everywhere.
        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 3))
        y = np.zeros(40, dtype=int)
        forest = RandomForestClassifier(
            n_estimators=5, random_state=0
        ).fit(X, y)
        assert all(
            len(tree._feature) == 1 for tree in forest.estimators_
        )
        _assert_bit_identical(forest, X)
        assert forest.compile().predict_proba(X).tobytes() == np.ones(
            (40, 1)
        ).tobytes()

    def test_tree_missing_a_rare_class(self):
        # A tree whose training slice never saw class 2 has a 2-class
        # local order; the pre-aligned proba columns must add exact
        # +0.0 for the missing class so the compiled accumulation
        # matches the oracle's column-scatter bit for bit.
        rng = np.random.default_rng(0)
        X = rng.normal(size=(60, 3))
        y = np.array([0] * 30 + [1] * 28 + [2] * 2)
        forest = RandomForestClassifier(
            n_estimators=6, random_state=0
        ).fit(X, y)
        from repro.ml.tree import DecisionTreeClassifier

        narrow = DecisionTreeClassifier(random_state=0).fit(
            X[:58], y[:58]  # the slice without class 2
        )
        assert len(narrow.classes_) == 2
        forest.estimators_ = forest.estimators_[:-1] + [narrow]
        forest._compiled = None
        _assert_bit_identical(forest, X)

    def test_stump_forest(self):
        forest, X = _fit(max_depth=1, n_estimators=4)
        _assert_bit_identical(forest, X)

    def test_wide_forest_falls_back_to_int64_tables(self):
        # Enough duplicated trees to push 2 * n_nodes past the int16
        # range: the traversal must transparently widen its node
        # tables and stay byte-identical.
        forest, X = _fit(n=400, n_estimators=1, max_depth=None)
        tree = forest.estimators_[0]
        copies = (2 * np.iinfo(np.int16).max) // len(tree._feature) + 2
        forest.n_estimators = copies
        forest.estimators_ = [tree] * copies
        forest._compiled = None
        compiled = forest.compile()
        assert compiled._index_dtype == np.int64
        assert 2 * compiled.n_nodes > np.iinfo(np.int16).max
        _assert_bit_identical(forest, X[:50])


class TestValidation:
    def test_feature_width_mismatch(self):
        forest, _ = _fit()
        with pytest.raises(InvalidParameterError):
            forest.compile().predict_proba(np.zeros((3, 4)))

    def test_one_dimensional_input(self):
        forest, _ = _fit()
        with pytest.raises(InvalidParameterError):
            forest.compile().predict_proba(np.zeros(5))

    def test_unfitted_forest_not_compilable(self):
        with pytest.raises(NotFittedError):
            RandomForestClassifier().compile()
        with pytest.raises(InvalidParameterError):
            CompiledForest.from_forest(RandomForestClassifier())

    def test_mismatched_tensor_lengths_rejected(self):
        with pytest.raises(InvalidParameterError):
            CompiledForest(
                feature=np.array([-1, -1]),
                threshold=np.zeros(1),  # wrong length
                left=np.array([-1, -1]),
                right=np.array([-1, -1]),
                proba=np.ones((2, 1)),
                roots=np.array([0, 1]),
                classes=np.array([0]),
                n_features=3,
                tree_classes=np.array([0, 0]),
                tree_class_offsets=np.array([0, 1, 2]),
            )

    def test_mismatched_proba_shape_rejected(self):
        with pytest.raises(InvalidParameterError):
            CompiledForest(
                feature=np.array([-1]),
                threshold=np.zeros(1),
                left=np.array([-1]),
                right=np.array([-1]),
                proba=np.ones((1, 2)),  # 2 columns, 1 class
                roots=np.array([0]),
                classes=np.array([0]),
                n_features=3,
                tree_classes=np.array([0]),
                tree_class_offsets=np.array([0, 1]),
            )


class TestCompiledStructure:
    def test_compile_memoized_and_counted(self):
        forest, _ = _fit(n_estimators=3)
        metrics = get_metrics()
        before = metrics.counter("compiled_forest.compiles")
        compiled = forest.compile()
        assert forest.compile() is compiled
        assert metrics.counter("compiled_forest.compiles") == before + 1

    def test_refit_invalidates_compiled_cache(self):
        forest, X = _fit(n_estimators=3)
        first = forest.compile()
        y = (X[:, 0] > 0).astype(int)
        forest.fit(X, y)
        assert forest._compiled is None
        assert forest.compile() is not first

    def test_decompile_reconstructs_trees_exactly(self):
        forest, X = _fit(n_estimators=6)
        rebuilt = forest.compile().decompile()
        assert len(rebuilt) == len(forest.estimators_)
        for original, copy in zip(forest.estimators_, rebuilt):
            assert np.array_equal(original._feature, copy._feature)
            assert original._threshold.tobytes() == (
                copy._threshold.tobytes()
            )
            assert np.array_equal(original._left, copy._left)
            assert np.array_equal(original._right, copy._right)
            assert original._proba.tobytes() == copy._proba.tobytes()
            assert np.array_equal(original.classes_, copy.classes_)

    def test_predict_matches_legacy_argmax(self):
        forest, X = _fit()
        compiled = forest.compile()
        oracle = forest.classes_[
            np.argmax(per_tree_predict_proba(forest, X), axis=1)
        ]
        assert np.array_equal(compiled.predict(X), oracle)


class TestStrudelParity:
    """Parity on the real feature matrices the pipeline produces."""

    def test_line_and_cell_matrices(self, train_test_files):
        from repro.core.strudel import StrudelCellClassifier

        train, test = train_test_files
        model = StrudelCellClassifier(n_estimators=8, random_state=0)
        model.fit(train)
        for annotated in test[:2]:
            inference = model.line_classifier.infer(annotated.table)
            _assert_bit_identical(
                model.line_classifier._model,
                inference.features[:, model.line_classifier._columns],
            )
            _, features = model.extract_cells(
                annotated.table, inference.probabilities
            )
            _assert_bit_identical(
                model._model, features[:, model._columns]
            )
