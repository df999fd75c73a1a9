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

from dataclasses import replace

import numpy as np
import pytest

from bench import inputs
from repro.core.strudel import (
    StrudelCellClassifier,
    StrudelPipeline,
    _apply_columns,
    _codes_from,
    align_class_probabilities,
)
from repro.datagen.corpora import CORPUS_BUILDERS, make_corpus
from repro.errors import InvalidParameterError, NotFittedError
from repro.io.cropping import crop_table
from repro.io.ingest import ingest_bytes
from repro.ml.base import check_fitted, check_X
from repro.ml.compiled import CompiledForest, _phases
from repro.ml.forest import RandomForestClassifier
from repro.ml.tree import DecisionTreeClassifier
from repro.obs import get_metrics, get_tracer
from repro.types import CellClass, Table
from tests.test_profile_parity import ALL_TABLES


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
    """``predict_proba`` is the oracle's bit for bit, and ``predict``
    its argmax."""
    oracle = per_tree_predict_proba(forest, X)
    compiled = forest.predict_proba(X)
    assert compiled.dtype == oracle.dtype
    assert compiled.shape == oracle.shape
    assert compiled.tobytes() == oracle.tobytes()
    _assert_predict_is_argmax(forest, X, oracle)


def _assert_predict_is_argmax(forest, X, oracle=None):
    """``predict`` (compiled and through the forest) equals the class
    of the oracle's largest averaged probability, ties to the lower
    class index."""
    if oracle is None:
        oracle = per_tree_predict_proba(forest, X)
    want = forest.classes_[np.argmax(oracle, axis=1)]
    for got in (forest.compile().predict(X), forest.predict(X)):
        assert got.dtype == want.dtype
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


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


# ----------------------------------------------------------------------
# predict: the argmax of the vote, settled early
# ----------------------------------------------------------------------
def _voting_forest(votes: np.ndarray) -> RandomForestClassifier:
    """A hand-built forest whose tree ``t`` gives row ``i`` of
    ``X = arange(n)[:, None]`` the class probabilities
    ``votes[i, t]``.

    Each tree is a chain of splits ``x <= k + 0.5`` on the one
    feature, with one leaf per row, so every row's votes are set
    independently.
    """
    n_rows, n_trees, n_classes = votes.shape
    n_inner = n_rows - 1
    n_nodes = n_inner + n_rows
    trees = []
    for t in range(n_trees):
        tree = DecisionTreeClassifier()
        tree._feature = np.full(n_nodes, -1)
        tree._threshold = np.zeros(n_nodes)
        tree._left = np.full(n_nodes, -1)
        tree._right = np.full(n_nodes, -1)
        for k in range(n_inner):
            tree._feature[k] = 0
            tree._threshold[k] = k + 0.5
            tree._left[k] = n_inner + k
            tree._right[k] = k + 1 if k + 1 < n_inner else n_nodes - 1
        tree._proba = np.zeros((n_nodes, n_classes))
        tree._proba[n_inner:] = votes[:, t]
        tree.classes_ = np.arange(n_classes)
        tree.n_features_ = 1
        trees.append(tree)
    forest = RandomForestClassifier(n_estimators=n_trees)
    forest.estimators_ = trees
    forest.classes_ = np.arange(n_classes)
    forest.n_features_ = 1
    return forest


def _rows(n: int) -> np.ndarray:
    return np.arange(n, dtype=np.float64)[:, None]


def _partial_votes(votes: np.ndarray, end: int) -> np.ndarray:
    """Each row's votes summed over trees ``0:end`` in tree order."""
    total = np.zeros((votes.shape[0], votes.shape[2]))
    for t in range(end):
        total += votes[:, t]
    return total


def _near_tie(n_trees: int, end: int, offset: float) -> np.ndarray:
    """One row's ``(n_trees, 2)`` votes: class 1 leads class 0 by
    ``n_trees - end + offset`` after ``end`` trees, and every later
    tree votes wholly for class 0, the lower index.

    So the final sums differ by ``offset``: an exact tie (offset 0)
    goes to class 0, and only a row that was wrongly settled early can
    end on class 1 with ``offset <= 0``.  Tree 0 carries the fraction
    ``x``; the next ``a`` trees vote for class 1, the rest for class 0.
    Offsets that are multiples of ``2**-46`` keep every partial sum
    exact for up to 63 trees.
    """
    if n_trees % 2:
        x0 = 0.5
    else:
        x0 = 0.0 if offset >= 0 else 1.0
    x = x0 + offset / 2
    a = int(n_trees - 2 * x0) // 2
    votes = np.zeros((n_trees, 2))
    votes[0] = (1.0 - x, x)
    votes[1:1 + a] = (0.0, 1.0)
    votes[1 + a:] = (1.0, 0.0)
    return votes


_NEAR = 2.0**-46


class TestPredict:
    """``predict`` settles rows early; every parity test above also
    checks it against the oracle's argmax."""

    @pytest.mark.parametrize("n_trees", [1, 2, 3, 4, 40, 41])
    def test_forest_sizes_with_nan_and_inf(self, n_trees):
        forest, X = _fit(n=400, n_estimators=n_trees)
        X = X.copy()
        X[::7, 1] = np.nan
        X[3::11] = np.nan
        X[5::13, 0] = np.inf
        X[6::13, 2] = -np.inf
        _assert_bit_identical(forest, X)

    def test_phase_ends_derive_from_the_tree_count(self):
        assert _phases(40) == ((0, 21), (21, 26), (26, 40))
        assert _phases(41) == ((0, 21), (21, 27), (27, 41))
        assert _phases(4) == ((0, 3), (3, 4))
        assert _phases(3) == ((0, 2), (2, 3))
        assert _phases(2) == ((0, 2),)
        assert _phases(1) == ((0, 1),)

    @pytest.mark.parametrize("n_trees", [3, 4, 40, 41])
    def test_near_ties_at_every_phase_end(self, n_trees):
        """At each settling check, rows whose lead is exactly the
        number of trees left, or a few ulp either side of it, get the
        oracle's class; an exact final tie goes to the lower index."""
        cases = [
            (end, offset)
            for _first, end in _phases(n_trees)[:-1]
            for offset in (-4 * _NEAR, -_NEAR, 0.0, _NEAR, 4 * _NEAR)
        ]
        votes = np.stack([_near_tie(n_trees, e, o) for e, o in cases])
        for row, (end, offset) in enumerate(cases):
            lead = np.diff(_partial_votes(votes[row:row + 1], end)[0])[0]
            assert lead == n_trees - end + offset
        forest = _voting_forest(votes)
        _assert_predict_is_argmax(forest, _rows(len(cases)))
        want = [1 if offset > 0 else 0 for _end, offset in cases]
        assert forest.predict(_rows(len(cases))).tolist() == want

    @pytest.mark.parametrize("n_trees", [3, 4, 40, 41])
    def test_settles_exactly_the_rows_that_lead_by_more_than_the_trees_left(
        self, n_trees, monkeypatch
    ):
        """Each phase after the first traverses exactly the rows whose
        lead at the previous check is at most the trees left plus the
        slack; a row leading by exactly that much goes on."""
        cases = [
            _near_tie(n_trees, end, offset)
            for _first, end in _phases(n_trees)[:-1]
            for offset in (-_NEAR, 0.0, _NEAR)
        ]
        cases.append(np.tile([0.0, 1.0], (n_trees, 1)))  # unanimous
        cases.append(np.tile([0.75, 0.25], (n_trees, 1)))
        forest = _voting_forest(np.stack(cases))
        compiled = forest.compile()
        if n_trees == 4:
            # A lead of exactly one tree plus the slack after 3 trees.
            slack = (1.0 + compiled._slack) - 1.0
            row = _near_tie(4, 3, slack)
            lead = np.diff(_partial_votes(row[None], 3)[0])[0]
            assert lead == 1.0 + compiled._slack
            cases.append(row)
            forest = _voting_forest(np.stack(cases))
            compiled = forest.compile()
        votes = np.stack(cases)
        calls = []
        real = CompiledForest._traverse

        def traverse(self, X, first, last):
            calls.append((first, last, X.shape[0]))
            return real(self, X, first, last)

        monkeypatch.setattr(CompiledForest, "_traverse", traverse)
        compiled.predict(_rows(len(cases)))
        going = np.ones(len(cases), dtype=bool)
        want = []
        for first, last in compiled._phases:
            if not going.any():
                break
            want.append((first, last, int(going.sum())))
            left = n_trees - last
            if left:
                top = np.sort(_partial_votes(votes, last), axis=1)
                going &= top[:, -1] - top[:, -2] <= left + compiled._slack
        assert calls == want
        assert len(want) > 1
        monkeypatch.undo()
        _assert_predict_is_argmax(forest, _rows(len(cases)))

    @pytest.mark.parametrize(
        "fractions",
        [(0.53, 0.9, 0.07), (0.78, 0.65, 0.07), (0.53, 0.67, 0.3)],
    )
    def test_unsettled_rows_are_summed_in_tree_order(self, fractions):
        """Rows whose class depends on the order of the float sums: the
        tree-order sum gives the oracle's class, any other order of the
        four trees a different one."""
        votes = np.array(
            [[[1.0 - p, p] for p in (*fractions, 0.5)]]
        )
        orders = ([0, 1, 2, 3], [3, 0, 1, 2], [2, 1, 0, 3], [0, 1, 3, 2])
        classes = []
        for order in orders:
            total = np.zeros(2)
            for t in order:
                total += votes[0, t]
            classes.append(int(np.argmax(total / 4)))
        assert classes[0] not in classes[1:]
        forest = _voting_forest(votes)
        _assert_predict_is_argmax(forest, _rows(1))
        assert forest.predict(_rows(1)).tolist() == [classes[0]]


# ----------------------------------------------------------------------
# predict on the pipeline's real matrices
# ----------------------------------------------------------------------
def legacy_codes_from_features(self, features: np.ndarray) -> np.ndarray:
    """``StrudelCellClassifier.codes_from_features`` before ``predict``
    settled rows early, verbatim: the probabilities aligned onto the
    six classes, then their argmax."""
    self._require_fitted()
    with get_tracer().span("cell_prediction"):
        if not len(features):
            return np.zeros(0, dtype=np.int8)
        raw = self._model.predict_proba(
            _apply_columns(features, self._columns)
        )
        return _codes_from(
            align_class_probabilities(
                raw, self._model.classes_, features.shape[0]
            )
        )


@pytest.fixture(scope="module")
def pipeline40(tiny_corpus):
    """A pipeline with the benchmark model's 40 trees per forest."""
    return StrudelPipeline(n_estimators=40, random_state=0).fit(
        tiny_corpus.files
    )


def _tables_of_every_personality() -> list[Table]:
    return [
        crop_table(file.table)
        for personality in sorted(CORPUS_BUILDERS)
        for file in make_corpus(personality, seed=7, scale=0.02).files[:3]
    ]


def _matrices(pipeline, table: Table) -> tuple[np.ndarray, np.ndarray]:
    """A table's line and cell matrices, as the pipeline builds them."""
    line, cells = pipeline.line_classifier, pipeline.cell_classifier
    inference = line.infer(table)
    return inference.features, cells.cell_matrix(table, inference.probabilities)


class TestPredictOnPipelineMatrices:
    def test_line_and_cell_matrices_of_every_personality(self, pipeline40):
        line, cells = pipeline40.line_classifier, pipeline40.cell_classifier
        pairs = [_matrices(pipeline40, t) for t in _tables_of_every_personality()]
        for index in (0, 1):
            forest = (line, cells)[index]._model
            stacked = np.concatenate([pair[index] for pair in pairs])
            _assert_predict_is_argmax(forest, stacked)
            for pair in pairs:
                _assert_predict_is_argmax(forest, pair[index])

    def test_cell_matrices_of_the_800_row_deck_files(self, pipeline40):
        deck = [s for s in inputs.deck(0) if s.kind == "r800"]
        assert len(deck) == 12
        matrices = [
            _matrices(pipeline40, crop_table(ingest_bytes(s.data).table))[1]
            for s in deck
        ]
        _assert_predict_is_argmax(
            pipeline40.cell_classifier._model, np.concatenate(matrices)
        )

    def test_codes_match_the_aligned_argmax_on_every_parity_table(
        self, pipeline40
    ):
        cells = pipeline40.cell_classifier
        for name, table in ALL_TABLES:
            features = _matrices(pipeline40, table)[1]
            got = cells.codes_from_features(features)
            want = legacy_codes_from_features(cells, features)
            assert got.dtype == want.dtype == np.int8, name
            assert got.tobytes() == want.tobytes(), name

    def test_codes_match_the_aligned_argmax_without_some_classes(
        self, tiny_corpus
    ):
        """A cell forest that never saw ``metadata``, ``group`` or
        ``notes``: its raw columns are classes 1, 3 and 4, and the
        aligned argmax still equals ``predict``."""
        merge = {CellClass.METADATA: CellClass.HEADER,
                 CellClass.GROUP: CellClass.DATA,
                 CellClass.NOTES: CellClass.DATA}
        files = [
            replace(
                file,
                cell_labels=[
                    [merge.get(label, label) for label in row]
                    for row in file.cell_labels
                ],
            )
            for file in tiny_corpus.files
        ]
        cells = StrudelCellClassifier(n_estimators=9, random_state=0)
        cells.fit(files)
        assert cells._model.classes_.tolist() == [1, 3, 4]
        for file in tiny_corpus.files:
            features = cells.cell_matrix(
                file.table, cells.line_classifier.predict_proba(file.table)
            )
            got = cells.codes_from_features(features)
            want = legacy_codes_from_features(cells, features)
            assert got.tobytes() == want.tobytes(), file.name
