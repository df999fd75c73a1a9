"""Byte-identity of the one-pass split search with the per-feature scan.

:meth:`DecisionTreeClassifier._best_split` searches all of a node's
candidate features at once and scores only the boundaries that can
split.  That is a pure performance substitution: for every input —
tied values, constant, NaN, ±inf and all-NaN columns, integer and
fractional weights, any ``min_samples_leaf``, ``max_features`` and
``max_depth``, one class or several — the grown tree must equal the
one the per-feature scan grows (:class:`_PerFeatureScanTree`, the
oracle kept here) **bit for bit**: ``classes_`` and the bytes of
``_feature``, ``_threshold``, ``_left``, ``_right`` and ``_proba``.
Equal trees make equal forests, predictions, cross-validation scores
and model fingerprints, so sweep caches keyed by the fingerprint keep
hitting; :func:`test_model_fingerprint_is_pinned` holds the fitted
forests themselves to a committed digest.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.ml.forest as forest_mod
import repro.ml.tree as tree_mod
from bench.spec import MODEL_CORPUS, MODEL_SCALE, MODEL_SEED, MODEL_TREES
from repro.core.strudel import StrudelPipeline
from repro.datagen.corpora import make_corpus
from repro.errors import InvalidParameterError
from repro.ml.base import check_X_y
from repro.ml.tree import _NO_FEATURE, DecisionTreeClassifier
from repro.perf.engine import model_fingerprint
from repro.util.rng import as_generator


class _PerFeatureScanTree(DecisionTreeClassifier):
    """The parity oracle: the tree grown one candidate feature at a
    time, every boundary scored, and each node's class weights counted
    twice (``fit`` and ``_best_split`` as they were before the
    one-pass search)."""

    def fit(self, X: np.ndarray, y: np.ndarray,
            sample_weight: np.ndarray | None = None) -> "DecisionTreeClassifier":
        """Grow the tree on ``(X, y)``.

        ``sample_weight`` supports the forest's bootstrap-by-weights
        optimization: integer weights are equivalent to sample
        repetition without materializing the resampled matrix.
        """
        X, y = check_X_y(X, y)
        self.classes_, encoded = np.unique(y, return_inverse=True)
        self.n_features_ = X.shape[1]
        n_classes = len(self.classes_)
        if sample_weight is None:
            sample_weight = np.ones(len(y), dtype=np.float64)
        else:
            sample_weight = np.asarray(sample_weight, dtype=np.float64)
            if sample_weight.shape != y.shape:
                raise InvalidParameterError(
                    "sample_weight must match y in length"
                )

        rng = as_generator(self.random_state)
        n_candidates = self._resolve_max_features(self.n_features_)

        features: list[int] = []
        thresholds: list[float] = []
        lefts: list[int] = []
        rights: list[int] = []
        probas: list[np.ndarray] = []

        # Pre-drop zero-weight samples (not part of this bootstrap).
        active = sample_weight > 0
        indices = np.nonzero(active)[0]

        def node_proba(idx: np.ndarray) -> np.ndarray:
            counts = np.bincount(
                encoded[idx], weights=sample_weight[idx], minlength=n_classes
            )
            total = counts.sum()
            return counts / total if total > 0 else np.full(
                n_classes, 1.0 / n_classes
            )

        def add_leaf(idx: np.ndarray) -> int:
            node = len(features)
            features.append(_NO_FEATURE)
            thresholds.append(0.0)
            lefts.append(-1)
            rights.append(-1)
            probas.append(node_proba(idx))
            return node

        # Iterative depth-first construction with an explicit stack, so
        # deep trees never hit the Python recursion limit.  Each stack
        # entry carries the slot (parent node, side) to patch with the
        # index of the node about to be created.
        stack: list[tuple[np.ndarray, int, int, int]] = [(indices, 0, -1, 0)]
        while stack:
            idx, depth, parent, side = stack.pop()
            weight_here = sample_weight[idx]
            labels_here = encoded[idx]
            total_weight = weight_here.sum()
            counts = np.bincount(
                labels_here, weights=weight_here, minlength=n_classes
            )
            pure = np.count_nonzero(counts) <= 1
            too_deep = self.max_depth is not None and depth >= self.max_depth
            too_small = total_weight < self.min_samples_split

            split = None
            if not (pure or too_deep or too_small or len(idx) < 2):
                split = self._best_split(
                    X, labels_here, weight_here, idx, counts, total_weight,
                    n_candidates, rng,
                )

            if split is None:
                node = add_leaf(idx)
            else:
                feature, threshold, left_mask = split
                node = len(features)
                features.append(feature)
                thresholds.append(threshold)
                lefts.append(-1)
                rights.append(-1)
                probas.append(node_proba(idx))
                # Push right first so the left subtree is built first,
                # preserving the depth-first order of the recursion.
                stack.append((idx[~left_mask], depth + 1, node, 1))
                stack.append((idx[left_mask], depth + 1, node, 0))

            if parent >= 0:
                if side == 0:
                    lefts[parent] = node
                else:
                    rights[parent] = node

        self._feature = np.asarray(features, dtype=np.int64)
        self._threshold = np.asarray(thresholds, dtype=np.float64)
        self._left = np.asarray(lefts, dtype=np.int64)
        self._right = np.asarray(rights, dtype=np.int64)
        self._proba = np.vstack(probas)
        return self

    def _best_split(
        self,
        X: np.ndarray,
        labels: np.ndarray,
        weights: np.ndarray,
        idx: np.ndarray,
        counts: np.ndarray,
        total_weight: float,
        n_candidates: int,
        rng: np.random.Generator,
    ) -> tuple[int, float, np.ndarray] | None:
        """Best ``(feature, threshold, left_mask)`` or ``None``.

        Evaluates the weighted Gini impurity of every distinct-value
        boundary for each candidate feature in one vectorized pass.
        """
        n_features = X.shape[1]
        if n_candidates >= n_features:
            candidates = np.arange(n_features)
        else:
            candidates = rng.choice(n_features, size=n_candidates,
                                    replace=False)

        best_score = np.inf
        best: tuple[int, float, np.ndarray] | None = None
        n_classes = len(counts)

        for feature in candidates:
            values = X[idx, feature]
            order = np.argsort(values, kind="mergesort")
            sorted_values = values[order]
            if sorted_values[0] == sorted_values[-1]:
                continue
            sorted_labels = labels[order]
            sorted_weights = weights[order]

            # Cumulative per-class weight to the left of each boundary.
            one_hot = np.zeros((len(idx), n_classes), dtype=np.float64)
            one_hot[np.arange(len(idx)), sorted_labels] = sorted_weights
            left_counts = np.cumsum(one_hot, axis=0)[:-1]
            left_weight = np.cumsum(sorted_weights)[:-1]
            right_counts = counts[None, :] - left_counts
            right_weight = total_weight - left_weight

            # Only boundaries between distinct values are valid splits.
            valid = sorted_values[1:] != sorted_values[:-1]
            # Enforce min_samples_leaf by raw sample count on each side.
            positions = np.arange(1, len(idx))
            valid &= positions >= self.min_samples_leaf
            valid &= (len(idx) - positions) >= self.min_samples_leaf
            if not np.any(valid):
                continue

            with np.errstate(divide="ignore", invalid="ignore"):
                gini_left = 1.0 - np.sum(
                    (left_counts / left_weight[:, None]) ** 2, axis=1
                )
                gini_right = 1.0 - np.sum(
                    (right_counts / right_weight[:, None]) ** 2, axis=1
                )
            score = (
                left_weight * gini_left + right_weight * gini_right
            ) / total_weight
            score[~valid] = np.inf
            pos = int(np.argmin(score))
            if score[pos] < best_score:
                threshold = 0.5 * (sorted_values[pos] + sorted_values[pos + 1])
                left_mask = values <= threshold
                # Degenerate threshold from float averaging: skip.
                if not left_mask.any() or left_mask.all():
                    continue
                best_score = float(score[pos])
                best = (int(feature), float(threshold), left_mask)
        return best


_TREE_ARRAYS = ("_feature", "_threshold", "_left", "_right", "_proba")


def assert_same_tree(tree, oracle) -> None:
    assert np.array_equal(tree.classes_, oracle.classes_)
    for name in _TREE_ARRAYS:
        assert getattr(tree, name).tobytes() == (
            getattr(oracle, name).tobytes()
        ), name


def assert_same_forests(pipeline, oracle) -> None:
    for granularity in ("line_classifier", "cell_classifier"):
        trees = getattr(pipeline, granularity)._model.estimators_
        oracle_trees = getattr(oracle, granularity)._model.estimators_
        assert len(trees) == len(oracle_trees)
        for tree, oracle_tree in zip(trees, oracle_trees):
            assert_same_tree(tree, oracle_tree)


def fit_both(X, y, sample_weight=None, **params):
    """The tree and the oracle tree, fitted on the same data."""
    tree = DecisionTreeClassifier(**params).fit(
        X, y, sample_weight=sample_weight
    )
    oracle = _PerFeatureScanTree(**params).fit(
        X, y, sample_weight=sample_weight
    )
    return tree, oracle


def awkward_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    """Eight columns with every kind of value a split must handle:
    continuous, binary, small integers with ties, a duplicate column
    (equal scores across candidates), a constant, NaN and ±inf, an
    all-NaN column, and values one ulp apart (midpoints that round onto
    a neighbour)."""
    X = np.empty((n, 8))
    X[:, 0] = rng.normal(size=n)
    X[:, 1] = rng.integers(0, 2, size=n)
    X[:, 2] = rng.integers(0, 4, size=n)
    X[:, 3] = X[:, 1]
    X[:, 4] = 7.0
    X[:, 5] = rng.choice([-np.inf, -1.0, 0.0, 2.0, np.inf, np.nan], size=n)
    X[:, 6] = np.nan
    X[:, 7] = 1.0 + rng.integers(0, 3, size=n) * np.finfo(float).eps
    sprinkle = rng.random((n, 8)) < 0.05
    sprinkle[:, 4] = False
    X[sprinkle] = np.nan
    return X


def weights_of(kind: str, rng: np.random.Generator, n: int):
    if kind == "none":
        return None
    if kind == "bootstrap":
        return rng.multinomial(n, np.full(n, 1.0 / n)).astype(np.float64)
    return rng.uniform(0.05, 3.0, size=n)


@pytest.mark.parametrize("min_samples_leaf", [1, 2, 5])
@pytest.mark.parametrize("max_features", [None, 3, "sqrt"])
@pytest.mark.parametrize("weights", ["none", "bootstrap", "fractional"])
def test_awkward_matrices_grow_the_same_trees(
    min_samples_leaf, max_features, weights
):
    for seed in range(6):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 90))
        X = awkward_matrix(rng, n)
        n_classes = 1 + seed % 3
        y = rng.integers(0, n_classes, size=n)
        tree, oracle = fit_both(
            X, y, weights_of(weights, rng, n),
            min_samples_leaf=min_samples_leaf, max_features=max_features,
            max_depth=None if seed % 2 else 4, random_state=seed,
        )
        assert_same_tree(tree, oracle)


@pytest.mark.parametrize("seed", range(40))
def test_random_matrices_grow_the_same_trees(seed):
    rng = np.random.default_rng(1000 + seed)
    n = int(rng.integers(2, 150))
    n_features = int(rng.integers(1, 10))
    X = rng.integers(0, int(rng.integers(1, 6)), size=(n, n_features))
    X = X.astype(np.float64)
    if rng.random() < 0.5:
        X[:, 0] = rng.normal(size=n)
    for value, share in ((np.nan, 0.08), (np.inf, 0.04), (-np.inf, 0.04)):
        X[rng.random(X.shape) < share] = value
    y = rng.integers(0, 1 + seed % 3, size=n)
    weights = weights_of(("none", "bootstrap", "fractional")[seed % 3],
                         rng, n)
    if weights is not None and not weights.any():
        weights = None
    tree, oracle = fit_both(
        X, y, weights,
        min_samples_leaf=(1, 2, 5)[seed % 3],
        max_features=(None, 2, "sqrt")[(seed // 3) % 3],
        max_depth=(None, 3)[(seed // 9) % 2],
        random_state=seed,
    )
    assert_same_tree(tree, oracle)


def test_degenerate_threshold_is_skipped():
    # Feature 0 separates the classes perfectly, but the midpoint of its
    # two values rounds onto the larger one, so "<= threshold" sends
    # every sample left; the split must fall back to feature 1.
    low = 1.0 + np.finfo(float).eps
    high = 1.0 + 2 * np.finfo(float).eps
    assert 0.5 * (low + high) == high
    X = np.array([[low, 0.0], [low, 0.0], [high, 0.0], [high, 1.0]])
    y = np.array([0, 0, 1, 1])
    tree, oracle = fit_both(X, y, max_depth=1)
    assert_same_tree(tree, oracle)
    assert tree._feature[0] == 1


def test_equal_scores_keep_the_first_candidate():
    # Two identical columns tie on every boundary: candidate order
    # decides, and a later equal score must not displace the first.
    rng = np.random.default_rng(3)
    column = rng.integers(0, 5, size=60).astype(np.float64)
    X = np.column_stack([column, column, column])
    y = (column + rng.integers(0, 2, size=60) > 2).astype(int)
    tree, oracle = fit_both(X, y, random_state=0)
    assert_same_tree(tree, oracle)
    assert tree._feature[0] == 0


def test_column_groups_grow_the_same_trees(monkeypatch):
    # A block bound smaller than one column scores every candidate on
    # its own; the trees must not change.
    monkeypatch.setattr(tree_mod, "_BLOCK_VALUES", 1)
    for seed in range(4):
        rng = np.random.default_rng(seed)
        X = awkward_matrix(rng, 70)
        y = rng.integers(0, 3, size=70)
        tree, oracle = fit_both(
            X, y, weights_of("fractional", rng, 70), random_state=seed,
            max_features="sqrt",
        )
        assert_same_tree(tree, oracle)


def _pipeline_pair(monkeypatch, files, **params):
    """The pipeline fitted as shipped and again with the oracle trees
    inside both forests."""
    pipeline = StrudelPipeline(**params).fit(files)
    with monkeypatch.context() as patch:
        patch.setattr(
            forest_mod, "DecisionTreeClassifier", _PerFeatureScanTree
        )
        oracle = StrudelPipeline(**params).fit(files)
    return pipeline, oracle


def test_tiny_corpus_forests_are_the_same(monkeypatch, tiny_corpus):
    pipeline, oracle = _pipeline_pair(
        monkeypatch, tiny_corpus.files, n_estimators=4, random_state=0,
    )
    assert_same_forests(pipeline, oracle)


def test_bench_model_forests_are_the_same(monkeypatch):
    corpus = make_corpus(MODEL_CORPUS, seed=MODEL_SEED, scale=MODEL_SCALE)
    pipeline, oracle = _pipeline_pair(
        monkeypatch, corpus.files, n_estimators=MODEL_TREES,
        random_state=MODEL_SEED,
    )
    assert_same_forests(pipeline, oracle)
    assert model_fingerprint(pipeline) == model_fingerprint(oracle)


#: ``model_fingerprint`` of the tiny-corpus pipeline (4 trees, seed 0).
#: It moves with any byte of any tree, so a change to how trees are
#: grown shows here even when no cross-validation score moves.
_PINNED_TINY_FINGERPRINT = (
    "229be0796ccc54ce56670f5660519a1c64289f1bcacc854fd14d40b9d7c3e6aa"
)


@pytest.mark.parametrize("n_jobs", [1, 2])
def test_model_fingerprint_is_pinned(tiny_corpus, n_jobs):
    pipeline = StrudelPipeline(
        n_estimators=4, random_state=0, n_jobs=n_jobs
    ).fit(tiny_corpus.files)
    assert model_fingerprint(pipeline) == _PINNED_TINY_FINGERPRINT
