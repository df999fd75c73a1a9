"""CART decision tree classifier with Gini impurity.

This is the building block of the random forest backbone.  The
implementation favours numpy vectorization in the two hot paths:

* split finding — one pass per node covers all its candidate
  features: one stable sort of the node's candidate columns, the
  valid boundaries (distinct neighbours, ``min_samples_leaf``) taken
  from the sorted values, and the Gini impurity scored from
  cumulative class weights at those boundaries only, with the same
  arithmetic and the same choice of split as a scan of one feature at
  a time;
* prediction — the tree is stored in flat arrays and a whole batch of
  samples descends level-by-level with boolean masks instead of a
  Python loop per sample.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InvalidParameterError
from repro.ml.base import check_fitted, check_X, check_X_y
from repro.util.rng import as_generator

_NO_FEATURE = -1

#: Most float64 values in one split search's cumulative class-weight
#: block (samples x candidate features x classes).  A node whose block
#: would be larger scores its candidates in column groups that fit, so
#: a fit's temporaries stay bounded whatever the node size.
_BLOCK_VALUES = 1 << 18


class DecisionTreeClassifier:
    """A CART classification tree.

    Parameters
    ----------
    max_depth:
        Maximum tree depth; ``None`` grows until purity or the minimum
        sample constraints stop growth.
    min_samples_split:
        Smallest node size still considered for splitting.
    min_samples_leaf:
        Smallest allowed leaf size; splits violating it are discarded.
    max_features:
        Number of features examined per split.  ``None`` uses all;
        ``"sqrt"`` uses ``ceil(sqrt(n_features))`` — the random-forest
        default matching scikit-learn.
    random_state:
        Seed or generator for feature subsampling.
    """

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | str | None = None,
        random_state: int | np.random.Generator | None = None,
    ):
        if min_samples_split < 2:
            raise InvalidParameterError("min_samples_split must be >= 2")
        if min_samples_leaf < 1:
            raise InvalidParameterError("min_samples_leaf must be >= 1")
        if max_depth is not None and max_depth < 1:
            raise InvalidParameterError("max_depth must be >= 1 or None")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state

        # Fitted state (flat tree arrays).
        self.classes_: np.ndarray | None = None
        self.n_features_: int | None = None
        self._feature: np.ndarray | None = None
        self._threshold: np.ndarray | None = None
        self._left: np.ndarray | None = None
        self._right: np.ndarray | None = None
        self._proba: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
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

            node = len(features)
            lefts.append(-1)
            rights.append(-1)
            total = counts.sum()
            probas.append(counts / total if total > 0 else np.full(
                n_classes, 1.0 / n_classes
            ))
            if split is None:
                features.append(_NO_FEATURE)
                thresholds.append(0.0)
            else:
                feature, threshold, left_mask = split
                features.append(feature)
                thresholds.append(threshold)
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

    def _resolve_max_features(self, n_features: int) -> int:
        if self.max_features is None:
            return n_features
        if self.max_features == "sqrt":
            return max(1, int(np.ceil(np.sqrt(n_features))))
        if isinstance(self.max_features, int) and self.max_features >= 1:
            return min(self.max_features, n_features)
        raise InvalidParameterError(
            f"invalid max_features: {self.max_features!r}"
        )

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

        Searches all candidate features at once: one stable sort of
        the node's ``(k, n)`` block of candidate values, the valid
        boundaries found from the sorted values alone, and the
        weighted Gini impurity scored at those boundaries only.  Each
        feature offers its first minimum; the features are then taken
        in candidate order, a later one winning only with a strictly
        lower score and a threshold that leaves both sides non-empty.
        """
        n_features = X.shape[1]
        if n_candidates >= n_features:
            candidates = np.arange(n_features)
        else:
            candidates = rng.choice(n_features, size=n_candidates,
                                    replace=False)

        # Boundary ``b`` splits the first ``b + 1`` sorted samples from
        # the rest; min_samples_leaf (a raw sample count on each side)
        # leaves the boundaries ``lo <= b < hi``.
        n = len(idx)
        lo = self.min_samples_leaf - 1
        hi = n - self.min_samples_leaf
        if lo >= hi:
            return None
        k = len(candidates)
        values = X[idx[None, :], candidates[:, None]]
        order = np.argsort(values, axis=1, kind="mergesort")
        sorted_values = values[np.arange(k)[:, None], order]
        # Only boundaries between distinct values are valid splits.
        valid = sorted_values[:, lo + 1:hi + 1] != sorted_values[:, lo:hi]
        if not valid.any():
            return None

        one_hot = np.zeros((n, len(counts)), dtype=np.float64)
        one_hot[np.arange(n), labels] = weights
        score = np.full(valid.shape, np.inf)
        group = max(1, _BLOCK_VALUES // (hi * len(counts)))
        for start in range(0, k, group):
            rows = slice(start, start + group)
            _score_boundaries(
                score[rows], valid[rows], order[rows, :hi], lo, one_hot,
                weights, counts, total_weight,
            )
        first = np.argmin(score, axis=1)
        column_best = score[np.arange(k), first]

        best_score = np.inf
        best: tuple[int, float] | None = None
        for column, column_score in enumerate(column_best.tolist()):
            if column_score < best_score:
                pos = lo + first[column]
                ends = sorted_values[column]
                threshold = 0.5 * (ends[pos] + ends[pos + 1])
                # Degenerate threshold from float averaging: skip.
                # ``values <= threshold`` holds nowhere when the
                # smallest value exceeds it, and everywhere when the
                # largest (sorted last, after any NaN) does not.
                if not ends[0] <= threshold or ends[-1] <= threshold:
                    continue
                best_score = column_score
                best = (column, float(threshold))
        if best is None:
            return None
        column, threshold = best
        return int(candidates[column]), threshold, values[column] <= threshold

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Class probability estimates (leaf class frequencies)."""
        check_fitted(self, "_proba")
        X = check_X(X, self.n_features_)
        node = np.zeros(X.shape[0], dtype=np.int64)
        while True:
            feature = self._feature[node]
            internal = feature != _NO_FEATURE
            if not internal.any():
                break
            rows = np.nonzero(internal)[0]
            f = feature[rows]
            go_left = X[rows, f] <= self._threshold[node[rows]]
            node[rows] = np.where(
                go_left, self._left[node[rows]], self._right[node[rows]]
            )
        return self._proba[node]

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Most probable class per sample."""
        proba = self.predict_proba(X)
        return self.classes_[np.argmax(proba, axis=1)]

    @property
    def feature_importances_(self) -> np.ndarray:
        """Impurity-based (Gini) feature importances, summing to 1.

        Each internal node contributes its weighted impurity decrease
        to the feature it splits on; the vector is normalized.  The
        paper prefers *permutation* importance for its analysis (it
        does not favour high-cardinality features), but the impurity
        variant is the standard quick diagnostic and is exposed for
        parity with scikit-learn.
        """
        check_fitted(self, "_proba")
        importances = np.zeros(self.n_features_)
        weights = self._node_weights()
        for node in range(self.node_count):
            feature = self._feature[node]
            if feature == _NO_FEATURE:
                continue
            left, right = self._left[node], self._right[node]

            def gini(index: int) -> float:
                return 1.0 - float((self._proba[index] ** 2).sum())

            decrease = weights[node] * gini(node) - (
                weights[left] * gini(left) + weights[right] * gini(right)
            )
            importances[feature] += max(decrease, 0.0)
        total = importances.sum()
        if total > 0:
            importances /= total
        return importances

    def _node_weights(self) -> np.ndarray:
        """Fraction of training weight reaching each node.

        Reconstructed top-down from the stored class probabilities:
        the root holds weight 1; each child's share is inferred from
        the mixture identity p_parent = w_l * p_left + w_r * p_right,
        solved by least squares on the probability vectors.
        """
        weights = np.zeros(self.node_count)
        weights[0] = 1.0
        for node in range(self.node_count):
            left, right = self._left[node], self._right[node]
            if left < 0:
                continue
            p = self._proba[node]
            pl, pr = self._proba[left], self._proba[right]
            difference = pl - pr
            denominator = float(difference @ difference)
            if denominator > 0:
                share_left = float((p - pr) @ difference) / denominator
            else:
                share_left = 0.5
            share_left = min(max(share_left, 0.0), 1.0)
            weights[left] = weights[node] * share_left
            weights[right] = weights[node] * (1.0 - share_left)
        return weights

    @property
    def node_count(self) -> int:
        """Number of nodes in the fitted tree."""
        check_fitted(self, "_proba")
        return len(self._feature)

    @property
    def depth(self) -> int:
        """Depth of the fitted tree (a lone leaf has depth 0)."""
        check_fitted(self, "_proba")
        depths = np.zeros(self.node_count, dtype=np.int64)
        for node in range(self.node_count):
            for child in (self._left[node], self._right[node]):
                if child >= 0:
                    depths[child] = depths[node] + 1
        return int(depths.max())


def _score_boundaries(
    score: np.ndarray,
    valid: np.ndarray,
    head: np.ndarray,
    lo: int,
    one_hot: np.ndarray,
    weights: np.ndarray,
    counts: np.ndarray,
    total_weight: float,
) -> None:
    """Write the weighted Gini impurity of each valid boundary into
    ``score`` (one row per candidate, boundary ``lo`` first).

    ``head`` holds each candidate's sort order up to the last boundary.
    Every score is the arithmetic of a one-feature scan: sequential
    cumulative class weights and weights, then the same division,
    square, class sum and weighting, at the valid boundaries alone.
    """
    column, boundary = np.nonzero(valid)
    boundary += lo
    # Cumulative per-class weight to the left of each boundary.
    cumulative = one_hot[head.T]
    np.cumsum(cumulative, axis=0, out=cumulative)
    left_counts = cumulative[boundary, column]
    left_weight = np.cumsum(weights[head], axis=1)[column, boundary]
    right_counts = counts[None, :] - left_counts
    right_weight = total_weight - left_weight
    with np.errstate(divide="ignore", invalid="ignore"):
        gini_left = 1.0 - np.sum(
            (left_counts / left_weight[:, None]) ** 2, axis=1
        )
        gini_right = 1.0 - np.sum(
            (right_counts / right_weight[:, None]) ** 2, axis=1
        )
    score[valid] = (
        left_weight * gini_left + right_weight * gini_right
    ) / total_weight
