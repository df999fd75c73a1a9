"""Random forest classifier — the Strudel backbone.

Bagged CART trees with sqrt-feature subsampling and probability
averaging.  Defaults mirror scikit-learn's
``RandomForestClassifier`` (100 trees, Gini, bootstrap, sqrt
features), which is what the paper means by "the default settings in
the scikit-learn library".

Bootstrapping is implemented through integer sample weights
(multinomial draw) instead of materializing resampled matrices, which
keeps fitting memory-flat for wide cell-feature matrices.

Tree fitting is embarrassingly parallel: every tree draws its
bootstrap and its feature subsamples from an independent child stream
derived up front via :func:`repro.util.rng.spawn`, so ``n_jobs > 1``
fans the fit out over a worker pool while producing byte-identical
trees, predictions and importances — the streams, the per-tree work,
and the order in which results are folded back (tree index order) are
all independent of the schedule.  The pool lives for one fit
(:func:`repro.perf.pool.parallel_map`): its workers are joined before
``fit`` returns, so a fitted forest leaves no process behind.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.errors import InvalidParameterError
from repro.ml.base import check_fitted, check_X_y
from repro.ml.compiled import CompiledForest
from repro.ml.tree import DecisionTreeClassifier
from repro.perf.pool import effective_jobs, parallel_map
from repro.util.rng import as_generator, spawn


def _bootstrap_weights(
    stream: np.random.Generator, n: int, bootstrap: bool
) -> np.ndarray:
    """Per-sample integer weights for one tree's training view."""
    if not bootstrap:
        return np.ones(n, dtype=np.float64)
    # Multinomial counts are distributed exactly like the histogram
    # of n draws with replacement.
    weights = stream.multinomial(n, np.full(n, 1.0 / n)).astype(
        np.float64
    )
    if not weights.any():  # pragma: no cover - probability 0
        weights = np.ones(n)
    return weights


def _fit_tree_batch(
    X: np.ndarray,
    y: np.ndarray,
    tree_params: dict,
    bootstrap: bool,
    streams: list[np.random.Generator],
) -> list[DecisionTreeClassifier]:
    """Fit one tree per stream of a batch, in order.

    Module-level so a process pool can ship it; each stream is an
    independent child generator, so batching is purely a transport
    optimization (fewer pickles of ``X``/``y``) with no effect on the
    fitted trees.
    """
    fitted: list[DecisionTreeClassifier] = []
    for stream in streams:
        weights = _bootstrap_weights(stream, X.shape[0], bootstrap)
        tree = DecisionTreeClassifier(
            random_state=stream, **tree_params
        )
        fitted.append(tree.fit(X, y, sample_weight=weights))
    return fitted


class RandomForestClassifier:
    """An ensemble of CART trees trained on bootstrap samples.

    Parameters
    ----------
    n_estimators:
        Number of trees.
    max_depth, min_samples_split, min_samples_leaf:
        Passed through to every tree.
    max_features:
        Features considered per split; default ``"sqrt"``.
    bootstrap:
        Whether each tree sees a bootstrap resample of the data.
    random_state:
        Seed for reproducible bootstraps and feature subsampling.
    n_jobs:
        Worker count for tree fitting (``None``/``1`` sequential,
        ``0``/negative for all cores).  Any value produces
        byte-identical forests for a fixed seed.
    """

    def __init__(
        self,
        n_estimators: int = 100,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | str | None = "sqrt",
        bootstrap: bool = True,
        random_state: int | np.random.Generator | None = None,
        n_jobs: int | None = 1,
    ):
        if n_estimators < 1:
            raise InvalidParameterError("n_estimators must be >= 1")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.random_state = random_state
        self.n_jobs = n_jobs

        self.classes_: np.ndarray | None = None
        self.n_features_: int | None = None
        self.estimators_: list[DecisionTreeClassifier] | None = None
        # Derived, memoized per fit: the packed inference tensors.
        self._compiled: CompiledForest | None = None

    # ------------------------------------------------------------------
    def _fit_all_trees(
        self, X: np.ndarray, y: np.ndarray
    ) -> list[DecisionTreeClassifier]:
        """All trees, in tree-index order.

        The per-tree streams are derived identically whatever the
        worker count, and the parallel batches are contiguous runs of
        them, so concatenating the batches in order gives the
        sequential order (importances fold over it).
        """
        rng = as_generator(self.random_state)
        streams = spawn(rng, self.n_estimators)
        tree_params = {
            "max_depth": self.max_depth,
            "min_samples_split": self.min_samples_split,
            "min_samples_leaf": self.min_samples_leaf,
            "max_features": self.max_features,
        }
        jobs = effective_jobs(self.n_jobs, self.n_estimators)
        if jobs <= 1:
            return _fit_tree_batch(
                X, y, tree_params, self.bootstrap, streams
            )
        # Contiguous batches, one per worker, amortize shipping X/y.
        bounds = np.linspace(0, len(streams), jobs + 1).astype(int)
        batches = [
            streams[bounds[k]:bounds[k + 1]]
            for k in range(jobs)
            if bounds[k] < bounds[k + 1]
        ]
        worker = partial(
            _fit_tree_batch, X, y, tree_params, self.bootstrap
        )
        results = parallel_map(worker, batches, n_jobs=jobs)
        return [tree for batch in results for tree in batch]

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestClassifier":
        """Fit ``n_estimators`` trees on bootstrap resamples of ``(X, y)``."""
        X, y = check_X_y(X, y)
        self.classes_ = np.unique(y)
        self.n_features_ = X.shape[1]
        self.estimators_ = self._fit_all_trees(X, y)
        self._compiled = None
        return self

    # ------------------------------------------------------------------
    def compile(self) -> CompiledForest:
        """The forest packed into flat inference tensors, memoized.

        Compilation happens at most once per fit/load; ``fit``
        invalidates the cache.
        """
        check_fitted(self, "estimators_")
        if self._compiled is None:
            self._compiled = CompiledForest.from_forest(self)
        return self._compiled

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Average of the per-tree class probability estimates.

        Probabilities are aligned onto the forest's global class order
        even when an individual bootstrap missed a rare class.
        Delegates to the compiled tensors (one traversal over the
        whole ``samples x trees`` frontier); output is byte-identical
        to the per-tree loop that ``tests/test_compiled_parity.py``
        keeps as its oracle.
        """
        check_fitted(self, "estimators_")
        return self.compile().predict_proba(X)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Most probable class per sample under the averaged vote:
        exactly ``classes_[argmax(predict_proba(X))]``, from the
        compiled tensors, which stop summing a row's trees once the
        rest cannot change its class (:meth:`CompiledForest.predict`).
        """
        check_fitted(self, "estimators_")
        return self.compile().predict(X)

    @property
    def feature_importances_(self) -> np.ndarray:
        """Mean impurity-based importance across the trees."""
        check_fitted(self, "estimators_")
        stacked = np.vstack(
            [tree.feature_importances_ for tree in self.estimators_]
        )
        return stacked.mean(axis=0)
