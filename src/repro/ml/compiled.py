"""Compiled forest inference — the whole forest as flat tensors.

Predicting by looping over the trees of a fitted
:class:`~repro.ml.forest.RandomForestClassifier` in Python costs, for
40 trees, 40 separate batched traversals plus 40 column-alignment
steps per call.  Each individual traversal is vectorized, but with ~6
levels per tree the loop still issues thousands of small numpy kernels
per table — prediction became the pipeline hot path once feature
extraction went columnar.

:class:`CompiledForest` removes the loop.  At compile time every
tree's flat node arrays are concatenated into single forest-wide
tensors (``feature`` / ``threshold`` / ``left`` / ``right`` with child
indices rebased to absolute positions, plus per-tree root offsets),
and every node's class-probability row is pre-aligned onto the
forest's *global* class order — the per-call ``class_index`` dict and
per-tree column lists disappear entirely.  Prediction then runs **one**
level-synchronous traversal over the full ``(samples x trees)``
frontier: all sample/tree pairs descend together, and the loop count
is the depth of the deepest tree, not ``n_trees x depth``.

Byte-identity with that per-tree loop is a hard contract:
``tests/test_compiled_parity.py`` keeps the loop as its oracle,
``per_tree_predict_proba``, and pins ``.tobytes()`` equality with it:

* node descent evaluates exactly the oracle's comparison
  ``X[row, feature] <= threshold``, so every pair reaches the same
  leaf;
* class alignment *places* each tree's probability rows into the
  global columns (classes absent from a bootstrap hold exact ``+0.0``,
  and adding ``+0.0`` to a non-negative float is bitwise inert), so an
  aligned row-add equals the oracle's ``total[:, columns] += proba``;
* accumulation is an explicit Python loop over trees **in tree
  order** — float addition is not associative, and a pairwise
  ``np.sum`` over a tree axis would drift in the last ulp;
* the final division by ``n_trees`` happens last, as in the oracle.

The pipeline only ever wants the class, and :meth:`CompiledForest.predict`
gives exactly ``classes_[argmax(predict_proba(X))]`` while summing
fewer trees: the traversal takes a tree range, and ``predict`` runs the
trees in tree-order phases whose ends derive from the tree count
(:func:`_phases`).  Each tree adds at most 1 to any class, so a row
whose leading class leads by more than the number of trees left (plus
a rounding slack) is settled and drops out; the rows left go on with
their partial sums, so a row that never settles ends with the full
tree-order sum bit for bit.  This is the early exit of additive
ensembles (Cambazoglu et al., WSDM 2010), exact here because the vote
is argmaxed.  On the benchmark's 40-tree cell forest, 73% of the
deck's cells settle after 21 trees and 0.1% need all 40.

The compiled tensors are also the persistence substrate: saving a
forest stores them directly, and :meth:`CompiledForest.decompile`
reconstructs the exact per-tree estimators from a saved bundle.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InvalidParameterError
from repro.ml.base import check_X
from repro.ml.tree import _NO_FEATURE, DecisionTreeClassifier
from repro.obs import get_metrics, get_tracer


def _settle_slack(n_trees: int) -> float:
    """Room left for float rounding when :meth:`CompiledForest.predict`
    settles a row.

    Each tree still to come can round a class's sum (below
    ``n_trees``) up by half an ulp, and the final division by
    ``n_trees`` must not merge the two largest sums; together that is
    below ``n_trees * (n_trees + 2) * 2**-53``.  A slack of ``1e-9``
    covers it up to 2,000 trees; larger forests take twice the bound.
    """
    return max(1e-9, n_trees * (n_trees + 2) * 2.0**-52)


def _phases(n_trees: int) -> tuple[tuple[int, int], ...]:
    """The tree ranges :meth:`CompiledForest.predict` sums before each
    settling check: ``n_trees // 2 + 1`` trees, then ``ceil(n_trees /
    8)`` more, then the rest (21, 26 and 40 for 40 trees).

    A row cannot settle before a majority of the trees is in; after
    that, a row every tree voted the same way is settled, the short
    second phase catches most of the rows a few trees disputed, and
    the rest need the whole forest.
    """
    first = n_trees // 2 + 1
    second = first + -(-n_trees // 8)
    ends = sorted({first, min(second, n_trees), n_trees})
    return tuple(zip([0] + ends[:-1], ends))


def _lead(votes: np.ndarray) -> np.ndarray:
    """How far each row's largest vote is ahead of its second largest
    (``inf`` for a one-class forest, where nothing can overturn it)."""
    if votes.shape[1] < 2:
        return np.full(len(votes), np.inf)
    top = np.partition(votes, -2, axis=1)
    return top[:, -1] - top[:, -2]


class CompiledForest:
    """A fitted random forest packed into contiguous numpy tensors.

    Parameters
    ----------
    feature, threshold, left, right:
        Concatenated per-node arrays over all trees.  ``feature`` is
        ``-1`` at leaves; ``left``/``right`` hold *absolute* node
        indices into the concatenation (``-1`` at leaves).
    proba:
        ``(n_nodes, n_classes)`` class probabilities for **every**
        node (not only leaves), pre-aligned to ``classes``; columns
        for classes a tree never saw are exactly ``+0.0``.
    roots:
        Index of each tree's root node (trees store their root first,
        so this doubles as the segment-start offsets).
    classes:
        The forest's global class order.
    n_features:
        Width of the feature matrices the forest was fitted on.
    tree_classes, tree_class_offsets:
        The per-tree class arrays, concatenated, with ``n_trees + 1``
        boundary offsets — enough to reconstruct each tree's local
        class order (and thus the original estimators) exactly.
    """

    def __init__(
        self,
        feature: np.ndarray,
        threshold: np.ndarray,
        left: np.ndarray,
        right: np.ndarray,
        proba: np.ndarray,
        roots: np.ndarray,
        classes: np.ndarray,
        n_features: int,
        tree_classes: np.ndarray,
        tree_class_offsets: np.ndarray,
    ):
        n_nodes = len(feature)
        for name, array in (
            ("threshold", threshold), ("left", left), ("right", right),
        ):
            if len(array) != n_nodes:
                raise InvalidParameterError(
                    f"compiled {name} has {len(array)} nodes, "
                    f"expected {n_nodes}"
                )
        if proba.shape != (n_nodes, len(classes)):
            raise InvalidParameterError(
                f"compiled proba shape {proba.shape} does not match "
                f"({n_nodes}, {len(classes)})"
            )
        if len(tree_class_offsets) != len(roots) + 1:
            raise InvalidParameterError(
                "tree_class_offsets must have n_trees + 1 entries"
            )
        self._feature = np.ascontiguousarray(feature, dtype=np.int64)
        self._threshold = np.ascontiguousarray(threshold, dtype=np.float64)
        self._left = np.ascontiguousarray(left, dtype=np.int64)
        self._right = np.ascontiguousarray(right, dtype=np.int64)
        self._proba = np.ascontiguousarray(proba, dtype=np.float64)
        self._roots = np.ascontiguousarray(roots, dtype=np.int64)
        self.classes_ = np.asarray(classes)
        self.n_features_ = int(n_features)
        self._tree_classes = np.asarray(tree_classes)
        self._tree_class_offsets = np.ascontiguousarray(
            tree_class_offsets, dtype=np.int64
        )
        #: The arrays that define the forest, by constructor keyword:
        #: ``ml.persistence`` stores them under these names, and the
        #: corpus engine's model fingerprint hashes them in this order.
        self.tensors: dict[str, np.ndarray] = {
            "classes": self.classes_,
            "tree_classes": self._tree_classes,
            "feature": self._feature,
            "threshold": self._threshold,
            "left": self._left,
            "right": self._right,
            "proba": self._proba,
            "roots": self._roots,
            "tree_class_offsets": self._tree_class_offsets,
        }
        # Derived traversal arrays (rebuilt on load, never stored):
        # leaves self-loop so finished (sample, tree) pairs ride out
        # the remaining iterations untouched, and their feature index
        # is clamped to 0 so the (discarded) gather stays in bounds.
        is_leaf = self._feature == _NO_FEATURE
        node_index = np.arange(n_nodes, dtype=np.int64)
        # The frontier loop is gather-bound, so the node tables use
        # the narrowest dtype that can hold ``2 * n_nodes`` (the child
        # table is indexed by ``2 * node + go_left``): int16 halves
        # the bytes every gather touches and keeps the whole forest in
        # L1/L2 for realistic tree counts.  Oversized forests fall
        # back to int64 — same code path, wider arithmetic.
        if 2 * n_nodes <= np.iinfo(np.int16).max:
            index_dtype = np.int16
        else:
            index_dtype = np.int64
        self._index_dtype = index_dtype
        self._safe_feature = np.where(
            is_leaf, 0, self._feature
        ).astype(index_dtype)
        # One fused child table indexed by ``2 * node + go_left``:
        # replaces the left-gather / right-gather / where triple with
        # a single take per level.
        child = np.empty(2 * n_nodes, dtype=index_dtype)
        child[0::2] = np.where(is_leaf, node_index, self._right)
        child[1::2] = np.where(is_leaf, node_index, self._left)
        self._child = child
        # Samples are traversed in row chunks sized so one chunk of
        # the feature matrix (``rows * n_features`` float64) stays
        # cache-resident while the frontier descends; the bound also
        # guarantees ``rows * n_features`` fits the int16 row-base
        # offsets used alongside the node tables.
        self._chunk_rows = max(32, 16384 // max(self.n_features_, 1))
        rows = self._chunk_rows
        base_dtype = index_dtype
        if rows * self.n_features_ > np.iinfo(np.int16).max:
            base_dtype = np.int64  # very wide matrices: plain offsets
        n_trees = len(roots)
        self._phases = _phases(n_trees)
        self._slack = _settle_slack(n_trees)
        # Each tree range a traversal runs over gets its chunk frontier
        # template: every row's root of every tree in the range, and
        # the row's offset into the raveled chunk.
        row_offsets = (
            np.arange(rows, dtype=base_dtype) * base_dtype(self.n_features_)
        )
        self._frontiers = {
            (first, last): (
                np.tile(self._roots[first:last].astype(index_dtype), rows),
                np.repeat(row_offsets, last - first),
            )
            for first, last in sorted({(0, n_trees), *self._phases})
        }

    # ------------------------------------------------------------------
    @property
    def n_trees(self) -> int:
        """Number of trees packed into the tensors."""
        return len(self._roots)

    @property
    def n_nodes(self) -> int:
        """Total node count across all trees."""
        return len(self._feature)

    # ------------------------------------------------------------------
    @classmethod
    def from_forest(cls, forest) -> "CompiledForest":
        """Pack a fitted :class:`RandomForestClassifier`.

        Runs under the ``forest_compile`` span; emits the
        ``compiled_forest.compiles`` counter and a
        ``compiled_forest.nodes`` gauge so repeated recompiles (a
        cache-miss symptom) show up in telemetry.
        """
        trees = forest.estimators_
        if trees is None:
            raise InvalidParameterError(
                "cannot compile an unfitted forest"
            )
        classes = forest.classes_
        n_classes = len(classes)
        class_index = {c: i for i, c in enumerate(classes)}
        with get_tracer().span(
            "forest_compile", trees=len(trees)
        ):
            counts = np.array(
                [len(tree._feature) for tree in trees], dtype=np.int64
            )
            offsets = np.concatenate(([0], np.cumsum(counts)))
            roots = offsets[:-1]  # fit() always stores the root first
            feature = np.concatenate([tree._feature for tree in trees])
            threshold = np.concatenate(
                [tree._threshold for tree in trees]
            )
            # Child indices become absolute positions in the
            # concatenation; leaves stay -1.
            left = np.concatenate([
                np.where(tree._left >= 0, tree._left + start, -1)
                for tree, start in zip(trees, roots)
            ])
            right = np.concatenate([
                np.where(tree._right >= 0, tree._right + start, -1)
                for tree, start in zip(trees, roots)
            ])
            proba = np.zeros((int(offsets[-1]), n_classes))
            for tree, start, count in zip(trees, roots, counts):
                columns = np.array(
                    [class_index[c] for c in tree.classes_],
                    dtype=np.intp,
                )
                # Exact value placement: column j of the tree's local
                # proba lands in global column columns[j]; all other
                # columns keep their +0.0 initialisation.
                proba[start:start + count, columns] = tree._proba
            tree_class_offsets = np.concatenate((
                [0],
                np.cumsum([len(tree.classes_) for tree in trees]),
            ))
            tree_classes = np.concatenate(
                [tree.classes_ for tree in trees]
            )
            compiled = cls(
                feature=feature,
                threshold=threshold,
                left=left,
                right=right,
                proba=proba,
                roots=roots,
                classes=classes,
                n_features=forest.n_features_,
                tree_classes=tree_classes,
                tree_class_offsets=tree_class_offsets,
            )
        metrics = get_metrics()
        metrics.increment("compiled_forest.compiles")
        metrics.gauge("compiled_forest.nodes", float(compiled.n_nodes))
        return compiled

    # ------------------------------------------------------------------
    #: Compact the frontier only when at least 3/8 of it sits on a
    #: leaf: compaction is three gathers plus a scatter, so shrinking
    #: too eagerly costs more than the dead entries it removes.
    _COMPACT_NUM, _COMPACT_DEN = 5, 8
    #: Once a chunk's live frontier falls below this, park it and
    #: finish all chunks together in one merged tail loop — deep-path
    #: stragglers are so few that per-chunk iterations on them are
    #: pure kernel-launch overhead.
    _TAIL_SIZE = 1024

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Averaged class probabilities, byte-identical to the per-tree
        loop.

        Every ``(sample, tree)`` pair starts at its tree's root and
        the whole frontier descends one level per iteration; pairs
        that reach a leaf self-loop in place, so the loop runs at most
        ``max(tree depth)`` times regardless of forest size.  The
        frontier is processed in cache-sized row chunks, compacted as
        pairs finish, and the few deep stragglers of all chunks are
        merged into one final tail loop.
        """
        X = np.ascontiguousarray(check_X(X, self.n_features_))
        n_trees = self.n_trees
        total = np.zeros((X.shape[0], len(self.classes_)), dtype=np.float64)
        self._add_votes(total, self._traverse(X, 0, n_trees))
        total /= n_trees
        return total

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Most probable class per sample: exactly
        ``classes_[argmax(predict_proba(X))]``, without summing the
        trees that can no longer change a row's class.

        The trees are summed in tree-order phases (:func:`_phases`).
        After a phase, a row whose leading class leads every other
        class by more than the number of trees left (plus a float
        slack) is settled: each tree adds at most 1 to any class, so
        the rest of the forest cannot overturn the lead, and its
        argmax is the leader.  The other rows go on, and a row that is
        never settled ends with the full tree-order sum, divided by
        the tree count, bit for bit as :meth:`predict_proba` has it.
        """
        X = np.ascontiguousarray(check_X(X, self.n_features_))
        n_trees = self.n_trees
        codes = np.empty(X.shape[0], dtype=np.intp)
        rows = np.arange(X.shape[0])
        votes = np.zeros((X.shape[0], len(self.classes_)), dtype=np.float64)
        for first, last in self._phases:
            self._add_votes(votes, self._traverse(X, first, last))
            left = n_trees - last
            if not left:
                votes /= n_trees
                codes[rows] = np.argmax(votes, axis=1)
                break
            settled = _lead(votes) > left + self._slack
            codes[rows[settled]] = np.argmax(votes[settled], axis=1)
            going = ~settled
            if not going.any():
                break
            rows, votes, X = rows[going], votes[going], X[going]
        return self.classes_[codes]

    def _add_votes(self, total: np.ndarray, leaves: np.ndarray) -> None:
        """Add each tree's leaf probabilities to ``total``, one tree at
        a time in tree order: float addition is not associative, and
        the contract is bitwise equality with the one-tree-at-a-time
        loop."""
        proba = self._proba
        for index in range(leaves.shape[1]):
            total += proba.take(leaves[:, index], axis=0, mode="clip")

    def _traverse(self, X: np.ndarray, first: int, last: int) -> np.ndarray:
        """Leaf node index for every pair of a sample and a tree of
        ``first:last``, as an ``(n_samples, last - first)`` array.

        Feature values are gathered through the raveled matrix
        (``row * n_features + feature``) — a flat ``take`` is much
        cheaper than two-dimensional fancy indexing at this call
        rate — and the node comparisons are exactly the per-tree
        ``X[row, feature] <= threshold``, so every pair lands on the
        same leaf bit for bit regardless of chunking or compaction.
        All ``take`` calls use ``mode='clip'``: bounds are guaranteed
        by construction and the clip kernel skips the wraparound
        handling of the default mode.
        """
        n = X.shape[0]
        n_trees = last - first
        root_tile, row_base = self._frontiers[first, last]
        n_features = self.n_features_
        safe_feature = self._safe_feature
        threshold = self._threshold
        child = self._child
        compact_num, compact_den = self._COMPACT_NUM, self._COMPACT_DEN

        out = np.empty(n * n_trees, dtype=self._index_dtype)
        X_flat = X.reshape(-1)
        # Stragglers parked by the chunk loop: frontier node, global
        # raveled-X row offset, and position in ``out``.
        tail_node: list[np.ndarray] = []
        tail_base: list[np.ndarray] = []
        tail_pos: list[np.ndarray] = []

        chunk = self._chunk_rows
        for start in range(0, n, chunk):
            rows = min(chunk, n - start)
            size = rows * n_trees
            # The per-chunk frontier, sample-major so the per-tree
            # leaf columns come out contiguous after the reshape of
            # ``out``.  ``base`` addresses the chunk's slab of the
            # raveled matrix so offsets stay in the narrow dtype.
            node = root_tile[:size].copy()
            base = row_base[:size]
            X_chunk = X_flat[start * n_features:
                             (start + rows) * n_features]
            # ``pos`` tracks each live entry's slot in ``out``; it is
            # materialised lazily on the first compaction.
            pos: np.ndarray | None = None
            while True:
                go_left = (
                    X_chunk.take(
                        base + safe_feature.take(node, mode="clip"),
                        mode="clip",
                    )
                    <= threshold.take(node, mode="clip")
                )
                advanced = child.take(2 * node + go_left, mode="clip")
                moved = advanced != node
                live = int(np.count_nonzero(moved))
                if live == 0:
                    if pos is None:
                        out[start * n_trees:
                            start * n_trees + size] = advanced
                    else:
                        out[pos] = advanced
                    break
                if live <= (advanced.size * compact_num) // compact_den:
                    keep = np.nonzero(moved)[0]
                    if pos is None:
                        # First shrink: write the whole chunk (the
                        # finished entries keep these values) and
                        # switch to scattered bookkeeping.
                        offset = start * n_trees
                        out[offset:offset + size] = advanced
                        pos = keep + offset
                    else:
                        out[pos] = advanced
                        pos = pos.take(keep)
                    node = advanced.take(keep)
                    base = base.take(keep)
                    if node.size <= self._TAIL_SIZE:
                        # Park the stragglers; the merged tail loop
                        # finishes them without per-chunk launches.
                        tail_node.append(node)
                        tail_base.append(
                            base.astype(np.int64)
                            + start * n_features
                        )
                        tail_pos.append(pos)
                        break
                else:
                    node = advanced

        if tail_node:
            node = np.concatenate(tail_node)
            base = np.concatenate(tail_base)
            pos = np.concatenate(tail_pos)
            while node.size:
                go_left = (
                    X_flat.take(
                        base + safe_feature.take(node, mode="clip"),
                        mode="clip",
                    )
                    <= threshold.take(node, mode="clip")
                )
                advanced = child.take(2 * node + go_left, mode="clip")
                moved = advanced != node
                live = int(np.count_nonzero(moved))
                if live == 0:
                    out[pos] = advanced
                    break
                if live < advanced.size:
                    out[pos] = advanced
                    keep = np.nonzero(moved)[0]
                    pos = pos.take(keep)
                    node = advanced.take(keep)
                    base = base.take(keep)
                else:
                    node = advanced

        return out.reshape(n, n_trees)

    # ------------------------------------------------------------------
    def decompile(self) -> list[DecisionTreeClassifier]:
        """Reconstruct the per-tree estimators, exactly.

        The inverse of :meth:`from_forest`: slices each tree's segment
        back out, rebases child indices to tree-local positions and
        projects the aligned probability rows back onto the tree's own
        class order.  Persistence uses this so a compiled save can
        still hand back a forest with working ``estimators_``.
        """
        bounds = np.concatenate((self._roots, [self.n_nodes]))
        class_index = {c: i for i, c in enumerate(self.classes_)}
        trees: list[DecisionTreeClassifier] = []
        for index in range(self.n_trees):
            start, end = int(bounds[index]), int(bounds[index + 1])
            class_start = int(self._tree_class_offsets[index])
            class_end = int(self._tree_class_offsets[index + 1])
            local_classes = self._tree_classes[class_start:class_end]
            columns = np.array(
                [class_index[c] for c in local_classes], dtype=np.intp
            )
            tree = DecisionTreeClassifier()
            tree._feature = self._feature[start:end].copy()
            tree._threshold = self._threshold[start:end].copy()
            left = self._left[start:end]
            right = self._right[start:end]
            tree._left = np.where(left >= 0, left - start, -1)
            tree._right = np.where(right >= 0, right - start, -1)
            tree._proba = np.ascontiguousarray(
                self._proba[start:end][:, columns]
            )
            tree.classes_ = self._tree_classes[
                class_start:class_end
            ].copy()
            tree.n_features_ = self.n_features_
            trees.append(tree)
        return trees
