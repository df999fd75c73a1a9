"""Columnar per-table cell primitives, computed exactly once.

The paper's scalability profiling (Section 6.3.4) puts the cost of
structure detection squarely in feature extraction, and before this
module existed the same per-cell primitives were recomputed in Python
loops by every extractor: the line features inferred a data type per
cell, the cell features re-inferred the same types and value lengths,
the derived-cell detector re-parsed every cell into a number, and the
block-size algorithm re-walked non-empty cells with a dict/set DFS.

:class:`TableProfile` computes each primitive **once per table** as a
columnar numpy array and memoizes the whole bundle on the
:class:`~repro.types.Table` instance, so every extractor — line, cell,
derived, blocks — pulls from the same arrays.  Two design points do
the heavy lifting:

* **Unique-value dispatch.**  Verbose CSV files repeat values heavily
  (years, group labels, blank padding, small integers), so each
  *distinct* stripped string is classified exactly once —
  :func:`~repro.core.datatypes.infer_data_type`,
  :func:`~repro.core.datatypes.parse_number`,
  :func:`~repro.core.keywords.contains_aggregation_keyword` and
  :func:`~repro.util.text.count_words` run per unique value — and the
  results are scattered back onto the grid with
  ``np.unique(..., return_inverse=True)``.  The regex cost scales with
  the vocabulary, not the cell count.
* **Vectorized connected components.**  Block sizes (Algorithm 1) are
  labeled with a run-based union-find: horizontal runs of non-empty
  cells are identified with one ``cumsum``, vertically adjacent runs
  are unioned, and sizes are scattered back per cell — no per-cell
  Python, same components as the published DFS.

Parity is the contract: every consumer rewired onto the profile
produces byte-identical output to its original per-extractor
implementation (``tests/test_profile_parity.py`` keeps the legacy
reference implementations and enforces this).

The profile is lazy — each array group is materialized on first
access via ``functools.cached_property`` — and safe to share: arrays
are computed deterministically, so the benign race of two threads
materializing the same property yields identical values.  Consumers
must treat every exposed array as read-only.
"""

from __future__ import annotations

from functools import cached_property
from typing import Protocol

import numpy as np

from repro.core.datatypes import infer_data_type, parse_number
from repro.core.keywords import contains_aggregation_keyword
from repro.types import DataType, Table
from repro.util.text import count_words

#: Integer code of the ``EMPTY`` data type in :attr:`TableProfile.dtype_grid`.
EMPTY_CODE: int = int(DataType.EMPTY)

_NUMERIC_CODES: tuple[int, int] = (int(DataType.INT), int(DataType.FLOAT))


class SupportsDerivedDetection(Protocol):
    """What :meth:`TableProfile.derived_mask` needs from a detector.

    Structural typing keeps ``profile`` import-free of
    :mod:`repro.core.derived` (which imports this module in turn).
    """

    @property
    def cache_key(self) -> str:  # pragma: no cover - protocol
        ...

    def detect_profile(
        self, profile: "TableProfile"
    ) -> np.ndarray:  # pragma: no cover - protocol
        ...


class TableProfile:
    """Lazily-computed columnar view of one table's cell primitives.

    Build instances through :func:`table_profile`, which memoizes the
    profile on the table, not by calling the constructor directly —
    a fresh profile per call would defeat the compute-once design.
    """

    def __init__(self, table: Table):
        self.table = table
        self.n_rows, self.n_cols = table.shape
        self.shape: tuple[int, int] = table.shape
        #: Per-detector-configuration memo of read-only derived-cell
        #: grids, keyed by the detector's ``cache_key``.
        self._derived_memo: dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------
    # Unique-value dispatch
    # ------------------------------------------------------------------
    @cached_property
    def _dispatch(self) -> tuple[np.ndarray, np.ndarray]:
        """``(unique stripped values, inverse indices)`` for all cells.

        Object dtype keeps memory proportional to the distinct strings
        (one reference per cell) even when individual cells are huge.
        """
        stripped = [v.strip() for row in self.table.rows() for v in row]
        flat = np.empty(len(stripped), dtype=object)
        flat[:] = stripped
        unique, inverse = np.unique(flat, return_inverse=True)
        return unique, inverse.astype(np.intp, copy=False)

    @property
    def unique_values(self) -> np.ndarray:
        """Sorted distinct stripped cell values (object array)."""
        return self._dispatch[0]

    def _scatter(self, per_unique: np.ndarray) -> np.ndarray:
        """Spread per-unique results back onto the ``(n_rows, n_cols)``
        grid through the inverse indices."""
        return per_unique[self._dispatch[1]].reshape(self.shape)

    # ------------------------------------------------------------------
    # Cell-level grids
    # ------------------------------------------------------------------
    @cached_property
    def dtype_grid(self) -> np.ndarray:
        """``int8`` grid of :class:`~repro.types.DataType` codes."""
        unique = self.unique_values
        codes = np.fromiter(
            (int(infer_data_type(value)) for value in unique),
            dtype=np.int8,
            count=len(unique),
        )
        return self._scatter(codes)

    @cached_property
    def value_lengths(self) -> np.ndarray:
        """``float32`` grid of stripped cell-value lengths.

        Lengths are integers, exactly representable in ``float32`` up
        to :math:`2^{24}`; consumers needing ``float64`` arithmetic
        upcast first, which is exact.
        """
        unique = self.unique_values
        lengths = np.fromiter(
            (len(value) for value in unique),
            dtype=np.float32,
            count=len(unique),
        )
        return self._scatter(lengths)

    @cached_property
    def non_empty(self) -> np.ndarray:
        """Boolean mask of cells with visible content."""
        return self.dtype_grid != EMPTY_CODE

    @cached_property
    def empty_mask(self) -> np.ndarray:
        """Boolean mask of empty cells (complement of :attr:`non_empty`)."""
        return ~self.non_empty

    @cached_property
    def numeric_grid(self) -> np.ndarray:
        """``float64`` grid of parsed numbers; non-numeric cells are NaN."""
        unique = self.unique_values
        parsed = [parse_number(value) for value in unique]
        numbers = np.array(
            [np.nan if value is None else value for value in parsed],
            dtype=np.float64,
        )
        return self._scatter(numbers)

    @cached_property
    def keyword_mask(self) -> np.ndarray:
        """Boolean mask of cells containing an aggregation keyword."""
        unique = self.unique_values
        flags = np.fromiter(
            (contains_aggregation_keyword(value) for value in unique),
            dtype=bool,
            count=len(unique),
        )
        return self._scatter(flags)

    @cached_property
    def word_counts(self) -> np.ndarray:
        """``int64`` grid of alphanumeric word counts per cell."""
        unique = self.unique_values
        counts = np.fromiter(
            (count_words(value) for value in unique),
            dtype=np.int64,
            count=len(unique),
        )
        return self._scatter(counts)

    @cached_property
    def numeric_mask(self) -> np.ndarray:
        """Boolean mask of int/float cells (the arithmetic types)."""
        return (self.dtype_grid == _NUMERIC_CODES[0]) | (
            self.dtype_grid == _NUMERIC_CODES[1]
        )

    @cached_property
    def string_mask(self) -> np.ndarray:
        """Boolean mask of string-typed cells."""
        return self.dtype_grid == int(DataType.STRING)

    # ------------------------------------------------------------------
    # Row / column aggregates
    # ------------------------------------------------------------------
    @cached_property
    def empty_row(self) -> np.ndarray:
        """Per-row flag: every cell of the row is empty."""
        return self.empty_mask.all(axis=1)

    @cached_property
    def empty_col(self) -> np.ndarray:
        """Per-column flag: every cell of the column is empty."""
        return self.empty_mask.all(axis=0)

    @cached_property
    def row_empty_ratio(self) -> np.ndarray:
        """Per-row share of empty cells (``float64``)."""
        return self.empty_mask.mean(axis=1)

    @cached_property
    def col_empty_ratio(self) -> np.ndarray:
        """Per-column share of empty cells (``float64``)."""
        return self.empty_mask.mean(axis=0)

    @cached_property
    def row_non_empty(self) -> np.ndarray:
        """Per-row count of non-empty cells (``int64``)."""
        return self.non_empty.sum(axis=1)

    @cached_property
    def row_numeric(self) -> np.ndarray:
        """Per-row count of int/float cells (``int64``)."""
        return self.numeric_mask.sum(axis=1)

    @cached_property
    def row_string(self) -> np.ndarray:
        """Per-row count of string cells (``int64``)."""
        return self.string_mask.sum(axis=1)

    @cached_property
    def row_keyword(self) -> np.ndarray:
        """Per-row flag: any cell contains an aggregation keyword."""
        return self.keyword_mask.any(axis=1)

    @cached_property
    def col_keyword(self) -> np.ndarray:
        """Per-column flag: any cell contains an aggregation keyword."""
        return self.keyword_mask.any(axis=0)

    @cached_property
    def row_word_counts(self) -> np.ndarray:
        """Per-row total of alphanumeric word counts (``int64``)."""
        return self.word_counts.sum(axis=1)

    @cached_property
    def row_length_mean(self) -> np.ndarray:
        """Per-row mean stripped length over non-empty cells (0.0 for
        fully empty rows)."""
        return self._masked_length_mean(axis=1)

    @cached_property
    def col_length_mean(self) -> np.ndarray:
        """Per-column mean stripped length over non-empty cells (0.0
        for fully empty columns)."""
        return self._masked_length_mean(axis=0)

    def _masked_length_mean(self, axis: int) -> np.ndarray:
        lengths = np.where(
            self.non_empty, self.value_lengths.astype(np.float64), 0.0
        )
        sums = lengths.sum(axis=axis)
        counts = self.non_empty.sum(axis=axis)
        out = np.zeros_like(sums)
        np.divide(sums, counts, out=out, where=counts > 0)
        return out

    # ------------------------------------------------------------------
    # Block structure (Algorithm 1, vectorized)
    # ------------------------------------------------------------------
    @cached_property
    def _blocks(self) -> tuple[np.ndarray, np.ndarray]:
        """``(block_labels, block_size_grid)`` via run-based union-find.

        Horizontal runs of non-empty cells get ids from one row-major
        ``cumsum`` over run starts (runs cannot span rows because
        every row begins a new start); vertically adjacent runs are
        unioned; component sizes are the summed run lengths.
        """
        mask = self.non_empty
        labels = np.full(self.shape, -1, dtype=np.int64)
        sizes = np.zeros(self.shape, dtype=np.int64)
        if mask.size == 0 or not mask.any():
            return labels, sizes

        starts = mask.copy()
        starts[:, 1:] &= self.empty_mask[:, :-1]
        run_ids = np.full(self.shape, -1, dtype=np.int64)
        run_ids[mask] = np.cumsum(starts.reshape(-1))[mask.reshape(-1)] - 1
        n_runs = int(starts.sum())
        run_lengths = np.bincount(run_ids[mask], minlength=n_runs)

        parent = np.arange(n_runs, dtype=np.int64)

        def find(run: int) -> int:
            root = run
            while parent[root] != root:
                root = parent[root]
            while parent[run] != root:  # path compression
                parent[run], run = root, int(parent[run])
            return root

        both = mask[:-1] & mask[1:]
        vertical_pairs = np.stack(
            [run_ids[:-1][both], run_ids[1:][both]], axis=1
        )
        if vertical_pairs.size:
            for upper, lower in np.unique(vertical_pairs, axis=0):
                root_a, root_b = find(int(upper)), find(int(lower))
                if root_a != root_b:
                    parent[root_b] = root_a

        roots = np.fromiter(
            (find(run) for run in range(n_runs)),
            dtype=np.int64,
            count=n_runs,
        )
        component_sizes = np.zeros(n_runs, dtype=np.int64)
        np.add.at(component_sizes, roots, run_lengths)

        cell_roots = roots[run_ids[mask]]
        labels[mask] = cell_roots
        sizes[mask] = component_sizes[cell_roots]
        return labels, sizes

    @property
    def block_labels(self) -> np.ndarray:
        """``int64`` grid of connected-component labels under
        4-adjacency; ``-1`` for empty cells.  Labels are arbitrary but
        deterministic: two cells share a label iff they share a
        component."""
        return self._blocks[0]

    @property
    def block_size_grid(self) -> np.ndarray:
        """``int64`` grid of component sizes; ``0`` for empty cells."""
        return self._blocks[1]

    # ------------------------------------------------------------------
    # Derived-cell detection memo (Algorithm 2)
    # ------------------------------------------------------------------
    def derived_mask(
        self, detector: SupportsDerivedDetection
    ) -> np.ndarray:
        """Read-only boolean grid of the detected derived cells,
        computed once per detector configuration (keyed by
        ``detector.cache_key``) and indexed by the line and cell
        extractors."""
        key = detector.cache_key
        mask = self._derived_memo.get(key)
        if mask is None:
            mask = detector.detect_profile(self)
            mask.flags.writeable = False
            self._derived_memo[key] = mask
        return mask

    # ------------------------------------------------------------------
    def materialize(self) -> "TableProfile":
        """Force every columnar array (``bench/layers.py`` times
        ``core.profile.build`` with it, so later layers measure pure
        consumption)."""
        _ = (
            self.dtype_grid, self.value_lengths, self.non_empty,
            self.numeric_grid, self.keyword_mask, self.word_counts,
            self.empty_row, self.empty_col, self.row_empty_ratio,
            self.col_empty_ratio, self.row_non_empty, self.row_numeric,
            self.row_string, self.row_keyword, self.col_keyword,
            self.row_word_counts, self.row_length_mean,
            self.col_length_mean, self.block_labels,
            self.block_size_grid,
        )
        return self


def table_profile(table: Table) -> TableProfile:
    """The memoized :class:`TableProfile` of ``table``.

    The profile is stored on the table instance (tables are
    conceptually immutable), so any number of extractors — across one
    analyze, a fit, or repeated CV folds touching the same ``Table``
    object — share one computation.  Concurrent first calls race
    benignly: both compute identical arrays and last-write-wins.
    """
    profile = table._profile
    if not isinstance(profile, TableProfile):
        profile = TableProfile(table)
        table._profile = profile
    return profile
