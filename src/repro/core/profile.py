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

* **Whole-table passes over the vocabulary.**  Verbose CSV files
  repeat values heavily (years, group labels, blank padding, small
  integers), so each *distinct* stripped string is handled once and
  the per-value results are scattered back onto the grid through an
  inverse index.  The memoized
  :func:`~repro.core.datatypes.infer_data_type` and
  :func:`~repro.core.datatypes.parse_number` run per distinct value;
  lengths, word counts and keyword flags come from one NUL-joined
  string of the distinct values: word starts are found in its code
  points, keywords with one ``finditer`` of
  :data:`~repro.core.keywords.AGGREGATION_PATTERN`, and each hit is
  credited to its value by a ``searchsorted`` over the start offsets.
* **Library connected components.**  Block sizes (Algorithm 1) are
  ``scipy.ndimage.label`` components under 4-adjacency, sized with
  one ``bincount`` — the same components as the published DFS.

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

import string
from functools import cached_property
from typing import Protocol

import numpy as np
from scipy import ndimage

from repro.core.datatypes import infer_data_type, parse_number
from repro.core.keywords import AGGREGATION_PATTERN
from repro.types import DataType, Table

#: Integer code of the ``EMPTY`` data type in :attr:`TableProfile.dtype_grid`.
EMPTY_CODE: int = int(DataType.EMPTY)

_NUMERIC_CODES: tuple[int, int] = (int(DataType.INT), int(DataType.FLOAT))

#: Code points below 128 that belong to a word, the ASCII letters and
#: digits of :func:`repro.util.text.tokenize_words`.
_WORD_CHAR = np.zeros(128, dtype=bool)
_WORD_CHAR[[ord(c) for c in string.ascii_letters + string.digits]] = True


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
        """``(unique stripped values, inverse indices)`` for all cells:
        what ``np.unique(..., return_inverse=True)`` returns, from a set
        and a dict lookup instead of an object-array sort.

        Object dtype keeps memory proportional to the distinct strings
        (one reference per cell) even when individual cells are huge.
        """
        stripped = [v.strip() for row in self.table.rows() for v in row]
        distinct = sorted(set(stripped))
        index = {value: k for k, value in enumerate(distinct)}
        inverse = np.fromiter(
            map(index.__getitem__, stripped),
            dtype=np.intp,
            count=len(stripped),
        )
        unique = np.empty(len(distinct), dtype=object)
        unique[:] = distinct
        return unique, inverse

    @cached_property
    def _vocabulary(self) -> tuple[str, np.ndarray, np.ndarray]:
        """``(joined, starts, lengths)``: the distinct values joined by
        NUL, and each value's start offset and length in ``joined``.

        A value may itself hold NUL, so the offsets, not the
        separators, say which value a position belongs to.
        """
        unique = self.unique_values
        lengths = np.fromiter(
            map(len, unique), dtype=np.intp, count=len(unique)
        )
        starts = np.zeros(len(unique), dtype=np.intp)
        np.cumsum(lengths[:-1] + 1, out=starts[1:])
        return "\0".join(unique), starts, lengths

    def _per_value_counts(self, positions: np.ndarray) -> np.ndarray:
        """How many of ``positions`` (offsets into the joined
        vocabulary) fall in each distinct value."""
        starts = self._vocabulary[1]
        owners = np.searchsorted(starts, positions, side="right") - 1
        return np.bincount(owners, minlength=len(starts))

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
            map(infer_data_type, unique), dtype=np.int8, count=len(unique)
        )
        return self._scatter(codes)

    @cached_property
    def value_lengths(self) -> np.ndarray:
        """``float32`` grid of stripped cell-value lengths.

        Lengths are integers, exactly representable in ``float32`` up
        to :math:`2^{24}`; consumers needing ``float64`` arithmetic
        upcast first, which is exact.
        """
        return self._scatter(self._vocabulary[2].astype(np.float32))

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
        # ``None`` (not a number) converts to the same NaN as ``np.nan``.
        numbers = np.array(
            list(map(parse_number, self.unique_values)), dtype=np.float64
        )
        return self._scatter(numbers)

    @cached_property
    def keyword_mask(self) -> np.ndarray:
        """Boolean mask of cells containing an aggregation keyword."""
        matches = AGGREGATION_PATTERN.finditer(self._vocabulary[0])
        hits = np.fromiter((m.start() for m in matches), dtype=np.intp)
        return self._scatter(self._per_value_counts(hits) > 0)

    @cached_property
    def word_counts(self) -> np.ndarray:
        """``int64`` grid of alphanumeric word counts per cell.

        A word starts at each ASCII letter or digit whose predecessor
        is not one; the code points come from UTF-32, with
        ``surrogatepass`` so lone surrogates count as one non-word
        character each, as they do in ``str``.
        """
        codes = np.frombuffer(
            self._vocabulary[0].encode("utf-32-le", "surrogatepass"),
            dtype="<u4",
        )
        word = _WORD_CHAR[np.minimum(codes, 127)]
        word[1:] &= ~word[:-1]  # ``~`` copies, so this reads the marks
        return self._scatter(self._per_value_counts(np.flatnonzero(word)))

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
        """``(block_labels, block_size_grid)`` from one
        ``scipy.ndimage.label`` pass (its default structure is
        4-adjacency) and a ``bincount`` of the component numbers."""
        components, _ = ndimage.label(self.non_empty)
        sizes = np.bincount(components.ravel(), minlength=1)
        sizes[0] = 0  # component 0 is the background: the empty cells
        return components.astype(np.int64) - 1, sizes[components]

    @property
    def block_labels(self) -> np.ndarray:
        """``int64`` grid of connected-component labels under
        4-adjacency; ``-1`` for empty cells.  A label is
        ``ndimage.label``'s component number minus one, so components
        are numbered from 0 in the raster order of their first cell;
        two cells share a label iff they share a component."""
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
