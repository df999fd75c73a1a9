"""The Strudel-C cell feature set (Table 2 of the paper).

Features are produced for every *non-empty* cell (only those are
classified).  The 37 columns:

===========================  =========================================
Content (13)                 ValueLength, DataType,
                             HasDerivedKeywords,
                             RowHasDerivedKeywords,
                             ColumnHasDerivedKeywords, RowPosition,
                             ColumnPosition, LineClassProbability
                             (six columns, one per class)
Contextual (23)              IsEmptyRowBefore, IsEmptyRowAfter,
                             IsEmptyColumnLeft, IsEmptyColumnRight,
                             RowEmptyCellRatio, ColumnEmptyCellRatio,
                             BlockSize, NeighborValueLength (eight
                             surrounding cells), NeighborDataType
                             (eight surrounding cells)
Computational (1)            IsAggregation
===========================  =========================================

Conventions (the paper leaves these implicit):

* ``ValueLength`` and the neighbour value lengths are normalized per
  file by the longest cell value, keeping them in [0, 1];
* neighbours outside the table get the paper's ``-1`` default for both
  value length and data type;
* a row/column adjacent to the file boundary counts as "empty" for the
  ``IsEmptyRowBefore/After`` and ``IsEmptyColumnLeft/Right`` flags.

The matrix is assembled column-wise from the shared
:class:`~repro.core.profile.TableProfile` — data types, lengths,
keyword flags, emptiness aggregates and block sizes are the same
arrays the line extractor and derived-cell detector consume, computed
once per table.  Cells are addressed by their flat index into the
grid, and the two neighbour sources (lengths and types) each get one
``-1``-padded copy, so the eight offsets become one gather per source
instead of per-cell bounds checks.  ``tests/test_profile_parity.py``
pins the output byte-identical to the original per-cell
implementation.
"""

from __future__ import annotations

import numpy as np

from repro.core.derived import DerivedDetector
from repro.errors import InvalidParameterError
from repro.core.profile import table_profile
from repro.types import CONTENT_CLASSES, MISSING_NEIGHBOR, Table

_NEIGHBOR_OFFSETS: tuple[tuple[int, int], ...] = (
    (-1, -1), (-1, 0), (-1, 1),
    (0, -1), (0, 1),
    (1, -1), (1, 0), (1, 1),
)
_NEIGHBOR_TAGS: tuple[str, ...] = (
    "nw", "n", "ne", "w", "e", "sw", "s", "se"
)

CELL_FEATURE_NAMES: tuple[str, ...] = (
    (
        "value_length",
        "data_type",
        "has_derived_keywords",
        "row_has_derived_keywords",
        "column_has_derived_keywords",
        "row_position",
        "column_position",
    )
    + tuple(f"line_class_probability_{c.value}" for c in CONTENT_CLASSES)
    + (
        "is_empty_row_before",
        "is_empty_row_after",
        "is_empty_column_left",
        "is_empty_column_right",
        "row_empty_cell_ratio",
        "column_empty_cell_ratio",
        "block_size",
    )
    + tuple(f"neighbor_value_length_{tag}" for tag in _NEIGHBOR_TAGS)
    + tuple(f"neighbor_data_type_{tag}" for tag in _NEIGHBOR_TAGS)
    + ("is_aggregation",)
)

#: Feature-group partition used by the feature-group ablation.
CELL_FEATURE_GROUPS: dict[str, tuple[str, ...]] = {
    "content": CELL_FEATURE_NAMES[:13],
    "contextual": CELL_FEATURE_NAMES[13:36],
    "computational": CELL_FEATURE_NAMES[36:],
}


class CellFeatureExtractor:
    """Computes the Table 2 feature matrix for all non-empty cells.

    Parameters
    ----------
    detector:
        Derived cell detector behind ``IsAggregation``; defaults to
        the paper's configuration.
    """

    def __init__(self, detector: DerivedDetector | None = None):
        self.detector = detector or DerivedDetector()

    @property
    def feature_names(self) -> tuple[str, ...]:
        """Column names of the matrix produced by :meth:`extract`."""
        return CELL_FEATURE_NAMES

    @property
    def cache_key(self) -> str:
        """Stable configuration key: everything :meth:`extract`
        depends on besides the table and its line probabilities (part
        of the corpus engine's model fingerprint,
        :mod:`repro.perf.engine`)."""
        return f"cell-v1({self.detector.cache_key})"

    # ------------------------------------------------------------------
    def extract(
        self,
        table: Table,
        line_probabilities: np.ndarray | None = None,
    ) -> tuple[list[tuple[int, int]], np.ndarray]:
        """Positions and features of every non-empty cell.

        Parameters
        ----------
        table:
            The verbose CSV table.
        line_probabilities:
            ``(n_rows, 6)`` matrix of Strudel-L class probabilities.
            ``None`` falls back to the uninformative uniform vector so
            the extractor can run stand-alone.

        Returns
        -------
        positions, features:
            ``positions[i]`` is the ``(row, col)`` of feature row ``i``;
            ``features`` is :meth:`matrix`.
        """
        features = self.matrix(table, line_probabilities)
        rr, cc = np.nonzero(table_profile(table).non_empty)
        return list(zip(rr.tolist(), cc.tolist())), features

    def matrix(
        self,
        table: Table,
        line_probabilities: np.ndarray | None = None,
    ) -> np.ndarray:
        """The feature matrix alone: one row per non-empty cell, in
        row-major order (the rows of :meth:`extract`)."""
        n_rows, n_cols = table.shape
        n_classes = len(CONTENT_CLASSES)
        if line_probabilities is None:
            line_probabilities = np.full(
                (n_rows, n_classes), 1.0 / n_classes
            )
        if line_probabilities.shape != (n_rows, n_classes):
            raise InvalidParameterError(
                f"line_probabilities must have shape "
                f"({n_rows}, {n_classes}), got "
                f"{line_probabilities.shape}"
            )

        profile = table_profile(table)
        # Cells are addressed by their flat index into the grid.
        cells = np.flatnonzero(profile.non_empty)
        if not cells.size:
            return np.zeros((0, len(CELL_FEATURE_NAMES)))
        rr, cc = np.divmod(cells, n_cols)

        # The two neighbour sources, each padded once with the paper's
        # -1 for neighbours beyond the table boundary.  ``at`` is each
        # cell's flat index into the padded grids.
        width = n_cols + 2
        types = _padded(profile.dtype_grid)
        norm_lengths = _padded(profile.value_lengths)
        # Normalized by the longest value (a non-empty cell's length
        # is at least 1), the padding left at -1.
        inner = norm_lengths[1:-1, 1:-1]
        inner /= inner.max()
        types, norm_lengths = types.ravel(), norm_lengths.ravel()
        at = cells + 2 * rr + (width + 1)

        probabilities = np.asarray(line_probabilities, dtype=np.float64)
        derived_mask = profile.derived_mask(self.detector)

        features = np.empty((len(cells), len(CELL_FEATURE_NAMES)))
        # Content features.
        features[:, 0] = norm_lengths.take(at)
        features[:, 1] = types.take(at)
        features[:, 2] = profile.keyword_mask.take(cells)
        features[:, 3] = profile.row_keyword[rr]
        features[:, 4] = profile.col_keyword[cc]
        features[:, 5] = rr / (n_rows - 1) if n_rows > 1 else 0.0
        features[:, 6] = cc / (n_cols - 1) if n_cols > 1 else 0.0
        features[:, 7 : 7 + n_classes] = probabilities[rr]

        # Contextual features: boundary rows/columns count as empty.
        base = 7 + n_classes
        padded_empty_row = np.concatenate(
            [[True], profile.empty_row, [True]]
        )
        padded_empty_col = np.concatenate(
            [[True], profile.empty_col, [True]]
        )
        features[:, base + 0] = padded_empty_row[rr]
        features[:, base + 1] = padded_empty_row[rr + 2]
        features[:, base + 2] = padded_empty_col[cc]
        features[:, base + 3] = padded_empty_col[cc + 2]
        features[:, base + 4] = profile.row_empty_ratio[rr]
        features[:, base + 5] = profile.col_empty_ratio[cc]
        features[:, base + 6] = (
            profile.block_size_grid.take(cells) / (n_rows * n_cols)
        )

        neighbours = at[:, None] + np.array(
            [di * width + dj for di, dj in _NEIGHBOR_OFFSETS]
        )
        features[:, base + 7 : base + 15] = norm_lengths.take(neighbours)
        features[:, base + 15 : base + 23] = types.take(neighbours)

        # Computational feature.
        features[:, base + 23] = derived_mask.take(cells)
        return features


def _padded(grid: np.ndarray) -> np.ndarray:
    """A ``float64`` copy of ``grid`` framed by one cell of the paper's
    ``-1`` default for neighbours beyond the table boundary."""
    padded = np.full(
        (grid.shape[0] + 2, grid.shape[1] + 2), float(MISSING_NEIGHBOR)
    )
    padded[1:-1, 1:-1] = grid
    return padded
