"""The Strudel-L line feature set (Table 1 of the paper).

Eleven logical features in three groups; the three contextual features
are applied twice (once toward the closest non-empty line above, once
below), giving 14 feature columns:

========================  ============================================
Content                   EmptyCellRatio, DiscountedCumulativeGain,
                          AggregationWord, WordAmount,
                          NumericalCellRatio, StringCellRatio,
                          LinePosition
Contextual (above/below)  DataTypeMatching, EmptyNeighboringLines,
                          CellLengthDifference
Computational             DerivedCoverage
========================  ============================================

Conventions at file boundaries (documented here because the paper
leaves them implicit):

* a line with no non-empty neighbour in a direction scores 0.0 on
  ``DataTypeMatching`` and 1.0 on ``CellLengthDifference`` (nothing to
  match; maximally different);
* ``EmptyNeighboringLines`` counts positions beyond the file as empty,
  with a fixed denominator of five.

The extractor can optionally append the paper's rejected *global*
features (file-level emptiness, width, length, empty-block count) for
the ablation experiment that reproduces the finding of "no positive
impact".

The whole matrix is computed from the columnar
:class:`~repro.core.profile.TableProfile` — per-cell data types,
stripped lengths, word counts and keyword flags are classified once
per file (once per *distinct* value, in fact) and every feature below
is a vectorized reduction over those arrays.  Where a reference
formula sums floating-point terms sequentially, the vectorized code
uses ``np.cumsum`` (a sequential accumulation) rather than ``np.sum``
(pairwise), so the output stays byte-identical to the original
per-line implementation, which ``tests/test_profile_parity.py``
enforces against a retained legacy reference.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.derived import DerivedDetector
from repro.core.profile import TableProfile, table_profile
from repro.types import Table

#: Histogram geometry for ``CellLengthDifference``.
_LENGTH_BINS = 10
_LENGTH_RANGE = (0.0, 50.0)

#: Window size for ``EmptyNeighboringLines``.
_NEIGHBOR_WINDOW = 5

LINE_FEATURE_NAMES: tuple[str, ...] = (
    "empty_cell_ratio",
    "discounted_cumulative_gain",
    "aggregation_word",
    "word_amount",
    "numerical_cell_ratio",
    "string_cell_ratio",
    "line_position",
    "data_type_matching_above",
    "data_type_matching_below",
    "empty_neighboring_lines_above",
    "empty_neighboring_lines_below",
    "cell_length_difference_above",
    "cell_length_difference_below",
    "derived_coverage",
)

GLOBAL_FEATURE_NAMES: tuple[str, ...] = (
    "global_empty_line_ratio",
    "global_file_width",
    "global_file_length",
    "global_empty_block_count",
)

#: Feature-group partition used by the feature-group ablation.
LINE_FEATURE_GROUPS: dict[str, tuple[str, ...]] = {
    "content": LINE_FEATURE_NAMES[:7],
    "contextual": LINE_FEATURE_NAMES[7:13],
    "computational": LINE_FEATURE_NAMES[13:14],
}


class LineFeatureExtractor:
    """Computes the Table 1 feature matrix for every line of a table.

    Parameters
    ----------
    detector:
        The derived cell detector backing ``DerivedCoverage``;
        defaults to the paper's configuration (``d=0.1``, ``c=0.5``).
    include_global_features:
        Append the four rejected global features (ablation only).
    """

    def __init__(
        self,
        detector: DerivedDetector | None = None,
        include_global_features: bool = False,
    ):
        self.detector = detector or DerivedDetector()
        self.include_global_features = include_global_features

    @property
    def feature_names(self) -> tuple[str, ...]:
        """Column names of the matrix produced by :meth:`extract`."""
        if self.include_global_features:
            return LINE_FEATURE_NAMES + GLOBAL_FEATURE_NAMES
        return LINE_FEATURE_NAMES

    @property
    def cache_key(self) -> str:
        """Stable configuration key: everything :meth:`extract`
        depends on besides the table itself (part of the corpus
        engine's model fingerprint, :mod:`repro.perf.engine`)."""
        return (
            f"line-v1(global={int(self.include_global_features)},"
            f"{self.detector.cache_key})"
        )

    # ------------------------------------------------------------------
    def extract(self, table: Table) -> np.ndarray:
        """Feature matrix of shape ``(n_rows, n_features)``.

        Rows are produced for *every* line, including empty ones, so
        callers can index by the original line number; the classifiers
        select only non-empty lines.
        """
        n_rows, n_cols = table.shape
        profile = table_profile(table)
        features = np.zeros((n_rows, len(self.feature_names)))
        if n_rows == 0:
            return features

        empty_line = profile.empty_row
        above = _closest_non_empty(empty_line, direction=-1)
        below = _closest_non_empty(empty_line, direction=+1)

        features[:, 0] = self._empty_cell_ratio(profile, n_cols)
        features[:, 1] = self._discounted_cumulative_gain(profile)
        features[:, 2] = profile.row_keyword.astype(np.float64)
        features[:, 3] = self._word_amount(profile)
        features[:, 4], features[:, 5] = self._type_ratios(profile)
        features[:, 6] = self._line_position(n_rows)
        features[:, 7] = self._data_type_matching(profile, above)
        features[:, 8] = self._data_type_matching(profile, below)
        features[:, 9] = self._empty_neighbor_ratio(empty_line, -1)
        features[:, 10] = self._empty_neighbor_ratio(empty_line, +1)
        histograms = self._length_histograms(profile)
        features[:, 11] = self._cell_length_difference(histograms, above)
        features[:, 12] = self._cell_length_difference(histograms, below)
        features[:, 13] = self._derived_coverage(profile)

        if self.include_global_features:
            features[:, 14:] = self._global_features(
                empty_line, n_rows, n_cols
            )
        return features

    # ------------------------------------------------------------------
    # Content features
    # ------------------------------------------------------------------
    @staticmethod
    def _empty_cell_ratio(
        profile: TableProfile, n_cols: int
    ) -> np.ndarray:
        """Per-row ``1 - non_empty/n_cols`` (1.0 for zero-width tables)."""
        if n_cols == 0:
            return np.ones(profile.n_rows)
        return 1.0 - profile.row_non_empty / n_cols

    @staticmethod
    def _discounted_cumulative_gain(profile: TableProfile) -> np.ndarray:
        """Normalized DCG of each row's 0/1 emptiness vector.

        ``cumsum`` accumulates left to right exactly like the scalar
        reference (``repro.util.stats.discounted_cumulative_gain``).
        """
        n_cols = profile.n_cols
        if n_cols == 0:
            return np.zeros(profile.n_rows)
        discounts = np.array(
            [math.log2(position + 1) for position in range(1, n_cols + 1)]
        )
        relevance = profile.non_empty.astype(np.float64)
        gains = np.cumsum(relevance / discounts, axis=1)[:, -1]
        ideal = sum(
            1.0 / math.log2(position + 1)
            for position in range(1, n_cols + 1)
        )
        return gains / ideal if ideal > 0 else np.zeros(profile.n_rows)

    @staticmethod
    def _word_amount(profile: TableProfile) -> np.ndarray:
        """Min-max-normalized per-row word counts."""
        counts = profile.row_word_counts.astype(np.float64)
        if counts.size == 0:
            return counts
        low = counts.min()
        span = counts.max() - low
        if span == 0:
            return np.zeros_like(counts)
        return (counts - low) / span

    @staticmethod
    def _type_ratios(
        profile: TableProfile,
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(numeric_ratio, string_ratio)`` per row over non-empty
        cells; fully empty rows score 0.0 on both."""
        non_empty = profile.row_non_empty
        numeric = np.zeros(profile.n_rows)
        strings = np.zeros(profile.n_rows)
        np.divide(
            profile.row_numeric, non_empty, out=numeric,
            where=non_empty > 0,
        )
        np.divide(
            profile.row_string, non_empty, out=strings,
            where=non_empty > 0,
        )
        return numeric, strings

    @staticmethod
    def _line_position(n_rows: int) -> np.ndarray:
        """Row index normalized to [0, 1] (0.0 for single-row tables)."""
        if n_rows <= 1:
            return np.zeros(n_rows)
        return np.arange(n_rows) / (n_rows - 1)

    # ------------------------------------------------------------------
    # Contextual features
    # ------------------------------------------------------------------
    @staticmethod
    def _data_type_matching(
        profile: TableProfile, neighbour: np.ndarray
    ) -> np.ndarray:
        """Share of columns whose data type matches the neighbour row
        (0.0 where there is no neighbour)."""
        result = np.zeros(profile.n_rows)
        valid = neighbour >= 0
        if profile.n_cols == 0 or not valid.any():
            return result
        grid = profile.dtype_grid
        matches = (grid[valid] == grid[neighbour[valid]]).sum(axis=1)
        result[valid] = matches / profile.n_cols
        return result

    @staticmethod
    def _empty_neighbor_ratio(
        empty_line: np.ndarray, direction: int
    ) -> np.ndarray:
        """Share of empty lines among the five lines above/below;
        positions beyond the file count as empty."""
        n_rows = len(empty_line)
        window = _NEIGHBOR_WINDOW
        padded = np.concatenate(
            [
                np.ones(window, dtype=np.int64),
                empty_line.astype(np.int64),
                np.ones(window, dtype=np.int64),
            ]
        )
        sums = np.concatenate([[0], np.cumsum(padded)])
        if direction < 0:
            counts = sums[window : window + n_rows] - sums[:n_rows]
        else:
            counts = (
                sums[2 * window + 1 : 2 * window + 1 + n_rows]
                - sums[window + 1 : window + 1 + n_rows]
            )
        return counts / window

    @staticmethod
    def _length_histograms(profile: TableProfile) -> np.ndarray:
        """``(n_rows, bins)`` histogram of stripped lengths of the
        non-empty cells of each row (the reference geometry: 10 bins
        over [0, 50), out-of-range clamped into boundary bins)."""
        n_rows = profile.n_rows
        histograms = np.zeros((n_rows, _LENGTH_BINS))
        mask = profile.non_empty
        if not mask.any():
            return histograms
        low, high = _LENGTH_RANGE
        width = (high - low) / _LENGTH_BINS
        lengths = profile.value_lengths.astype(np.float64)
        bins = ((lengths - low) / width).astype(np.int64)
        np.clip(bins, 0, _LENGTH_BINS - 1, out=bins)
        rows = np.nonzero(mask)[0]
        flat = rows * _LENGTH_BINS + bins[mask]
        counts = np.bincount(flat, minlength=n_rows * _LENGTH_BINS)
        return counts.reshape(n_rows, _LENGTH_BINS).astype(np.float64)

    @staticmethod
    def _cell_length_difference(
        histograms: np.ndarray, neighbour: np.ndarray
    ) -> np.ndarray:
        """Bhattacharyya distance between each row's length histogram
        and its neighbour's (1.0 where there is no neighbour)."""
        n_rows = histograms.shape[0]
        result = np.ones(n_rows)
        valid = np.nonzero(neighbour >= 0)[0]
        if valid.size == 0:
            return result
        here = histograms[valid]
        there = histograms[neighbour[valid]]
        total_here = here.sum(axis=1)
        total_there = there.sum(axis=1)
        both_zero = (total_here == 0) & (total_there == 0)
        one_zero = (total_here == 0) ^ (total_there == 0)
        distances = np.ones(valid.size)
        distances[both_zero] = 0.0
        live = np.nonzero(~(both_zero | one_zero))[0]
        if live.size:
            # Per-term ops mirror the scalar reference exactly:
            # sqrt((p / total_p) * (q / total_q)), summed left to
            # right via cumsum.
            p = here[live] / total_here[live, None]
            q = there[live] / total_there[live, None]
            coefficients = np.cumsum(np.sqrt(p * q), axis=1)[:, -1]
            coefficients = np.minimum(1.0, np.maximum(0.0, coefficients))
            distances[live] = 1.0 - coefficients
        result[valid] = distances
        return result

    # ------------------------------------------------------------------
    # Computational feature
    # ------------------------------------------------------------------
    def _derived_coverage(self, profile: TableProfile) -> np.ndarray:
        """Share of each row's numeric cells detected as derived
        (0.0 for rows without numeric cells)."""
        derived_mask = profile.derived_mask(self.detector)
        derived_counts = (derived_mask & profile.numeric_mask).sum(axis=1)
        numeric = profile.row_numeric
        coverage = np.zeros(profile.n_rows)
        np.divide(
            derived_counts, numeric, out=coverage, where=numeric > 0
        )
        return coverage

    # ------------------------------------------------------------------
    @staticmethod
    def _global_features(
        empty_line: np.ndarray, n_rows: int, n_cols: int
    ) -> np.ndarray:
        """The paper's rejected file-level features (ablation S2)."""
        empty_ratio = int(empty_line.sum()) / n_rows if n_rows else 0.0
        # Width and length squashed to [0, 1] with a soft saturation.
        width = n_cols / (n_cols + 25.0)
        length = n_rows / (n_rows + 100.0)
        starts = empty_line.copy()
        starts[1:] &= ~empty_line[:-1]
        blocks = int(starts.sum())
        block_count = blocks / (blocks + 5.0)
        return np.array([empty_ratio, width, length, block_count])


def _closest_non_empty(
    empty_line: np.ndarray, direction: int
) -> np.ndarray:
    """For each line, the index of the closest non-empty line in
    ``direction`` (-1 above, +1 below), or ``-1`` at the boundary."""
    n_rows = len(empty_line)
    indices = np.arange(n_rows)
    marked = np.where(~empty_line, indices, -1)
    if direction < 0:
        shifted = np.concatenate([[-1], marked[:-1]])
        return np.maximum.accumulate(shifted)
    marked = np.where(~empty_line, indices, n_rows)
    shifted = np.concatenate([marked[1:], [n_rows]])
    below = np.minimum.accumulate(shifted[::-1])[::-1]
    return np.where(below < n_rows, below, -1)
