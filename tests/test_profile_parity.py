"""Byte-identical parity between the columnar profile and the legacy
per-extractor implementations.

The ``TableProfile`` rewiring (``repro.core.profile``) is a pure
performance change: every consumer must produce *exactly* the output
of its original per-cell Python implementation.  This module keeps
those original implementations alive as references — the line feature
loop, the cell feature loop, the per-cell ``numeric_grid``, the DFS of
Algorithm 1, the tokenize-and-lower keyword test, and the
table-scanning anchor enumeration and step-by-step walk of Algorithm 2
— and pins equality down to the byte level (``ndarray.tobytes()``),
not just ``allclose``.
"""

from __future__ import annotations

import io
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.blocks import block_sizes, normalized_block_sizes
from repro.core.cell_features import (
    _NEIGHBOR_OFFSETS,
    CELL_FEATURE_NAMES,
    CellFeatureExtractor,
)
from repro.core.datatypes import infer_data_type, is_numeric_type, parse_number
from repro.core.derived import (
    SUPPORTED_FUNCTIONS,
    DerivedDetector,
    numeric_grid,
)
from repro.core.keywords import (
    AGGREGATION_KEYWORDS,
    contains_aggregation_keyword,
)
from repro.core.line_features import (
    _LENGTH_BINS,
    _LENGTH_RANGE,
    _NEIGHBOR_WINDOW,
    LineFeatureExtractor,
)
from repro.core.profile import table_profile
from repro.datagen import make_corpus
from repro.datagen.filegen import generate_file
from repro.datagen.spec import FileSpec, TableSpec
from repro.errors import InvalidParameterError
from repro.io.cropping import crop_table
from repro.io.ingest import ingest_bytes
from repro.types import CONTENT_CLASSES, DataType, MISSING_NEIGHBOR, Table
from repro.util.stats import (
    bhattacharyya_distance,
    discounted_cumulative_gain,
    histogram,
    min_max_normalize,
)
from repro.util.text import count_words, tokenize_words
from tests.test_result_arrays import EDGE_BYTES

# ----------------------------------------------------------------------
# Legacy reference implementations (the pre-profile code, verbatim
# modulo plumbing).  These run in O(cells) Python and exist only to
# pin the vectorized paths.
# ----------------------------------------------------------------------


def legacy_numeric_grid(table: Table) -> np.ndarray:
    grid = np.full(table.shape, np.nan, dtype=np.float64)
    for i, row in enumerate(table.rows()):
        for j, value in enumerate(row):
            number = parse_number(value)
            if number is not None:
                grid[i, j] = number
    return grid


def legacy_contains_aggregation_keyword(text: str) -> bool:
    """The keyword test before the shared pattern: tokenize, lower,
    look up."""
    return any(
        word.lower() in AGGREGATION_KEYWORDS for word in tokenize_words(text)
    )


def legacy_line_contains_aggregation_keyword(cells: list[str]) -> bool:
    return any(legacy_contains_aggregation_keyword(cell) for cell in cells)


def legacy_components(table: Table) -> list[list[tuple[int, int]]]:
    """The published Algorithm 1: iterative DFS over non-empty cells,
    returning each connected component's positions."""
    non_empty = {(cell.row, cell.col) for cell in table.non_empty_cells()}
    components: list[list[tuple[int, int]]] = []
    visited: set[tuple[int, int]] = set()
    for start in non_empty:
        if start in visited:
            continue
        component: list[tuple[int, int]] = []
        stack = [start]
        visited.add(start)
        while stack:
            row, col = stack.pop()
            component.append((row, col))
            for neighbour in (
                (row - 1, col),
                (row + 1, col),
                (row, col - 1),
                (row, col + 1),
            ):
                if neighbour in non_empty and neighbour not in visited:
                    visited.add(neighbour)
                    stack.append(neighbour)
        components.append(component)
    return components


def legacy_block_sizes(table: Table) -> dict[tuple[int, int], int]:
    """Algorithm 1's block size of every non-empty cell."""
    return {
        position: len(component)
        for component in legacy_components(table)
        for position in component
    }


def legacy_tolerance(
    detector: DerivedDetector, candidates: np.ndarray
) -> np.ndarray:
    if detector.relative:
        return detector.delta * np.maximum(1.0, np.abs(candidates))
    return np.full_like(candidates, detector.delta)


def legacy_matches(
    detector: DerivedDetector, candidates: np.ndarray, aggregate: np.ndarray
) -> bool:
    """Coverage test of candidates against one aggregate vector."""
    close = np.abs(candidates - aggregate) < legacy_tolerance(
        detector, candidates
    )
    return bool(close.mean() > detector.coverage)


def legacy_scan(
    detector: DerivedDetector,
    candidates: np.ndarray,
    contributions: np.ndarray,
) -> bool:
    """Algorithm 2's step-by-step walk: accumulate one contribution
    row per step and stop at the first step that matches."""
    if contributions.shape[0] == 0:
        return False
    order_statistics = any(
        name in detector.functions for name in ("min", "max", "median")
    )
    running_sum = np.zeros_like(candidates)
    for step, row in enumerate(contributions, start=1):
        running_sum = running_sum + row
        # Never mark candidates matching an all-zero aggregate —
        # zero sums arise trivially from empty regions.
        if not np.any(running_sum):
            continue
        if "sum" in detector.functions and legacy_matches(
            detector, candidates, running_sum
        ):
            return True
        if (
            "mean" in detector.functions
            and step > 1
            and legacy_matches(detector, candidates, running_sum / step)
        ):
            return True
        # Order statistics (future-work extension): computed over
        # the window of the `step` nearest contribution rows.  A
        # single-row window would trivially match any copy of the
        # adjacent line, so require at least two rows.
        if order_statistics and step > 1:
            window = contributions[:step]
            if "min" in detector.functions and legacy_matches(
                detector, candidates, window.min(axis=0)
            ):
                return True
            if "max" in detector.functions and legacy_matches(
                detector, candidates, window.max(axis=0)
            ):
                return True
            if "median" in detector.functions and legacy_matches(
                detector, candidates, np.median(window, axis=0)
            ):
                return True
    return False


def legacy_row_is_derived(
    detector: DerivedDetector, grid: np.ndarray, row: int
) -> bool:
    cols = np.nonzero(~np.isnan(grid[row]))[0]
    if len(cols) == 0:
        return False
    candidates = grid[row, cols]
    n_rows = grid.shape[0]
    # Upwards: rows row-1, row-2, ... 0 (nearest first).
    upward = np.nan_to_num(grid[:row, :][::-1][:, cols], nan=0.0)
    if legacy_scan(detector, candidates, upward):
        return True
    # Downwards: rows row+1 ... n-1.
    downward = np.nan_to_num(grid[row + 1 : n_rows, :][:, cols], nan=0.0)
    return legacy_scan(detector, candidates, downward)


def legacy_column_is_derived(
    detector: DerivedDetector, grid: np.ndarray, col: int
) -> bool:
    rows = np.nonzero(~np.isnan(grid[:, col]))[0]
    if len(rows) == 0:
        return False
    candidates = grid[rows, col]
    n_cols = grid.shape[1]
    # Leftwards: columns col-1 ... 0 (nearest first).
    leftward = np.nan_to_num(
        grid[:, :col][:, ::-1][rows, :].T, nan=0.0
    )
    if legacy_scan(detector, candidates, leftward):
        return True
    # Rightwards: columns col+1 ... n-1.
    rightward = np.nan_to_num(
        grid[:, col + 1 : n_cols][rows, :].T, nan=0.0
    )
    return legacy_scan(detector, candidates, rightward)


def legacy_detect(detector: DerivedDetector, table: Table) -> set:
    """The pre-profile ``DerivedDetector.detect``: per-cell grid, a
    table-scanning anchor enumeration and the step-by-step walk."""
    grid = legacy_numeric_grid(table)
    if detector.anchor_mode == "keyword":
        anchors = [
            (cell.row, cell.col)
            for cell in table.non_empty_cells()
            if legacy_contains_aggregation_keyword(cell.value)
        ]
    else:
        anchors = [
            (int(i), 0)
            for i in np.nonzero((~np.isnan(grid)).any(axis=1))[0]
        ] + [
            (0, int(j))
            for j in np.nonzero((~np.isnan(grid)).any(axis=0))[0]
        ]
    detected: set[tuple[int, int]] = set()
    checked_rows: set[int] = set()
    checked_cols: set[int] = set()
    for row, col in anchors:
        if row not in checked_rows:
            checked_rows.add(row)
            if legacy_row_is_derived(detector, grid, row):
                detected.update(
                    (row, j) for j in np.nonzero(~np.isnan(grid[row]))[0]
                )
        if col not in checked_cols:
            checked_cols.add(col)
            if legacy_column_is_derived(detector, grid, col):
                detected.update(
                    (int(i), col)
                    for i in np.nonzero(~np.isnan(grid[:, col]))[0]
                )
    return detected


class LegacyLineFeatureExtractor:
    """The pre-profile per-line extraction loop, ported verbatim."""

    def __init__(self, detector=None, include_global_features=False):
        self.detector = detector or DerivedDetector()
        self.include_global_features = include_global_features

    @property
    def n_features(self):
        return 18 if self.include_global_features else 14

    def extract(self, table: Table) -> np.ndarray:
        n_rows, n_cols = table.shape
        rows = list(table.rows())
        types = [[infer_data_type(value) for value in row] for row in rows]
        empty_line = [table.is_empty_row(i) for i in range(n_rows)]
        derived_cells = legacy_detect(self.detector, table)
        word_counts = [
            float(sum(count_words(value) for value in row)) for row in rows
        ]
        word_normalized = min_max_normalize(word_counts)
        above = self._closest_non_empty(empty_line, direction=-1)
        below = self._closest_non_empty(empty_line, direction=+1)

        features = np.zeros((n_rows, self.n_features))
        for i in range(n_rows):
            features[i, :14] = self._line_features(
                i, rows, types, empty_line, derived_cells,
                word_normalized[i], above[i], below[i], n_rows, n_cols,
            )
        if self.include_global_features:
            features[:, 14:] = self._global_features(
                empty_line, n_rows, n_cols
            )
        return features

    def _line_features(
        self, i, rows, types, empty_line, derived_cells, word_amount,
        above, below, n_rows, n_cols,
    ) -> np.ndarray:
        row = rows[i]
        row_types = types[i]
        non_empty = [
            j for j, t in enumerate(row_types) if t is not DataType.EMPTY
        ]
        n_non_empty = len(non_empty)

        empty_ratio = 1.0 - n_non_empty / n_cols if n_cols else 1.0
        dcg = discounted_cumulative_gain(
            [0.0 if t is DataType.EMPTY else 1.0 for t in row_types]
        )
        aggregation = (
            1.0 if legacy_line_contains_aggregation_keyword(row) else 0.0
        )
        numeric = sum(1 for j in non_empty if is_numeric_type(row_types[j]))
        strings = sum(
            1 for j in non_empty if row_types[j] is DataType.STRING
        )
        numeric_ratio = numeric / n_non_empty if n_non_empty else 0.0
        string_ratio = strings / n_non_empty if n_non_empty else 0.0
        position = i / (n_rows - 1) if n_rows > 1 else 0.0

        matching_above = self._data_type_matching(row_types, types, above)
        matching_below = self._data_type_matching(row_types, types, below)
        empties_above = self._empty_neighbor_ratio(empty_line, i, -1)
        empties_below = self._empty_neighbor_ratio(empty_line, i, +1)
        length_above = self._cell_length_difference(row, rows, above)
        length_below = self._cell_length_difference(row, rows, below)

        derived_in_line = sum(
            1
            for j in non_empty
            if is_numeric_type(row_types[j]) and (i, j) in derived_cells
        )
        derived_coverage = derived_in_line / numeric if numeric else 0.0

        return np.array([
            empty_ratio, dcg, aggregation, word_amount, numeric_ratio,
            string_ratio, position, matching_above, matching_below,
            empties_above, empties_below, length_above, length_below,
            derived_coverage,
        ])

    @staticmethod
    def _closest_non_empty(empty_line, direction):
        n = len(empty_line)
        result: list[int | None] = [None] * n
        last: int | None = None
        order = range(n) if direction < 0 else range(n - 1, -1, -1)
        for i in order:
            result[i] = last
            if not empty_line[i]:
                last = i
        return result

    @staticmethod
    def _data_type_matching(row_types, types, neighbour):
        if neighbour is None:
            return 0.0
        other = types[neighbour]
        matches = sum(1 for a, b in zip(row_types, other) if a == b)
        return matches / len(row_types) if row_types else 0.0

    @staticmethod
    def _empty_neighbor_ratio(empty_line, i, direction):
        empties = 0
        for step in range(1, _NEIGHBOR_WINDOW + 1):
            j = i + direction * step
            if j < 0 or j >= len(empty_line) or empty_line[j]:
                empties += 1
        return empties / _NEIGHBOR_WINDOW

    @staticmethod
    def _cell_length_difference(row, rows, neighbour):
        if neighbour is None:
            return 1.0
        lengths_here = [float(len(v.strip())) for v in row if v.strip()]
        lengths_there = [
            float(len(v.strip())) for v in rows[neighbour] if v.strip()
        ]
        hist_here = histogram(lengths_here, _LENGTH_BINS, *_LENGTH_RANGE)
        hist_there = histogram(lengths_there, _LENGTH_BINS, *_LENGTH_RANGE)
        return bhattacharyya_distance(hist_here, hist_there)

    @staticmethod
    def _global_features(empty_line, n_rows, n_cols):
        empty_ratio = sum(empty_line) / n_rows if n_rows else 0.0
        width = n_cols / (n_cols + 25.0)
        length = n_rows / (n_rows + 100.0)
        blocks = 0
        previous = False
        for is_empty in empty_line:
            if is_empty and not previous:
                blocks += 1
            previous = is_empty
        block_count = blocks / (blocks + 5.0)
        return np.array([empty_ratio, width, length, block_count])


class LegacyCellFeatureExtractor:
    """The pre-profile per-cell extraction loop, ported verbatim."""

    def __init__(self, detector=None):
        self.detector = detector or DerivedDetector()

    def extract(self, table: Table, line_probabilities=None):
        n_rows, n_cols = table.shape
        if line_probabilities is None:
            line_probabilities = np.full(
                (n_rows, len(CONTENT_CLASSES)), 1.0 / len(CONTENT_CLASSES)
            )
        rows = list(table.rows())
        # reshape keeps degenerate (0, n) / (n, 0) tables two-dimensional.
        types = np.array(
            [[int(infer_data_type(v)) for v in row] for row in rows],
            dtype=np.float64,
        ).reshape(n_rows, n_cols)
        lengths = np.array(
            [[float(len(v.strip())) for v in row] for row in rows],
            dtype=np.float64,
        ).reshape(n_rows, n_cols)
        max_length = lengths.max() if lengths.size else 1.0
        if max_length <= 0:
            max_length = 1.0
        norm_lengths = lengths / max_length

        empty = types == float(DataType.EMPTY)
        empty_row = empty.all(axis=1)
        empty_col = empty.all(axis=0)
        # Degenerate zero-row/zero-col tables make these means warn
        # (NaN result); the loop below never reads those entries.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            row_empty_ratio = empty.mean(axis=1)
            col_empty_ratio = empty.mean(axis=0)

        keyword = np.zeros((n_rows, n_cols), dtype=bool)
        for i, row in enumerate(rows):
            for j, value in enumerate(row):
                if value.strip() and legacy_contains_aggregation_keyword(value):
                    keyword[i, j] = True
        row_keyword = keyword.any(axis=1)
        col_keyword = keyword.any(axis=0)

        total = n_rows * n_cols
        blocks = {
            position: size / total
            for position, size in legacy_block_sizes(table).items()
        }
        derived = legacy_detect(self.detector, table)

        positions: list[tuple[int, int]] = []
        feature_rows: list[np.ndarray] = []
        for cell in table.non_empty_cells():
            i, j = cell.row, cell.col
            positions.append((i, j))
            content = [
                norm_lengths[i, j],
                types[i, j],
                1.0 if keyword[i, j] else 0.0,
                1.0 if row_keyword[i] else 0.0,
                1.0 if col_keyword[j] else 0.0,
                i / (n_rows - 1) if n_rows > 1 else 0.0,
                j / (n_cols - 1) if n_cols > 1 else 0.0,
            ]
            content.extend(float(p) for p in line_probabilities[i])
            contextual = [
                1.0 if (i == 0 or empty_row[i - 1]) else 0.0,
                1.0 if (i == n_rows - 1 or empty_row[i + 1]) else 0.0,
                1.0 if (j == 0 or empty_col[j - 1]) else 0.0,
                1.0 if (j == n_cols - 1 or empty_col[j + 1]) else 0.0,
                float(row_empty_ratio[i]),
                float(col_empty_ratio[j]),
                blocks.get((i, j), 0.0),
            ]
            neighbor_lengths = []
            neighbor_types = []
            for di, dj in _NEIGHBOR_OFFSETS:
                ni, nj = i + di, j + dj
                if 0 <= ni < n_rows and 0 <= nj < n_cols:
                    neighbor_lengths.append(float(norm_lengths[ni, nj]))
                    neighbor_types.append(float(types[ni, nj]))
                else:
                    neighbor_lengths.append(float(MISSING_NEIGHBOR))
                    neighbor_types.append(float(MISSING_NEIGHBOR))
            computational = [1.0 if (i, j) in derived else 0.0]
            feature_rows.append(
                np.array(
                    content + contextual + neighbor_lengths
                    + neighbor_types + computational
                )
            )
        if feature_rows:
            return positions, np.vstack(feature_rows)
        return positions, np.zeros((0, len(CELL_FEATURE_NAMES)))


def legacy_shifted(
    grid: np.ndarray, rr: np.ndarray, cc: np.ndarray, di: int, dj: int
) -> np.ndarray:
    """Values of ``grid`` at ``(rr + di, cc + dj)`` with the paper's
    ``-1`` default for neighbours beyond the table boundary."""
    padded = np.full(
        (grid.shape[0] + 2, grid.shape[1] + 2), float(MISSING_NEIGHBOR)
    )
    padded[1:-1, 1:-1] = grid
    return padded[rr + 1 + di, cc + 1 + dj]


def legacy_padded_cell_features(
    table: Table,
    line_probabilities: np.ndarray | None = None,
    detector: DerivedDetector | None = None,
) -> tuple[list[tuple[int, int]], np.ndarray]:
    """The columnar ``CellFeatureExtractor.extract`` before cells were
    addressed by flat index, verbatim: ``(row, col)`` tuples for every
    cell and one ``-1``-padded grid per neighbour offset and source."""
    detector = detector or DerivedDetector()
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
    rr, cc = np.nonzero(profile.non_empty)
    positions = list(zip(rr.tolist(), cc.tolist()))
    if not positions:
        return positions, np.zeros((0, len(CELL_FEATURE_NAMES)))

    types = profile.dtype_grid.astype(np.float64)
    lengths = profile.value_lengths.astype(np.float64)
    max_length = lengths.max() if lengths.size else 1.0
    if max_length <= 0:
        max_length = 1.0
    norm_lengths = lengths / max_length

    probabilities = np.asarray(line_probabilities, dtype=np.float64)
    derived_mask = profile.derived_mask(detector)

    features = np.empty((len(positions), len(CELL_FEATURE_NAMES)))
    # Content features.
    features[:, 0] = norm_lengths[rr, cc]
    features[:, 1] = types[rr, cc]
    features[:, 2] = profile.keyword_mask[rr, cc]
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
        profile.block_size_grid[rr, cc] / (n_rows * n_cols)
    )

    for offset, (di, dj) in enumerate(_NEIGHBOR_OFFSETS):
        features[:, base + 7 + offset] = legacy_shifted(
            norm_lengths, rr, cc, di, dj
        )
        features[:, base + 15 + offset] = legacy_shifted(
            types, rr, cc, di, dj
        )

    # Computational feature.
    features[:, base + 23] = derived_mask[rr, cc]
    return positions, features


# ----------------------------------------------------------------------
# Tables under test
# ----------------------------------------------------------------------

EDGE_TABLES: dict[str, Table] = {
    "empty": Table([]),
    "zero_width": Table([[], []]),
    "single_cell": Table([["42"]]),
    "single_empty_cell": Table([[" "]]),
    "all_empty": Table([["", "  "], ["", ""]]),
    "one_row": Table([["a", "", "3.5", "Total", "2019-01-02"]]),
    "one_col": Table([["x"], [""], ["1"], [""], ["sum"]]),
    "checkerboard": Table(
        [["x" if (i + j) % 2 == 0 else "" for j in range(7)]
         for i in range(6)]
    ),
    "u_shape": Table(
        [
            ["a", "", "b"],
            ["c", "", "d"],
            ["e", "f", "g"],
        ]
    ),
    "spiral": Table(
        [
            ["1", "1", "1", "1"],
            ["", "", "", "1"],
            ["1", "1", "", "1"],
            ["1", "", "", "1"],
            ["1", "1", "1", "1"],
        ]
    ),
    "totals": Table(
        [
            ["Region", "Q1", "Q2", ""],
            ["north", "10", "20", ""],
            ["south", "30", "40", ""],
            ["Total", "40", "60", ""],
            ["", "", "", ""],
            ["note: units in k$", "", "", ""],
        ]
    ),
    "wide_types": Table(
        [
            ["1,234", "-5.5", "1e3", "(200)", "45%", "$9"],
            ["2019-01-02", "3 Mar 2020", "text", "", "0", "100.0"],
        ]
    ),
    # Values whose words or keywords differ between ASCII and Unicode
    # matching, or that hold NUL, a lone surrogate or a line break.
    "unicode_traps": Table(
        [
            ["ſum", "ſsum", "medİan"],
            ["medıan", "TOTAL2", "sum_x"],
            ["Grand Total:", "a\x00total", "x\ud800 mean"],
            ["avg\nx", "  ", "１２３"],
            ["٣"],
        ]
    ),
}


def deck_table(rows: int) -> Table:
    """A benchmark-deck-shaped file: title and notes around one table
    of ``rows`` data lines, six numeric columns and a grand total."""
    spec = FileSpec(
        domain="science",
        metadata_lines=2,
        notes_lines=2,
        tables=[
            TableSpec(
                n_numeric_cols=6,
                n_groups=0,
                rows_per_group=rows,
                grand_total=True,
            )
        ],
    )
    rng = np.random.default_rng([0, rows])
    return generate_file(spec, rng, f"r{rows}").table


def corpus_tables(name: str, scale: float = 0.02) -> list[Table]:
    return [file.table for file in make_corpus(name, seed=0, scale=scale).files]


ALL_TABLES: list[tuple[str, Table]] = list(EDGE_TABLES.items()) + [
    (f"{name}-{index}", table)
    for name in ("govuk", "saus", "deex", "mendeley")
    for index, table in enumerate(corpus_tables(name))
]


#: The profile-grid tests also run on an 800-row deck file, whose
#: vocabulary runs to thousands of distinct values.  (The exhaustive
#: Algorithm 2 reference would take seconds on it.)
PROFILE_TABLES: list[tuple[str, Table]] = ALL_TABLES + [
    ("deck-800", deck_table(800))
]


def fresh(table: Table) -> Table:
    """A copy of ``table`` with no memoized profile, so each reference
    comparison starts cold."""
    return Table([list(row) for row in table.rows()])


# ----------------------------------------------------------------------
# Parity tests
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "table", [t for _, t in ALL_TABLES], ids=[n for n, _ in ALL_TABLES]
)
class TestParity:
    def test_line_features_byte_identical(self, table):
        legacy = LegacyLineFeatureExtractor().extract(table)
        new = LineFeatureExtractor().extract(fresh(table))
        assert legacy.shape == new.shape
        assert legacy.tobytes() == new.tobytes()

    def test_line_features_with_globals_byte_identical(self, table):
        legacy = LegacyLineFeatureExtractor(
            include_global_features=True
        ).extract(table)
        new = LineFeatureExtractor(include_global_features=True).extract(
            fresh(table)
        )
        assert legacy.tobytes() == new.tobytes()

    def test_cell_features_byte_identical(self, table):
        legacy_positions, legacy = LegacyCellFeatureExtractor().extract(table)
        positions, new = CellFeatureExtractor().extract(fresh(table))
        assert positions == legacy_positions
        assert legacy.shape == new.shape
        assert legacy.tobytes() == new.tobytes()

    def test_cell_features_with_probabilities(self, table):
        rng = np.random.default_rng(7)
        probabilities = rng.random((table.n_rows, len(CONTENT_CLASSES)))
        legacy_positions, legacy = LegacyCellFeatureExtractor().extract(
            table, probabilities
        )
        positions, new = CellFeatureExtractor().extract(
            fresh(table), probabilities
        )
        assert positions == legacy_positions
        assert legacy.tobytes() == new.tobytes()

    def test_numeric_grid_byte_identical(self, table):
        legacy = legacy_numeric_grid(table)
        new = numeric_grid(fresh(table))
        assert legacy.tobytes() == new.tobytes()

    def test_block_sizes_identical(self, table):
        assert block_sizes(fresh(table)) == legacy_block_sizes(table)

    def test_normalized_block_sizes_identical(self, table):
        total = table.n_rows * table.n_cols
        expected = (
            {
                position: size / total
                for position, size in legacy_block_sizes(table).items()
            }
            if total
            else {}
        )
        assert normalized_block_sizes(fresh(table)) == expected

    def test_derived_detection_identical(self, table):
        detector = DerivedDetector()
        legacy = {(int(i), int(j)) for i, j in legacy_detect(detector, table)}
        new = {
            (int(i), int(j)) for i, j in detector.detect(fresh(table))
        }
        assert new == legacy

    def test_derived_detection_exhaustive_identical(self, table):
        detector = DerivedDetector(anchor_mode="exhaustive")
        legacy = {(int(i), int(j)) for i, j in legacy_detect(detector, table)}
        new = {
            (int(i), int(j)) for i, j in detector.detect(fresh(table))
        }
        assert new == legacy

    def test_derived_detection_every_function_identical(self, table):
        detector = DerivedDetector(functions=SUPPORTED_FUNCTIONS, relative=True)
        legacy = {(int(i), int(j)) for i, j in legacy_detect(detector, table)}
        assert detector.detect(fresh(table)) == legacy


def _npy(array: np.ndarray) -> bytes:
    buffer = io.BytesIO()
    np.save(buffer, array)
    return buffer.getvalue()


#: The flat-index extractor's inputs: the parity tables, the 800-row
#: deck file and the cropped tables of the result-array edge inputs.
MATRIX_TABLES: list[tuple[str, Table]] = PROFILE_TABLES + [
    (f"edge-bytes-{name}", crop_table(ingest_bytes(data).table))
    for name, data in sorted(EDGE_BYTES.items())
]


@pytest.mark.parametrize(
    "table", [t for _, t in MATRIX_TABLES], ids=[n for n, _ in MATRIX_TABLES]
)
def test_flat_index_matrix_matches_the_padded_grid_extractor(table):
    """``matrix`` and ``extract`` equal the extractor that built one
    padded grid per neighbour offset, down to ``np.save`` bytes, with
    and without line probabilities."""
    rng = np.random.default_rng(3)
    for probabilities in (
        None, rng.random((table.n_rows, len(CONTENT_CLASSES)))
    ):
        positions, want = legacy_padded_cell_features(
            fresh(table), probabilities
        )
        extractor = CellFeatureExtractor()
        got = extractor.matrix(fresh(table), probabilities)
        assert _npy(got) == _npy(want)
        got_positions, got_features = extractor.extract(
            fresh(table), probabilities
        )
        assert got_positions == positions
        assert _npy(got_features) == _npy(want)


# ----------------------------------------------------------------------
# Algorithm 2's one-pass scan against the step-by-step walk
# ----------------------------------------------------------------------


def _random_detector(rng: np.random.Generator) -> DerivedDetector:
    functions = tuple(
        name for name in SUPPORTED_FUNCTIONS if rng.random() < 0.4
    )
    return DerivedDetector(
        delta=float(rng.choice([0.01, 0.1, 0.5, 2.0])),
        coverage=float(rng.choice([0.25, 0.5, 0.75, 1.0])),
        functions=functions or (str(rng.choice(SUPPORTED_FUNCTIONS)),),
        relative=bool(rng.integers(2)),
    )


def _random_walk(
    rng: np.random.Generator, delta: float
) -> tuple[np.ndarray, np.ndarray]:
    """``(candidates, contributions)`` for one walk: zero-heavy rows of
    small values, and candidates that mostly sit on (or exactly
    ``delta`` away from) a true running aggregate, so that matches,
    near misses and all-zero sums all occur."""
    n_steps = int(rng.integers(0, 7))
    n_candidates = int(rng.integers(1, 6))
    contributions = rng.integers(-2, 6, size=(n_steps, n_candidates)) * (
        float(rng.choice([1.0, 0.1, 1e3]))
    )
    contributions[rng.random(contributions.shape) < 0.5] = 0.0
    if n_steps == 0 or rng.random() < 0.15:
        candidates = rng.integers(-1, 3, size=n_candidates) * 1.0
    else:
        window = contributions[: int(rng.integers(1, n_steps + 1))]
        aggregates = {
            "sum": window.sum(axis=0),
            "mean": window.sum(axis=0) / len(window),
            "min": window.min(axis=0),
            "max": window.max(axis=0),
            "median": np.median(window, axis=0),
        }
        candidates = aggregates[str(rng.choice(SUPPORTED_FUNCTIONS))]
        offsets = rng.choice([0.0, delta, -delta, 0.5, 7.0], size=n_candidates)
        candidates = candidates + offsets * (rng.random(n_candidates) < 0.4)
    return candidates.astype(np.float64), contributions.astype(np.float64)


def test_scan_matches_step_walk_on_random_walks():
    rng = np.random.default_rng(2021)
    outcomes = []
    for trial in range(4000):
        detector = _random_detector(rng)
        candidates, contributions = _random_walk(rng, detector.delta)
        expected = legacy_scan(detector, candidates, contributions)
        assert detector._scan(candidates, contributions) is expected, (
            trial, detector.cache_key, candidates, contributions,
        )
        outcomes.append(expected)
    # Both outcomes are common, so the comparison is not vacuous.
    assert 0.25 < np.mean(outcomes) < 0.75


# ----------------------------------------------------------------------
# Profile unit behaviour
# ----------------------------------------------------------------------


class TestProfileGrids:
    @pytest.mark.parametrize(
        "table",
        [t for _, t in PROFILE_TABLES],
        ids=[n for n, _ in PROFILE_TABLES],
    )
    def test_dtype_grid_matches_per_cell_inference(self, table):
        profile = table_profile(fresh(table))
        for i, row in enumerate(table.rows()):
            for j, value in enumerate(row):
                assert profile.dtype_grid[i, j] == int(
                    infer_data_type(value)
                ), (i, j, value)

    @pytest.mark.parametrize(
        "table",
        [t for _, t in PROFILE_TABLES],
        ids=[n for n, _ in PROFILE_TABLES],
    )
    def test_value_lengths_and_words(self, table):
        profile = table_profile(fresh(table))
        for i, row in enumerate(table.rows()):
            for j, value in enumerate(row):
                assert profile.value_lengths[i, j] == float(
                    len(value.strip())
                )
                assert profile.word_counts[i, j] == count_words(value)
                assert profile.keyword_mask[i, j] == (
                    legacy_contains_aggregation_keyword(value)
                )

    def test_a_non_number_is_the_nan_of_np_nan(self):
        grid = table_profile(Table([["x", "1", ""], ["2019-01-02", "", "y"]]))
        numbers = grid.numeric_grid
        assert numbers[0, 1] == 1.0
        nan = np.array(np.nan).tobytes()
        for i, j in ((0, 0), (0, 2), (1, 0), (1, 1), (1, 2)):
            assert numbers[i, j].tobytes() == nan

    def test_grids_leave_the_memos_as_the_per_value_loops_did(self):
        """``dtype_grid`` then ``numeric_grid`` leave the memos as the
        per-value loops they replaced did: same hits, misses and
        sizes."""
        table = deck_table(200)

        def memo_state():
            return infer_data_type.cache_info(), parse_number.cache_info()

        infer_data_type.cache_clear()
        parse_number.cache_clear()
        profile = table_profile(fresh(table))
        codes, numbers = profile.dtype_grid, profile.numeric_grid
        got = memo_state()
        infer_data_type.cache_clear()
        parse_number.cache_clear()
        unique = table_profile(fresh(table)).unique_values
        want_codes = np.fromiter(
            (int(infer_data_type(value)) for value in unique),
            dtype=np.int8,
            count=len(unique),
        )
        parsed = [parse_number(value) for value in unique]
        want_numbers = np.array(
            [np.nan if value is None else value for value in parsed],
            dtype=np.float64,
        )
        assert got == memo_state()
        inverse = table_profile(fresh(table))._dispatch[1]
        assert codes.tobytes() == want_codes[inverse].tobytes()
        assert numbers.tobytes() == want_numbers[inverse].tobytes()

    def test_block_labels_partition_matches_dfs_components(self):
        for name, table in PROFILE_TABLES:
            profile = table_profile(fresh(table))
            labels = profile.block_labels
            # Two cells share a label exactly when the DFS puts them in
            # one component, and every empty cell is labeled -1.
            by_label: dict[int, set[tuple[int, int]]] = {}
            for i, j in zip(*np.nonzero(labels >= 0)):
                by_label.setdefault(int(labels[i, j]), set()).add(
                    (int(i), int(j))
                )
            assert sorted(map(sorted, by_label.values())) == sorted(
                map(sorted, legacy_components(table))
            ), name
            assert (labels[~profile.non_empty] == -1).all(), name

    def test_empty_cells_labeled_minus_one(self):
        profile = table_profile(Table([["a", ""], ["", "b"]]))
        assert profile.block_labels[0, 1] == -1
        assert profile.block_size_grid[0, 1] == 0


#: Characters of the trap table plus keyword fragments, so that drawn
#: cells hold whole keywords next to the characters that decide them.
_TRAP_ALPHABET: tuple[str, ...] = (
    "ſ", "İ", "ı", "\x00", "\ud800", "\n", " ", "_", ":", "2", "１", "٣",
    "a", "s", "x", "T", "um", "an", "med", "sum", "Total", "TOTAL",
    "avg", "all", "mean", "median", "AVERAGE",
)

_trap_cells = st.lists(st.sampled_from(_TRAP_ALPHABET), max_size=5).map(
    "".join
)


@given(
    rows=st.lists(
        st.lists(_trap_cells, min_size=1, max_size=4), min_size=1, max_size=6
    )
)
@settings(max_examples=150, deadline=None)
def test_vocabulary_pass_matches_per_value_oracles(rows):
    table = Table(rows)
    profile = table_profile(table)
    flat = np.empty(table.n_rows * table.n_cols, dtype=object)
    flat[:] = [value.strip() for row in table.rows() for value in row]
    unique, inverse = np.unique(flat, return_inverse=True)
    assert profile.unique_values.tolist() == unique.tolist()
    assert profile._dispatch[1].tolist() == inverse.tolist()
    for i, row in enumerate(table.rows()):
        for j, value in enumerate(row):
            expected = legacy_contains_aggregation_keyword(value)
            assert contains_aggregation_keyword(value) is expected, value
            assert profile.keyword_mask[i, j] == expected, value
            assert profile.word_counts[i, j] == count_words(value), value
            assert profile.value_lengths[i, j] == len(value.strip()), value


class TestProfileMemoization:
    def test_profile_memoized_on_table(self):
        table = Table([["a", "1"]])
        assert table_profile(table) is table_profile(table)

    def test_profiles_are_per_table(self):
        a, b = Table([["a"]]), Table([["a"]])
        assert table_profile(a) is not table_profile(b)

    def test_derived_memo_shared_between_equal_configs(self):
        table = Table(
            [["Total", "3", "4"], ["x", "1", "2"], ["y", "2", "2"]]
        )
        profile = table_profile(table)
        first = DerivedDetector()
        second = DerivedDetector()
        assert first.cache_key == second.cache_key
        assert profile.derived_mask(first) is profile.derived_mask(second)

    def test_derived_memo_distinct_configs(self):
        table = Table([["Total", "3"], ["x", "1"], ["y", "2"]])
        profile = table_profile(table)
        default = profile.derived_mask(DerivedDetector())
        relaxed = profile.derived_mask(DerivedDetector(delta=5.0))
        assert default is not relaxed

    def test_derived_mask_is_read_only(self):
        table = EDGE_TABLES["totals"]
        mask = table_profile(fresh(table)).derived_mask(DerivedDetector())
        assert mask.dtype == bool and mask.shape == table.shape
        with pytest.raises(ValueError):
            mask[0, 0] = True

    def test_materialize_returns_self(self):
        table = Table([["a", "1"]])
        profile = table_profile(table)
        assert profile.materialize() is profile

    def test_unique_values_sorted_distinct(self):
        table = Table([["b", "a", " a "], ["b", "", "c"]])
        profile = table_profile(table)
        assert list(profile.unique_values) == ["", "a", "b", "c"]


class TestDatatypeMemoization:
    def test_infer_data_type_cached(self):
        infer_data_type.cache_clear()
        assert infer_data_type("123xyz") is DataType.STRING
        before = infer_data_type.cache_info().hits
        assert infer_data_type("123xyz") is DataType.STRING
        assert infer_data_type.cache_info().hits == before + 1

    def test_parse_number_cached(self):
        parse_number.cache_clear()
        assert parse_number("1,234") == 1234.0
        before = parse_number.cache_info().hits
        assert parse_number("1,234") == 1234.0
        assert parse_number.cache_info().hits == before + 1

    def test_cache_is_bounded(self):
        assert infer_data_type.cache_parameters()["maxsize"] == 65536
        assert parse_number.cache_parameters()["maxsize"] == 65536
