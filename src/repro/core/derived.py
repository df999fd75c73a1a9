"""Algorithm 2 — derived cell detection.

A *derived* cell aggregates other numeric cells.  Following the
paper's three observations — (i) aggregation happens along the cell's
own row or column, (ii) aggregated values are close by, (iii) sum and
mean dominate — the detector:

1. finds *anchoring cells* containing an aggregation keyword;
2. treats the numeric cells sharing a row (or column) with an anchor
   as derived-cell *candidates*;
3. walks away from the candidate row (up then down; for column
   candidates left then right), accumulating a sum vector over the
   candidate columns (rows), nearest rows first;
4. after each accumulation step compares the candidates with the sum
   (and the running mean), element-wise within an aggregation delta
   ``d``; if the fraction of matching candidates exceeds the coverage
   threshold ``c``, all candidates are marked derived.

Steps 3–4 are evaluated for a whole walk at once: one cumulative sum
holds every running sum, and one element-wise test per aggregation
function marks the steps that match.  ``tests/test_profile_parity.py``
keeps the step-by-step walk as the reference the scan must equal.

The paper sets ``d = 0.1`` and ``c = 0.5`` and reports insensitivity
to both; the ablation benchmark sweeps them.

An ``exhaustive`` anchor mode (every row/column acts as its own
anchor) is provided for the ablation of the keyword-anchoring design
decision — the paper's error analysis attributes most derived-as-data
mistakes to unanchored derived lines.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.profile import TableProfile, table_profile
from repro.errors import InvalidParameterError
from repro.types import Table

#: Aggregation functions the detector recognizes.  The paper ships sum
#: and mean ("the two dominant aggregation functions"); min, max and
#: median implement its stated future-work extension ("recognizing
#: more aggregation functions").
SUPPORTED_FUNCTIONS: tuple[str, ...] = ("sum", "mean", "min", "max", "median")

#: The paper's default configuration.
DEFAULT_FUNCTIONS: tuple[str, ...] = ("sum", "mean")


def numeric_grid(table: Table) -> np.ndarray:
    """``(n_rows, n_cols)`` float array; non-numeric cells are NaN.

    A copy of the table profile's columnar
    :attr:`~repro.core.profile.TableProfile.numeric_grid` (every cell
    parsed once per file via the unique-value dispatch); the copy
    keeps the memoized array safe from caller mutation.
    """
    return table_profile(table).numeric_grid.copy()


class DerivedDetector:
    """Detects derived (aggregating) cells in a table.

    Parameters
    ----------
    delta:
        Element-wise slack when comparing a candidate with an
        aggregate.  Interpreted as an absolute tolerance, optionally
        scaled by the candidate magnitude with ``relative=True``.
    coverage:
        Minimum fraction of candidates that must match for the whole
        candidate set to be marked derived.
    functions:
        Subset of :data:`SUPPORTED_FUNCTIONS` to test.
    anchor_mode:
        ``"keyword"`` (the paper's algorithm) anchors on aggregation
        keywords; ``"exhaustive"`` treats every row and column with
        numeric cells as anchored — slower, used for ablation.
    relative:
        Whether ``delta`` scales with the candidate's magnitude.
    """

    def __init__(
        self,
        delta: float = 0.1,
        coverage: float = 0.5,
        functions: tuple[str, ...] = DEFAULT_FUNCTIONS,
        anchor_mode: str = "keyword",
        relative: bool = False,
    ):
        if not (math.isfinite(delta) and delta > 0):
            raise InvalidParameterError(
                f"delta must be finite and positive, got {delta!r}"
            )
        if not 0.0 < coverage <= 1.0:
            raise InvalidParameterError("coverage must be in (0, 1]")
        unknown = set(functions) - set(SUPPORTED_FUNCTIONS)
        if unknown:
            raise InvalidParameterError(f"unknown functions: {sorted(unknown)}")
        if anchor_mode not in ("keyword", "exhaustive"):
            raise InvalidParameterError(
                f"anchor_mode must be 'keyword' or 'exhaustive', "
                f"got {anchor_mode!r}"
            )
        self.delta = delta
        self.coverage = coverage
        self.functions = tuple(functions)
        self.anchor_mode = anchor_mode
        self.relative = relative

    @property
    def cache_key(self) -> str:
        """Stable description of this configuration.  It keys the
        table profile's memo of detected cells and, through the line
        and cell extractors' ``cache_key``, the corpus engine's model
        fingerprint, so any parameter change must change it."""
        return (
            f"derived(delta={self.delta!r},coverage={self.coverage!r},"
            f"functions={','.join(self.functions)},"
            f"anchor={self.anchor_mode},relative={int(self.relative)})"
        )

    # ------------------------------------------------------------------
    def detect(self, table: Table) -> set[tuple[int, int]]:
        """All detected derived cell positions in ``table``, as
        ``(row, col)`` Python ints.

        Read off the table's memoized profile grid
        (:meth:`~repro.core.profile.TableProfile.derived_mask`), which
        the line and cell extractors index directly, so all of them
        share one detection pass.
        """
        rows, cols = np.nonzero(table_profile(table).derived_mask(self))
        return set(zip(rows.tolist(), cols.tolist()))

    def detect_profile(self, profile: TableProfile) -> np.ndarray:
        """The detection pass proper, over pre-computed columnar
        primitives: a boolean grid of the derived cells (called by
        :meth:`~repro.core.profile.TableProfile.derived_mask`)."""
        grid = profile.numeric_grid
        numeric = ~np.isnan(grid)
        anchors = self._anchoring_cells(profile, numeric)
        detected = np.zeros(profile.shape, dtype=bool)
        checked_rows: set[int] = set()
        checked_cols: set[int] = set()
        for row, col in anchors:
            if row not in checked_rows:
                checked_rows.add(row)
                if self._row_is_derived(grid, row):
                    detected[row] |= numeric[row]
            if col not in checked_cols:
                checked_cols.add(col)
                if self._column_is_derived(grid, col):
                    detected[:, col] |= numeric[:, col]
        return detected

    # ------------------------------------------------------------------
    def _anchoring_cells(
        self, profile: TableProfile, numeric: np.ndarray
    ) -> list[tuple[int, int]]:
        if self.anchor_mode == "keyword":
            # Row-major order of the keyword mask matches the original
            # non_empty_cells() scan (a keyword implies a non-empty
            # cell, and stripping never changes tokenization).
            return [
                (int(i), int(j))
                for i, j in np.argwhere(profile.keyword_mask)
            ]
        # Exhaustive mode: one pseudo-anchor per row and per column
        # that contains at least one numeric cell.
        anchors: list[tuple[int, int]] = []
        rows_with_numbers = np.nonzero(numeric.any(axis=1))[0]
        cols_with_numbers = np.nonzero(numeric.any(axis=0))[0]
        anchors.extend((int(i), 0) for i in rows_with_numbers)
        anchors.extend((0, int(j)) for j in cols_with_numbers)
        return anchors

    # ------------------------------------------------------------------
    def _scan(self, candidates: np.ndarray, contributions: np.ndarray) -> bool:
        """Whether any step of a walk away from the candidates matches.

        ``contributions`` is an ``(n_steps, n_candidates)`` array whose
        row ``i`` holds the numeric values (NaN as 0) at the candidate
        positions, ``i + 1`` steps away from the candidate line, nearest
        first — exactly the expansion order of Algorithm 2.  Row ``i``
        of each aggregate below is the one the walk compares after its
        ``i + 1``-th step.
        """
        n_steps = len(contributions)
        if n_steps == 0:
            return False
        if self.relative:
            tolerance = self.delta * np.maximum(1.0, np.abs(candidates))
        else:
            tolerance = self.delta

        def matching(aggregates: np.ndarray) -> np.ndarray:
            close = np.abs(candidates - aggregates) < tolerance
            return close.mean(axis=1) > self.coverage

        # ``add.accumulate`` adds row by row, so each running sum is
        # the one the walk accumulates, bit for bit (up to the sign of
        # a zero, which no test below can see).
        sums = np.cumsum(contributions, axis=0)
        steps = np.arange(1, n_steps + 1)
        matched = np.zeros(n_steps, dtype=bool)
        if "sum" in self.functions:
            matched |= matching(sums)
        # The mean and the order statistics (the future-work extension)
        # need a window of at least two rows: a single-row window would
        # trivially match any copy of the adjacent line.
        windowed = np.zeros(n_steps, dtype=bool)
        if "mean" in self.functions:
            windowed |= matching(sums / steps[:, None])
        if "min" in self.functions:
            windowed |= matching(np.minimum.accumulate(contributions))
        if "max" in self.functions:
            windowed |= matching(np.maximum.accumulate(contributions))
        if "median" in self.functions:
            windowed |= matching(
                np.array(
                    [np.median(contributions[:step], axis=0) for step in steps]
                )
            )
        matched |= windowed & (steps > 1)
        # Never mark candidates matching an all-zero aggregate — zero
        # sums arise trivially from empty regions.
        return bool((matched & sums.any(axis=1)).any())

    def _row_is_derived(self, grid: np.ndarray, row: int) -> bool:
        cols = np.nonzero(~np.isnan(grid[row]))[0]
        if len(cols) == 0:
            return False
        candidates = grid[row, cols]
        n_rows = grid.shape[0]
        # Upwards: rows row-1, row-2, ... 0 (nearest first).
        upward = np.nan_to_num(grid[:row, :][::-1][:, cols], nan=0.0)
        if self._scan(candidates, upward):
            return True
        # Downwards: rows row+1 ... n-1.
        downward = np.nan_to_num(grid[row + 1 : n_rows, :][:, cols], nan=0.0)
        return self._scan(candidates, downward)

    def _column_is_derived(self, grid: np.ndarray, col: int) -> bool:
        rows = np.nonzero(~np.isnan(grid[:, col]))[0]
        if len(rows) == 0:
            return False
        candidates = grid[rows, col]
        n_cols = grid.shape[1]
        # Leftwards: columns col-1 ... 0 (nearest first).
        leftward = np.nan_to_num(
            grid[:, :col][:, ::-1][rows, :].T, nan=0.0
        )
        if self._scan(candidates, leftward):
            return True
        # Rightwards: columns col+1 ... n-1.
        rightward = np.nan_to_num(
            grid[:, col + 1 : n_cols][rows, :].T, nan=0.0
        )
        return self._scan(candidates, rightward)
