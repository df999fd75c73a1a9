"""Tests for Algorithm 2 — derived cell detection."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.derived import DerivedDetector, numeric_grid
from repro.errors import InvalidParameterError
from repro.types import Table


def _sum_table():
    """A table whose Total row really sums the two data rows."""
    return Table(
        [
            ["State", "A", "B"],
            ["Alabama", "10", "20"],
            ["Alaska", "5", "5"],
            ["Total", "15", "25"],
        ]
    )


class TestNumericGrid:
    def test_grid_values_and_nans(self):
        grid = numeric_grid(_sum_table())
        assert np.isnan(grid[0, 0])
        assert grid[1, 1] == 10.0
        assert grid[3, 2] == 25.0

    def test_thousands_separators_parsed(self):
        grid = numeric_grid(Table([["1,234"]]))
        assert grid[0, 0] == 1234.0


class TestSumDetection:
    def test_detects_upward_sum_row(self):
        detected = DerivedDetector().detect(_sum_table())
        assert (3, 1) in detected
        assert (3, 2) in detected
        # Data cells are not marked.
        assert (1, 1) not in detected

    def test_detected_positions_are_python_ints(self):
        detected = DerivedDetector().detect(_sum_table())
        assert detected == {(3, 1), (3, 2)}
        assert {type(index) for cell in detected for index in cell} == {int}

    def test_detects_downward_sum_row(self):
        table = Table(
            [
                ["Total", "15", "25"],
                ["Alabama", "10", "20"],
                ["Alaska", "5", "5"],
            ]
        )
        detected = DerivedDetector().detect(table)
        assert (0, 1) in detected

    def test_detects_column_sums(self):
        table = Table(
            [
                ["", "A", "B", "Total"],
                ["x", "1", "2", "3"],
                ["y", "4", "5", "9"],
            ]
        )
        detected = DerivedDetector().detect(table)
        assert (1, 3) in detected
        assert (2, 3) in detected

    def test_unanchored_totals_are_missed(self):
        """Without a keyword, no anchor exists — the paper's dominant
        error mode is preserved by design."""
        table = Table(
            [
                ["Alabama", "10", "20"],
                ["Alaska", "5", "5"],
                ["Combined", "15", "25"],
            ]
        )
        assert DerivedDetector().detect(table) == set()

    def test_exhaustive_mode_finds_unanchored_totals(self):
        table = Table(
            [
                ["Alabama", "10", "20"],
                ["Alaska", "5", "5"],
                ["Combined", "15", "25"],
            ]
        )
        detected = DerivedDetector(anchor_mode="exhaustive").detect(table)
        assert (2, 1) in detected

    def test_non_matching_total_not_detected(self):
        table = Table(
            [
                ["Alabama", "10", "20"],
                ["Alaska", "5", "5"],
                ["Total", "99", "77"],
            ]
        )
        assert DerivedDetector().detect(table) == set()

    def test_zero_sum_regions_never_match(self):
        table = Table(
            [
                ["Alabama", "0", "0"],
                ["Total", "0", "0"],
            ]
        )
        assert DerivedDetector().detect(table) == set()


class TestMeanDetection:
    def test_detects_mean_row(self):
        table = Table(
            [
                ["x", "10", "30"],
                ["y", "20", "10"],
                ["Average", "15", "20"],
            ]
        )
        detected = DerivedDetector().detect(table)
        assert (2, 1) in detected

    def test_mean_disabled(self):
        table = Table(
            [
                ["x", "10", "30"],
                ["y", "20", "10"],
                ["Average", "15", "20"],
            ]
        )
        detector = DerivedDetector(functions=("sum",))
        assert detector.detect(table) == set()


class TestExtendedFunctions:
    """The paper's future-work extension: min/max/median detection."""

    def test_detects_max_row(self):
        table = Table(
            [
                ["x", "10", "30"],
                ["y", "25", "12"],
                ["Total", "25", "30"],
            ]
        )
        detector = DerivedDetector(functions=("max",))
        assert (2, 1) in detector.detect(table)

    def test_detects_min_row(self):
        table = Table(
            [
                ["x", "10", "30"],
                ["y", "25", "12"],
                ["Total", "10", "12"],
            ]
        )
        detector = DerivedDetector(functions=("min",))
        assert (2, 1) in detector.detect(table)

    def test_detects_median_row(self):
        table = Table(
            [
                ["a", "10"],
                ["b", "20"],
                ["c", "90"],
                ["Median", "20"],
            ]
        )
        detector = DerivedDetector(functions=("median",))
        assert (3, 1) in detector.detect(table)

    def test_order_statistics_require_two_rows(self):
        """A 'max' equal to the single adjacent row must not match —
        that would fire on every repeated value."""
        table = Table(
            [
                ["a", "10"],
                ["Total", "10"],
            ]
        )
        detector = DerivedDetector(functions=("max",))
        assert detector.detect(table) == set()

    def test_defaults_exclude_order_statistics(self):
        table = Table(
            [
                ["x", "10", "30"],
                ["y", "25", "12"],
                ["Total", "25", "30"],
            ]
        )
        assert DerivedDetector().detect(table) == set()


class TestParameters:
    def test_delta_tolerance(self):
        table = Table(
            [
                ["x", "10.0"],
                ["y", "20.0"],
                ["Total", "30.05"],
            ]
        )
        assert DerivedDetector(delta=0.1).detect(table)
        assert not DerivedDetector(delta=0.01).detect(table)

    def test_coverage_threshold(self):
        # Only one of two candidates matches the sum.
        table = Table(
            [
                ["x", "10", "1"],
                ["y", "20", "2"],
                ["Total", "30", "999"],
            ]
        )
        assert DerivedDetector(coverage=0.4).detect(table)
        assert not DerivedDetector(coverage=0.6).detect(table)

    def test_relative_delta(self):
        table = Table(
            [
                ["x", "1000"],
                ["y", "2000"],
                ["Total", "3001"],
            ]
        )
        assert not DerivedDetector(delta=0.1, relative=False).detect(table)
        assert DerivedDetector(delta=0.1, relative=True).detect(table)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            DerivedDetector(delta=0.0)
        with pytest.raises(InvalidParameterError):
            DerivedDetector(delta=float("nan"))
        with pytest.raises(InvalidParameterError):
            DerivedDetector(delta=float("inf"))
        with pytest.raises(InvalidParameterError):
            DerivedDetector(coverage=0.0)
        with pytest.raises(InvalidParameterError):
            DerivedDetector(coverage=1.5)
        with pytest.raises(InvalidParameterError):
            DerivedDetector(functions=("product",))
        with pytest.raises(InvalidParameterError):
            DerivedDetector(anchor_mode="nope")


class TestRobustness:
    def test_keyword_without_numbers_is_harmless(self):
        table = Table([["Total", "notes only"], ["x", "y"]])
        assert DerivedDetector().detect(table) == set()

    def test_empty_table(self):
        assert DerivedDetector().detect(Table([["", ""]])) == set()

    def test_non_consecutive_aggregation_missed(self):
        """A grand total over data rows *and* interleaved subtotals is
        not a consecutive-prefix sum, so Algorithm 2 misses it —
        reproducing the paper's 'non-consecutive lines' error case."""
        table = Table(
            [
                ["a", "10"],
                ["Sub", "10"],  # subtotal of one row (detected)
                ["b", "20"],
                ["Sub", "20"],
                ["Total", "30"],  # sums a+b, skipping the subtotals
            ]
        )
        detected = DerivedDetector().detect(table)
        assert (4, 1) not in detected

    def test_intermediate_prefix_match_found(self):
        # Sum over the two nearest rows matches even though farther
        # rows exist above them.
        table = Table(
            [
                ["junk", "999"],
                ["a", "10"],
                ["b", "20"],
                ["Total", "30"],
            ]
        )
        assert (3, 1) in DerivedDetector().detect(table)


class TestFunctionSets:
    def test_default_functions_are_the_papers(self):
        from repro.core.derived import DEFAULT_FUNCTIONS, SUPPORTED_FUNCTIONS

        assert DEFAULT_FUNCTIONS == ("sum", "mean")
        assert set(DEFAULT_FUNCTIONS) <= set(SUPPORTED_FUNCTIONS)
        assert {"min", "max", "median"} <= set(SUPPORTED_FUNCTIONS)
