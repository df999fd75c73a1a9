"""Cropping marginal empty lines and columns.

The paper's data preparation "cropped each file by removing the
marginal empty lines or columns", because leading/trailing empties are
trivial and would distort emptiness-sensitive features.  This module
implements that step for both bare tables and annotated files.
"""

from __future__ import annotations

from repro.types import AnnotatedFile, Table


def _crop_bounds(table: Table) -> tuple[int, int, int, int]:
    """``(row_start, row_stop, col_start, col_stop)`` of the content box.

    For a fully empty table the bounds collapse to an empty box
    ``(0, 0, 0, 0)``.
    """
    n_rows, n_cols = table.shape
    row_start = 0
    while row_start < n_rows and table.is_empty_row(row_start):
        row_start += 1
    if row_start == n_rows:
        return 0, 0, 0, 0
    row_stop = n_rows
    while row_stop > row_start and table.is_empty_row(row_stop - 1):
        row_stop -= 1
    col_start = 0
    while col_start < n_cols and table.is_empty_column(col_start):
        col_start += 1
    col_stop = n_cols
    while col_stop > col_start and table.is_empty_column(col_stop - 1):
        col_stop -= 1
    return row_start, row_stop, col_start, col_stop


def crop_table(table: Table) -> Table:
    """The table with marginal empty rows and columns removed.

    Interior empty rows and columns — meaningful visual separators —
    are preserved.  A table without margins is returned as it is
    (tables are immutable, so sharing it is safe); a fully empty input
    yields a 1x1 empty table so downstream shape assumptions hold.
    """
    bounds = _crop_bounds(table)
    row_start, row_stop, col_start, col_stop = bounds
    if row_start == row_stop or col_start == col_stop:
        return Table([[""]])
    if bounds == (0, table.n_rows, 0, table.n_cols):
        return table
    rows = [
        table.row(i)[col_start:col_stop] for i in range(row_start, row_stop)
    ]
    return Table(rows)


def crop_annotated_file(annotated: AnnotatedFile) -> AnnotatedFile:
    """Crop a file and its label grids consistently."""
    bounds = _crop_bounds(annotated.table)
    row_start, row_stop, col_start, col_stop = bounds
    if row_start == row_stop or col_start == col_stop:
        from repro.types import CellClass

        return AnnotatedFile(
            name=annotated.name,
            table=Table([[""]]),
            line_labels=[CellClass.EMPTY],
            cell_labels=[[CellClass.EMPTY]],
        )
    rows = [
        annotated.table.row(i)[col_start:col_stop]
        for i in range(row_start, row_stop)
    ]
    line_labels = annotated.line_labels[row_start:row_stop]
    cell_labels = [
        annotated.cell_labels[i][col_start:col_stop]
        for i in range(row_start, row_stop)
    ]
    return AnnotatedFile(
        name=annotated.name,
        table=Table(rows),
        line_labels=line_labels,
        cell_labels=cell_labels,
    )
