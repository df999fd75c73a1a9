"""Core data model for verbose CSV structure detection.

This module defines the vocabulary shared by every other part of the
library:

* :class:`CellClass` — the paper's six-element taxonomy (Section 3.2)
  plus an ``EMPTY`` sentinel used for unlabelled empty cells.
* :class:`DataType` — the four cell data types used by the feature
  extractors (``int``, ``float``, ``string``, ``date``) plus ``EMPTY``.
* :class:`Table` — an immutable rectangular grid of raw string values.
* :class:`AnnotatedFile` — a table together with its ground-truth line
  and cell labels.
* :class:`Corpus` — a named collection of annotated files.

Tables are rectangular by construction: rows shorter than the widest
row are padded with empty strings when a :class:`Table` is created, so
every consumer can index ``table.cell(row, col)`` without bounds
anxiety.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, IntEnum
from typing import Iterator, Sequence

import numpy as np

from repro.errors import AnnotationError


class CellClass(Enum):
    """Semantic classes of lines and cells in a verbose CSV file.

    The six members mirror Section 3.2 of the paper.  ``EMPTY`` is a
    library-internal sentinel: empty cells and fully empty lines carry
    no annotation in the ground truth and are excluded from evaluation,
    exactly as the paper counts "only non-empty lines and cells".
    """

    METADATA = "metadata"
    HEADER = "header"
    GROUP = "group"
    DATA = "data"
    DERIVED = "derived"
    NOTES = "notes"
    EMPTY = "empty"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


#: The six real content classes, in the paper's canonical order.
CONTENT_CLASSES: tuple[CellClass, ...] = (
    CellClass.METADATA,
    CellClass.HEADER,
    CellClass.GROUP,
    CellClass.DATA,
    CellClass.DERIVED,
    CellClass.NOTES,
)

#: Stable integer encoding used by all classifiers.
CLASS_TO_INDEX: dict[CellClass, int] = {c: i for i, c in enumerate(CONTENT_CLASSES)}
INDEX_TO_CLASS: dict[int, CellClass] = {i: c for c, i in CLASS_TO_INDEX.items()}

#: The class of each predicted-class code: the content-class index,
#: plus ``EMPTY`` = 6.  ``EMPTY`` has no index in
#: :data:`CLASS_TO_INDEX` (it is not a content class), but line
#: predictions emit it for blank lines, so the arrays of a classified
#: file need a code for it.  The one code-to-class table: an object
#: array, so ``CODE_TO_CLASS[code]`` decodes one code and
#: ``CODE_TO_CLASS.take(codes)`` a whole code array in one call.
CODE_TO_CLASS: np.ndarray = np.array(
    [*CONTENT_CLASSES, CellClass.EMPTY], dtype=object
)
CODE_TO_CLASS.setflags(write=False)
#: The code of each class, the inverse of :data:`CODE_TO_CLASS`.
CLASS_CODES: dict[CellClass, int] = {
    c: i for i, c in enumerate(CODE_TO_CLASS)
}


class DataType(IntEnum):
    """Data type of a single cell value (Section 5.1).

    The paper's cell feature ``DataType`` has four possible values
    (int, float, string, date); the neighbour profile extends the space
    with ``EMPTY`` and uses ``-1`` for neighbours that fall outside the
    table, which we expose as :data:`MISSING_NEIGHBOR`.
    """

    INT = 0
    FLOAT = 1
    STRING = 2
    DATE = 3
    EMPTY = 4


#: Sentinel for the data type / value length of out-of-table neighbours.
MISSING_NEIGHBOR: int = -1


@dataclass(frozen=True)
class Cell:
    """A single addressed cell: raw string value plus its coordinates."""

    row: int
    col: int
    value: str

    @property
    def is_empty(self) -> bool:
        """Whether the cell holds no visible content."""
        return not self.value.strip()


class Table:
    """A rectangular grid of raw string values.

    Parameters
    ----------
    rows:
        Sequence of rows, each a sequence of raw cell strings.  Rows are
        padded on the right with empty strings to the width of the
        longest row, making the table rectangular.

    Notes
    -----
    The table is conceptually immutable; mutating the underlying lists
    after construction is unsupported.
    """

    __slots__ = ("_rows", "_n_cols", "_profile")

    def __init__(self, rows: Sequence[Sequence[str]]):
        width = max((len(r) for r in rows), default=0)
        self._rows: list[list[str]] = [
            list(r) + [""] * (width - len(r)) for r in rows
        ]
        self._n_cols = width
        # Lazily-attached columnar profile (see repro.core.profile).
        # ``types`` sits below ``core`` in the layer DAG, so the slot
        # is declared here but only ever populated by
        # ``repro.core.profile.table_profile``.
        self._profile: object | None = None

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def n_rows(self) -> int:
        """Number of rows (lines) in the table, including empty ones."""
        return len(self._rows)

    @property
    def n_cols(self) -> int:
        """Number of columns; identical for every row."""
        return self._n_cols

    @property
    def shape(self) -> tuple[int, int]:
        """``(n_rows, n_cols)`` pair."""
        return self.n_rows, self.n_cols

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def cell(self, row: int, col: int) -> str:
        """Raw value at ``(row, col)``; raises ``IndexError`` off-grid."""
        if row < 0 or col < 0:
            raise IndexError(f"negative table index ({row}, {col})")
        return self._rows[row][col]

    def row(self, index: int) -> list[str]:
        """A copy of the row at ``index``."""
        return list(self._rows[index])

    def column(self, index: int) -> list[str]:
        """A copy of the column at ``index``."""
        if index < 0 or index >= self._n_cols:
            raise IndexError(f"column {index} out of range")
        return [r[index] for r in self._rows]

    def rows(self) -> Iterator[list[str]]:
        """Iterate over copies of all rows."""
        for r in self._rows:
            yield list(r)

    # ------------------------------------------------------------------
    # Emptiness helpers
    # ------------------------------------------------------------------
    def is_empty_cell(self, row: int, col: int) -> bool:
        """Whether the cell at ``(row, col)`` holds no visible content."""
        return not self._rows[row][col].strip()

    def is_empty_row(self, index: int) -> bool:
        """Whether every cell of the row is empty."""
        return all(not v.strip() for v in self._rows[index])

    def is_empty_column(self, index: int) -> bool:
        """Whether every cell of the column is empty."""
        return all(not r[index].strip() for r in self._rows)

    def non_empty_cells(self) -> Iterator[Cell]:
        """Iterate over all non-empty cells in row-major order."""
        for i, row in enumerate(self._rows):
            for j, value in enumerate(row):
                if value.strip():
                    yield Cell(i, j, value)

    def count_non_empty_cells(self) -> int:
        """Number of non-empty cells in the table."""
        return sum(1 for _ in self.non_empty_cells())

    def count_non_empty_rows(self) -> int:
        """Number of rows containing at least one non-empty cell."""
        return sum(1 for i in range(self.n_rows) if not self.is_empty_row(i))

    # ------------------------------------------------------------------
    # Dunder conveniences
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self) -> int:  # Tables are conceptually immutable.
        return hash(tuple(tuple(r) for r in self._rows))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Table(shape={self.shape})"


@dataclass
class AnnotatedFile:
    """A verbose CSV table with ground-truth line and cell labels.

    Attributes
    ----------
    name:
        Identifier of the file within its corpus (used for grouped
        cross-validation so a file never straddles train and test).
    table:
        The rectangular raw-value grid.
    line_labels:
        One :class:`CellClass` per table row.  Empty rows carry
        ``CellClass.EMPTY``.
    cell_labels:
        One label row per table row, each with one :class:`CellClass`
        per column.  Empty cells carry ``CellClass.EMPTY``.
    """

    name: str
    table: Table
    line_labels: list[CellClass]
    cell_labels: list[list[CellClass]]

    def __post_init__(self) -> None:
        n_rows, n_cols = self.table.shape
        if len(self.line_labels) != n_rows:
            raise AnnotationError(
                f"{self.name}: {len(self.line_labels)} line labels for "
                f"{n_rows} rows"
            )
        if len(self.cell_labels) != n_rows:
            raise AnnotationError(
                f"{self.name}: {len(self.cell_labels)} cell label rows for "
                f"{n_rows} rows"
            )
        for i, label_row in enumerate(self.cell_labels):
            if len(label_row) != n_cols:
                raise AnnotationError(
                    f"{self.name}: row {i} has {len(label_row)} cell labels "
                    f"for {n_cols} columns"
                )

    # ------------------------------------------------------------------
    # Views used throughout evaluation
    # ------------------------------------------------------------------
    def non_empty_line_indices(self) -> list[int]:
        """Indices of rows with at least one non-empty cell."""
        return [
            i for i in range(self.table.n_rows) if not self.table.is_empty_row(i)
        ]

    def non_empty_line_labels(self) -> list[CellClass]:
        """Ground-truth classes of all non-empty lines, in order."""
        return [self.line_labels[i] for i in self.non_empty_line_indices()]

    def non_empty_cell_items(self) -> list[tuple[int, int, CellClass]]:
        """``(row, col, label)`` triples for every non-empty cell."""
        return [
            (cell.row, cell.col, self.cell_labels[cell.row][cell.col])
            for cell in self.table.non_empty_cells()
        ]

    def line_diversity_degree(self, row: int) -> int:
        """Number of distinct non-empty cell classes in a row (Table 3)."""
        classes = {
            label
            for label in self.cell_labels[row]
            if label is not CellClass.EMPTY
        }
        return len(classes)


@dataclass
class Corpus:
    """A named collection of annotated verbose CSV files."""

    name: str
    files: list[AnnotatedFile] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.files)

    def __iter__(self) -> Iterator[AnnotatedFile]:
        return iter(self.files)

    def total_lines(self) -> int:
        """Total number of non-empty lines across all files."""
        return sum(len(f.non_empty_line_indices()) for f in self.files)

    def total_cells(self) -> int:
        """Total number of non-empty cells across all files."""
        return sum(f.table.count_non_empty_cells() for f in self.files)

    def merged_with(self, *others: "Corpus", name: str = "merged") -> "Corpus":
        """A new corpus containing this corpus's files plus ``others``'."""
        files = list(self.files)
        for other in others:
            files.extend(other.files)
        return Corpus(name=name, files=files)
