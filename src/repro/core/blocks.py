"""Algorithm 1 — block size calculation.

The ``BlockSize`` cell feature is the size of the *connected
component* of non-empty cells containing a cell, under 4-adjacency
(vertical/horizontal neighbours).  The paper motivates it by the
observation that non-data regions (notes, metadata, aggregation
blocks) are usually smaller than tables.

The published pseudo-code is an iterative depth-first expansion over
untouched non-empty cells; this module now delegates to the columnar
:class:`~repro.core.profile.TableProfile`, which labels the same
components with ``scipy.ndimage.label`` (the DFS reference
implementation lives on in ``tests/test_profile_parity.py``, which
pins equality).  The dict views below remain the public Algorithm 1
API; the cell feature extractor reads the profile's
``block_size_grid`` directly.
"""

from __future__ import annotations

import numpy as np

from repro.core.profile import table_profile
from repro.types import Table


def block_sizes(table: Table) -> dict[tuple[int, int], int]:
    """Raw block size for every non-empty cell.

    Returns a mapping from ``(row, col)`` of each non-empty cell to the
    number of cells in its connected component.
    """
    profile = table_profile(table)
    rows, cols = np.nonzero(profile.non_empty)
    sizes = profile.block_size_grid[rows, cols]
    return {
        (int(i), int(j)): int(size)
        for i, j, size in zip(rows, cols, sizes)
    }


def normalized_block_sizes(table: Table) -> dict[tuple[int, int], float]:
    """Block sizes normalized by the size of the file (total cells).

    Matches line 14 of Algorithm 1: ``bs <- normalize(bs)`` with the
    file size as the normalizer, keeping the feature in [0, 1].
    """
    total = table.n_rows * table.n_cols
    if total == 0:
        return {}
    return {
        position: size / total
        for position, size in block_sizes(table).items()
    }
