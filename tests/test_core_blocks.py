"""Tests for Algorithm 1 — block size calculation."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.blocks import block_sizes, normalized_block_sizes
from repro.core.profile import table_profile
from repro.types import Table


class TestBlockSizes:
    def test_single_block(self):
        table = Table([["a", "b"], ["c", ""]])
        sizes = block_sizes(table)
        assert sizes == {(0, 0): 3, (0, 1): 3, (1, 0): 3}

    def test_two_blocks_separated_by_empty_column(self):
        table = Table([["a", "", "x"], ["b", "", "y"]])
        sizes = block_sizes(table)
        assert sizes[(0, 0)] == 2
        assert sizes[(0, 2)] == 2

    def test_diagonal_cells_are_not_connected(self):
        table = Table([["a", ""], ["", "b"]])
        sizes = block_sizes(table)
        assert sizes[(0, 0)] == 1
        assert sizes[(1, 1)] == 1

    def test_empty_table(self):
        assert block_sizes(Table([["", ""]])) == {}

    def test_every_non_empty_cell_covered(self, verbose_table):
        sizes = block_sizes(verbose_table)
        cells = {
            (c.row, c.col) for c in verbose_table.non_empty_cells()
        }
        assert set(sizes) == cells

    def test_sizes_cover_exactly_the_non_empty_cells(self, verbose_table):
        sizes = block_sizes(verbose_table)
        assert len(sizes) == verbose_table.count_non_empty_cells()
        assert all(size >= 1 for size in sizes.values())

    def test_normalized_by_file_size(self):
        table = Table([["a", "b"], ["", ""]])
        normalized = normalized_block_sizes(table)
        assert normalized[(0, 0)] == pytest.approx(2 / 4)


# ----------------------------------------------------------------------
# Property: agreement with networkx connected components
# ----------------------------------------------------------------------
@given(
    seed=st.integers(0, 10_000),
    n_rows=st.integers(1, 8),
    n_cols=st.integers(1, 8),
    density=st.floats(0.1, 0.9),
)
@settings(max_examples=60, deadline=None)
def test_matches_networkx_reference(seed, n_rows, n_cols, density):
    rng = np.random.default_rng(seed)
    grid = rng.random((n_rows, n_cols)) < density
    table = Table(
        [
            ["x" if grid[i, j] else "" for j in range(n_cols)]
            for i in range(n_rows)
        ]
    )
    sizes = block_sizes(table)

    graph = nx.Graph()
    for i in range(n_rows):
        for j in range(n_cols):
            if not grid[i, j]:
                continue
            graph.add_node((i, j))
            if i + 1 < n_rows and grid[i + 1, j]:
                graph.add_edge((i, j), (i + 1, j))
            if j + 1 < n_cols and grid[i, j + 1]:
                graph.add_edge((i, j), (i, j + 1))
    for component in nx.connected_components(graph):
        for node in component:
            assert sizes[node] == len(component)
    assert set(sizes) == set(graph.nodes)

    # Two cells share a block label exactly when networkx puts them in
    # one component; empty cells are labeled -1.
    labels = table_profile(table).block_labels
    by_label: dict[int, set[tuple[int, int]]] = {}
    for i, j in zip(*np.nonzero(labels >= 0)):
        by_label.setdefault(int(labels[i, j]), set()).add((int(i), int(j)))
    assert sorted(map(sorted, by_label.values())) == sorted(
        map(sorted, nx.connected_components(graph))
    )
    assert (labels[~grid] == -1).all()
