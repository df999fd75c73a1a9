"""Figure 4 — permutation feature importance per class.

The paper's claims checked here:

* the line-probability features top notes/metadata/header for cells;
* ``is_aggregation`` dominates for derived cells;
* column emptiness/position drive group cells.
"""

from __future__ import annotations

from repro.eval.experiments import (
    cell_feature_importance,
    line_feature_importance,
)
from repro.eval.markdown import importance_rows
from repro.eval.paper_values import FIGURE4_CLAIMS, failed_claims


def test_fig4_line_importance(benchmark, config, report):
    shares = benchmark.pedantic(
        line_feature_importance, args=(config,), rounds=1, iterations=1
    )
    report(
        "Figure 4 (top) — Strudel-L per-class feature importance",
        "\n".join(importance_rows(shares)),
    )
    assert not failed_claims("Fig. 4 lines", shares)


def test_fig4_cell_importance(benchmark, config, report):
    shares = benchmark.pedantic(
        cell_feature_importance, args=(config,), rounds=1, iterations=1
    )
    report(
        "Figure 4 (bottom) — Strudel-C per-class feature importance\n"
        + "paper claims: " + "; ".join(FIGURE4_CLAIMS),
        "\n".join(importance_rows(shares)),
    )
    assert not failed_claims("Fig. 4 cells", shares)
