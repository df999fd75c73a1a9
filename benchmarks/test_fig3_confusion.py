"""Figure 3 — normalized confusion matrices for Strudel-L and Strudel-C.

The paper's headline confusion finding: misclassified minority-class
lines overwhelmingly drift to ``data`` — derived lines most of all.
"""

from __future__ import annotations

import pytest

from repro.eval.experiments import cell_comparison, line_comparison
from repro.eval.markdown import confusion_block
from repro.eval.paper_values import failed_claims


@pytest.mark.parametrize("dataset", ["govuk", "cius", "deex"])
def test_fig3_line_confusion(benchmark, config, report, dataset):
    result = benchmark.pedantic(
        line_comparison,
        args=(config,),
        kwargs={"datasets": (dataset,), "algorithms": ("Strudel-L",)},
        rounds=1,
        iterations=1,
    )
    report(
        f"Figure 3 (top) — Strudel-L confusion on {dataset}",
        "\n".join(confusion_block(result[dataset]["Strudel-L"].confusion)),
    )
    assert not failed_claims("Fig. 3 lines", result)


@pytest.mark.parametrize("dataset", ["saus", "cius", "deex"])
def test_fig3_cell_confusion(benchmark, config, report, dataset):
    result = benchmark.pedantic(
        cell_comparison,
        args=(config,),
        kwargs={"datasets": (dataset,), "algorithms": ("Strudel-C",)},
        rounds=1,
        iterations=1,
    )
    report(
        f"Figure 3 (bottom) — Strudel-C confusion on {dataset}",
        "\n".join(confusion_block(result[dataset]["Strudel-C"].confusion)),
    )
    assert not failed_claims("Fig. 3 cells", result)
