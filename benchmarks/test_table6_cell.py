"""Table 6 (bottom) — cell classification: Line-C vs RNN-C vs Strudel-C."""

from __future__ import annotations

import pytest

from repro.eval.experiments import cell_comparison
from repro.eval.markdown import f1_table
from repro.eval.paper_values import TABLE6_CELL, failed_claims


@pytest.mark.parametrize("dataset", ["saus", "cius", "deex"])
def test_table6_cell_classification(benchmark, config, report, dataset):
    result = benchmark.pedantic(
        cell_comparison,
        args=(config,),
        kwargs={"datasets": (dataset,)},
        rounds=1,
        iterations=1,
    )
    report(
        f"Table 6 (bottom) — cell classification F1 on {dataset}",
        "\n".join(f1_table(
            {name: cv.scores for name, cv in result[dataset].items()},
            TABLE6_CELL[dataset],
        )),
    )
    assert not failed_claims("Table 6 cells", result)
