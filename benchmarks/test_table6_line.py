"""Table 6 (top) — line classification: CRF-L vs Pytheas-L vs Strudel-L.

Repeated grouped cross-validation on the GovUK, SAUS, CIUS and DeEx
personalities; prints per-class F1, accuracy and macro-average next to
the published values and asserts the paper's comparative shape:
Strudel-L leads on macro-average and Pytheas-L trails.
"""

from __future__ import annotations

import pytest

from repro.eval.experiments import line_comparison
from repro.eval.markdown import f1_table
from repro.eval.paper_values import TABLE6_LINE, failed_claims


@pytest.mark.parametrize("dataset", ["govuk", "saus", "cius", "deex"])
def test_table6_line_classification(benchmark, config, report, dataset):
    result = benchmark.pedantic(
        line_comparison,
        args=(config,),
        kwargs={"datasets": (dataset,)},
        rounds=1,
        iterations=1,
    )
    report(
        f"Table 6 (top) — line classification F1 on {dataset}",
        "\n".join(f1_table(
            {name: cv.scores for name, cv in result[dataset].items()},
            TABLE6_LINE[dataset],
        )),
    )
    assert not failed_claims("Table 6 lines", result)
