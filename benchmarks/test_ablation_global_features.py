"""Ablation S2 — global line features (Section 4).

The paper tested file-level features (empty-line share, width, length,
empty-block count) and found "no positive impact"; Strudel ships with
local features only.  This benchmark reproduces that comparison.
"""

from __future__ import annotations

from repro.eval.experiments import global_feature_ablation
from repro.eval.markdown import cv_rows
from repro.eval.paper_values import failed_claims


def test_ablation_global_features(benchmark, config, report):
    result = benchmark.pedantic(
        global_feature_ablation, args=(config,), rounds=1, iterations=1
    )
    report(
        "Ablation S2 — global line features (DeEx)",
        "\n".join(cv_rows("variant", result))
        + "\npaper: global features showed no positive impact",
    )
    assert not failed_claims("S2", result)
