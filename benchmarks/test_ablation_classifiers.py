"""Ablation S1 — backbone choice (Section 6.1.2).

"Random forest consistently outperformed the other candidate
algorithms (Naive Bayes, KNN, SVM) on our datasets."
"""

from __future__ import annotations

from repro.eval.experiments import classifier_ablation
from repro.eval.markdown import cv_rows
from repro.eval.paper_values import failed_claims


def test_ablation_backbone_choice(benchmark, config, report):
    result = benchmark.pedantic(
        classifier_ablation, args=(config,), rounds=1, iterations=1
    )
    report("Ablation S1 — Strudel-L backbone choice (SAUS)",
           "\n".join(cv_rows("backbone", result)))
    assert not failed_claims("S1", result)
