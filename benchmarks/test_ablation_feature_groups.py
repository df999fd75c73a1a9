"""Ablation S5 — feature-group contribution (line and cell tasks).

Drops each of the paper's three feature groups (content, contextual,
computational) in turn and measures the macro-F1 cost, quantifying
DESIGN.md's called-out design decisions.
"""

from __future__ import annotations

from repro.eval.experiments import (
    cell_feature_group_ablation,
    feature_group_ablation,
)
from repro.eval.markdown import group_rows
from repro.eval.paper_values import failed_claims
from repro.types import CellClass


def test_ablation_line_feature_groups(benchmark, config, report):
    result = benchmark.pedantic(
        feature_group_ablation, args=(config,), rounds=1, iterations=1
    )
    report("Ablation S5 — Strudel-L feature groups (SAUS)",
           "\n".join(group_rows(result)))
    assert not failed_claims("S5 lines", result)


def test_ablation_cell_feature_groups(benchmark, config, report):
    result = benchmark.pedantic(
        cell_feature_group_ablation, args=(config,), rounds=1, iterations=1
    )
    report("Ablation S5 — Strudel-C feature groups (SAUS)",
           "\n".join(group_rows(result)))
    full = result["all"].scores
    without = result["without_computational"].scores
    assert full.per_class_f1[CellClass.DERIVED] >= (
        without.per_class_f1[CellClass.DERIVED] - 0.05
    )
