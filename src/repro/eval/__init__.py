"""Evaluation harness: cross-validation, experiments, reporting.

* :mod:`repro.eval.runner` — generic repeated grouped-CV and transfer
  evaluation for line and cell algorithms.
* :mod:`repro.eval.experiments` — one function per paper table/figure.
* :mod:`repro.eval.paper_values` — the numbers printed in the paper,
  for side-by-side comparison, and the shape claims checked on ours.
* :mod:`repro.eval.markdown` — the EXPERIMENTS.md generator, which
  exits 1 when a shape claim fails.
"""

from repro.eval.runner import (
    ClassificationScores,
    CVResult,
    cross_validate_cells,
    cross_validate_lines,
    evaluate_cells,
    evaluate_lines,
    transfer_cells,
    transfer_lines,
)

__all__ = [
    "CVResult",
    "ClassificationScores",
    "cross_validate_cells",
    "cross_validate_lines",
    "evaluate_cells",
    "evaluate_lines",
    "transfer_cells",
    "transfer_lines",
]
