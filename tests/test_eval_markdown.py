"""Smoke test for the EXPERIMENTS.md generator at micro scale."""

from __future__ import annotations

import pytest

from repro.eval.experiments import ExperimentConfig
from repro.eval.markdown import build_experiments_report


@pytest.mark.slow
def test_report_contains_every_section():
    config = ExperimentConfig(
        scale=0.02,
        n_splits=2,
        n_repeats=1,
        n_estimators=4,
        crf_max_iter=10,
        rnn_epochs=1,
        seed=0,
        mendeley_scale=0.03,
    )
    report = build_experiments_report(config)
    for marker in (
        "# EXPERIMENTS",
        "## Table 3",
        "## Table 4",
        "## Table 5",
        "## Table 6 (top)",
        "## Table 6 (bottom)",
        "## Table 7",
        "## Table 8",
        "## Figure 3",
        "## Figure 4",
        "### S1",
        "### S2",
        "### S4",
        "### S5",
        "## Headline shape checks",
        "(paper)",
    ):
        assert marker in report, marker
    # No wall-clock text: the committed file must regenerate exactly.
    assert "generated in" not in report.lower()
    # Markdown tables render: header separators present.
    assert report.count("|---|") > 10
