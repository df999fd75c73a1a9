"""Table 5 — class distribution over SAUS + CIUS + DeEx."""

from __future__ import annotations

from repro.eval.experiments import class_distribution
from repro.eval.markdown import distribution_rows
from repro.eval.paper_values import failed_claims


def test_table5_class_distribution(benchmark, config, report):
    result = benchmark.pedantic(
        class_distribution, args=(config,), rounds=1, iterations=1
    )
    report("Table 5 — lines/cells per class (SAUS+CIUS+DeEx)",
           "\n".join(distribution_rows(result)))
    assert not failed_claims("Table 5", result)
