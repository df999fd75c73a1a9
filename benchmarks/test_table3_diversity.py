"""Table 3 — percentage of lines per cell-class diversity degree."""

from __future__ import annotations

from repro.eval.experiments import diversity_table
from repro.eval.markdown import diversity_rows
from repro.eval.paper_values import failed_claims


def test_table3_diversity(benchmark, config, report):
    result = benchmark.pedantic(
        diversity_table, args=(config,), rounds=1, iterations=1
    )
    report("Table 3 — cell-class diversity degree (% of lines)",
           "\n".join(diversity_rows(result)))
    assert not failed_claims("Table 3", result)
