"""Table 4 — corpus inventory (files / non-empty lines / cells)."""

from __future__ import annotations

from repro.eval.experiments import dataset_summary
from repro.eval.markdown import inventory_rows
from repro.eval.paper_values import failed_claims


def test_table4_datasets(benchmark, config, report):
    result = benchmark.pedantic(
        dataset_summary, args=(config,), rounds=1, iterations=1
    )
    report(f"Table 4 — dataset summary (ours at scale {config.scale:g})",
           "\n".join(inventory_rows(result)))
    assert not failed_claims("Table 4", result)
