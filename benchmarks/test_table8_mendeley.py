"""Table 8 — plain-text transfer: train SAUS+CIUS+DeEx, test Mendeley."""

from __future__ import annotations

from repro.eval.experiments import plain_text
from repro.eval.markdown import f1_table
from repro.eval.paper_values import TABLE8_MENDELEY, failed_claims


def test_table8_mendeley_transfer(benchmark, config, report):
    result = benchmark.pedantic(
        plain_text, args=(config,), rounds=1, iterations=1
    )
    report(
        "Table 8 — plain-text F1 on Mendeley (trained on SAUS+CIUS+DeEx)",
        "\n".join(f1_table(result, TABLE8_MENDELEY)),
    )
    assert not failed_claims("Table 8", result)
