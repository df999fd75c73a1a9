"""Table 7 — out-of-domain transfer: train SAUS+CIUS+DeEx, test Troy."""

from __future__ import annotations

from repro.eval.experiments import out_of_domain
from repro.eval.markdown import f1_table
from repro.eval.paper_values import TABLE7_TROY, failed_claims


def test_table7_troy_transfer(benchmark, config, report):
    result = benchmark.pedantic(
        out_of_domain, args=(config,), rounds=1, iterations=1
    )
    report(
        "Table 7 — out-of-domain F1 on Troy (trained on SAUS+CIUS+DeEx)",
        "\n".join(f1_table(result, TABLE7_TROY)),
    )
    assert not failed_claims("Table 7", result)
