"""EXPERIMENTS.md generation and the paper-claims gate.

:func:`build_experiments_report` runs every experiment of the paper at
the given configuration and renders a Markdown document recording
paper-vs-measured values for each table and figure, then every shape
claim in :data:`repro.eval.paper_values.CLAIMS` marked ✅ or ❌.  The
repository's EXPERIMENTS.md is the output of one invocation;
regenerate with::

    python -m repro.eval.markdown [scale]

which writes the file and exits 1, naming each failed claim, when a
claim fails.  The row renderers are public so that the ``benchmarks/``
tests print the same rows.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path
from typing import Any

import numpy as np

from repro.eval import experiments, paper_values
from repro.eval.runner import ClassificationScores
from repro.types import CONTENT_CLASSES, CellClass

_CLASS_NAMES = tuple(c.value for c in CONTENT_CLASSES)


def _score_cells(scores: ClassificationScores) -> list[str]:
    cells = []
    for klass in CONTENT_CLASSES:
        if klass in scores.per_class_f1:
            cells.append(f"{scores.per_class_f1[klass]:.3f}")
        else:
            cells.append("—")
    cells.append(f"{scores.accuracy:.3f}")
    cells.append(f"{scores.macro_f1:.3f}")
    return cells


def _paper_cells(row: dict) -> list[str]:
    cells = []
    for name in _CLASS_NAMES:
        value = row.get(name)
        cells.append("—" if value is None else f"{value:.3f}")
    for key in ("accuracy", "macro_avg"):
        value = row.get(key)
        cells.append("—" if value is None else f"{value:.3f}")
    return cells


def f1_table(measured: dict, paper: dict | None) -> list[str]:
    """Tables 6-8: per-class F1, accuracy and macro, ours and the paper's."""
    header = (
        "| algorithm | " + " | ".join(_CLASS_NAMES)
        + " | accuracy | macro |"
    )
    rule = "|" + "---|" * (len(_CLASS_NAMES) + 3)
    lines = [header, rule]
    for name, scores in measured.items():
        lines.append(
            f"| {name} (ours) | " + " | ".join(_score_cells(scores)) + " |"
        )
        if paper and name in paper:
            lines.append(
                f"| {name} (paper) | "
                + " | ".join(_paper_cells(paper[name])) + " |"
            )
    return lines


def confusion_block(matrix: np.ndarray) -> list[str]:
    """Figure 3: one row-normalized confusion matrix."""
    header = "| actual \\ predicted | " + " | ".join(_CLASS_NAMES) + " |"
    rule = "|" + "---|" * (len(_CLASS_NAMES) + 1)
    lines = [header, rule]
    for i, name in enumerate(_CLASS_NAMES):
        row = " | ".join(f"{matrix[i, j]:.3f}" for j in range(6))
        lines.append(f"| {name} | {row} |")
    return lines


def diversity_rows(diversity: dict) -> list[str]:
    """Table 3: share of lines per diversity degree, ours and the paper's."""
    lines = [
        "| dataset | deg 1 | deg 2 | deg 3 | deg 4 | deg 5 |",
        "|---|---|---|---|---|---|",
    ]
    for dataset, shares in diversity.items():
        measured = " | ".join(f"{shares[d]:.1f}%" for d in range(1, 6))
        lines.append(f"| {dataset} (ours) | {measured} |")
        paper = paper_values.TABLE3_DIVERSITY[dataset]
        reference = " | ".join(f"{paper[d]:.1f}%" for d in range(1, 6))
        lines.append(f"| {dataset} (paper) | {reference} |")
    return lines


def inventory_rows(summary: dict) -> list[str]:
    """Table 4: files, lines and cells per corpus next to the paper's."""
    lines = [
        "| dataset | files | lines | cells | paper files/lines/cells |",
        "|---|---|---|---|---|",
    ]
    for name, (files, n_lines, n_cells) in summary.items():
        p = paper_values.TABLE4_DATASETS[name]
        lines.append(
            f"| {name} | {files} | {n_lines:,} | {n_cells:,} "
            f"| {p[0]} / {p[1]:,} / {p[2]:,} |"
        )
    return lines


def distribution_rows(distribution: dict) -> list[str]:
    """Table 5: lines, cells and cells/line per class."""
    lines = [
        "| class | lines | cells | cells/line | paper cells/line |",
        "|---|---|---|---|---|",
    ]
    for name, (n_lines, n_cells, ratio) in distribution.items():
        paper_ratio = paper_values.TABLE5_CLASSES[name][2]
        lines.append(
            f"| {name} | {n_lines:,} | {n_cells:,} | {ratio:.2f} "
            f"| {paper_ratio:.2f} |"
        )
    return lines


def importance_rows(importance: dict) -> list[str]:
    """Figure 4: the top-3 features per class with their shares."""
    lines = []
    for class_name, shares in importance.items():
        ranked = sorted(shares.items(), key=lambda kv: -kv[1])[:3]
        rendered = ", ".join(f"`{n}` ({s:.0%})" for n, s in ranked)
        lines.append(f"* **{class_name}**: {rendered}")
    return lines


def cv_rows(label: str, results: dict) -> list[str]:
    """S1/S2: accuracy and macro-F1 per variant."""
    lines = [f"| {label} | accuracy | macro-F1 |", "|---|---|---|"]
    for name, cv in results.items():
        lines.append(
            f"| {name} | {cv.scores.accuracy:.3f} "
            f"| {cv.scores.macro_f1:.3f} |"
        )
    return lines


def sweep_rows(sweep: dict) -> list[str]:
    """S4: derived line F1 per (delta, coverage) setting."""
    lines = ["| delta | coverage | derived line F1 |", "|---|---|---|"]
    for (delta, coverage), f1 in sorted(sweep.items()):
        lines.append(f"| {delta:g} | {coverage:g} | {f1:.3f} |")
    return lines


def anchor_rows(anchors: dict) -> list[str]:
    """S4b: derived line F1 per Algorithm 2 anchor mode."""
    lines = ["| anchor mode | derived line F1 |", "|---|---|"]
    for name, f1 in anchors.items():
        lines.append(f"| {name} | {f1:.3f} |")
    return lines


def group_rows(groups: dict) -> list[str]:
    """S5: accuracy, macro-F1 and derived F1 per feature-group variant."""
    lines = [
        "| variant | accuracy | macro-F1 | derived F1 |",
        "|---|---|---|---|",
    ]
    for name, cv in groups.items():
        derived = cv.scores.per_class_f1.get(CellClass.DERIVED, 0.0)
        lines.append(
            f"| {name} | {cv.scores.accuracy:.3f} "
            f"| {cv.scores.macro_f1:.3f} | {derived:.3f} |"
        )
    return lines


def run_experiments(config: experiments.ExperimentConfig) -> dict[str, Any]:
    """Run each experiment the report reads once, keyed by its name."""
    return {
        name: getattr(experiments, name)(config)
        for name in (
            "diversity_table",
            "dataset_summary",
            "class_distribution",
            "line_comparison",
            "cell_comparison",
            "out_of_domain",
            "plain_text",
            "line_feature_importance",
            "cell_feature_importance",
            "classifier_ablation",
            "global_feature_ablation",
            "derived_parameter_sweep",
            "anchor_mode_ablation",
            "feature_group_ablation",
        )
    }


def _claim_verdicts(
    results: dict[str, Any],
) -> list[tuple[paper_values.Claim, str | None]]:
    """Every declared claim with why it fails on ``results`` (or None)."""
    return [
        (claim, claim.failure(results[claim.experiment]))
        for claim in paper_values.CLAIMS
    ]


def render_report(
    config: experiments.ExperimentConfig, results: dict[str, Any]
) -> str:
    """Render the EXPERIMENTS.md content from :func:`run_experiments`.

    The text holds no clock reading, and ``config.n_jobs`` changes no
    value, so a regeneration can be diffed against the committed file.
    """
    out: list[str] = [
        "# EXPERIMENTS — paper vs. measured",
        "",
        "Generated by `python -m repro.eval.markdown` on synthetic",
        "corpora (see DESIGN.md for the substitution rationale).",
        f"Configuration: scale={config.scale:g}, "
        f"{config.n_splits}x{config.n_repeats}-fold grouped CV, "
        f"{config.n_estimators}-tree forests, seed={config.seed}.",
        "",
        "Absolute scores run higher than the paper's (generated files",
        "are cleaner than hand-annotated spreadsheets); the *shape* —",
        "who wins, which classes are hard, where transfer collapses —",
        "is the reproduction target.  Each shape claim is declared once",
        "in `src/repro/eval/paper_values.py` and checked at the end of",
        "this file; the generator exits 1 when one fails.",
        "",
    ]

    # ------------------------------------------------------ Table 3
    out += ["## Table 3 — cell-class diversity degree", ""]
    out += diversity_rows(results["diversity_table"])
    out += [
        "",
        "Shape preserved: degree 1 dominates everywhere; degrees 4-5 "
        "are absent.",
        "",
    ]

    # ------------------------------------------------------ Table 4
    out += ["## Table 4 — dataset inventory", ""]
    out += inventory_rows(results["dataset_summary"])
    out += [
        "",
        f"Corpora are generated at scale {config.scale:g}; relative "
        "proportions (Mendeley's huge files, Troy's tiny ones) match "
        "the paper.",
        "",
    ]

    # ------------------------------------------------------ Table 5
    out += ["## Table 5 — class distribution (SAUS+CIUS+DeEx)", ""]
    out += distribution_rows(results["class_distribution"])
    out += [
        "",
        "Shape preserved: data dominates; derived lines are the "
        "widest class; metadata/notes are near one cell per line.",
        "",
    ]

    # ------------------------------------------------------ Table 6
    out += ["## Table 6 (top) — line classification F1", ""]
    line_results = results["line_comparison"]
    for dataset, algorithms in line_results.items():
        out += [f"### {dataset}", ""]
        out += f1_table(
            {name: cv.scores for name, cv in algorithms.items()},
            paper_values.TABLE6_LINE[dataset],
        )
        out.append("")

    out += ["## Table 6 (bottom) — cell classification F1", ""]
    cell_results = results["cell_comparison"]
    for dataset, algorithms in cell_results.items():
        out += [f"### {dataset}", ""]
        out += f1_table(
            {name: cv.scores for name, cv in algorithms.items()},
            paper_values.TABLE6_CELL[dataset],
        )
        out.append("")

    # ------------------------------------------------------ Table 7/8
    out += ["## Table 7 — out-of-domain transfer (Troy)", ""]
    out += f1_table(results["out_of_domain"], paper_values.TABLE7_TROY)
    out += [
        "",
        "Shape preserved: derived collapses out of domain (the paper "
        "measures 0.070) because Troy's derived lines carry no "
        "anchoring keywords; the other classes stay strong.",
        "",
        "## Table 8 — plain-text transfer (Mendeley)",
        "",
    ]
    out += f1_table(results["plain_text"], paper_values.TABLE8_MENDELEY)
    out += [
        "",
        "Shape preserved: data is near-perfect on these data-dominated "
        "files while the minority classes degrade under the domain "
        "shift and the delimiter dilemma.",
        "",
    ]

    # ------------------------------------------------------ Figure 3
    out += ["## Figure 3 — confusion matrices (Strudel-L, ensemble)", ""]
    for dataset, algorithms in line_results.items():
        if dataset == "saus":
            continue  # the paper omits SAUS for space; we follow suit
        out += [f"### {dataset} (lines)", ""]
        out += confusion_block(algorithms["Strudel-L"].confusion)
        out.append("")
    out += ["### cell confusion (Strudel-C)", ""]
    for dataset, algorithms in cell_results.items():
        out += [f"#### {dataset} (cells)", ""]
        out += confusion_block(algorithms["Strudel-C"].confusion)
        out.append("")
    out += [
        "Shape preserved: misclassified minority lines/cells drift "
        "predominantly to `data`, derived most of all.",
        "",
    ]

    # ------------------------------------------------------ Figure 4
    out += ["## Figure 4 — permutation feature importance", ""]
    out += ["### Strudel-L (top-3 features per class)", ""]
    out += importance_rows(results["line_feature_importance"])
    out.append("")
    out += ["### Strudel-C (top-3 features per class)", ""]
    out += importance_rows(results["cell_feature_importance"])
    out += [
        "",
        "Paper claims declared in `src/repro/eval/paper_values.py` and "
        "checked below: `is_aggregation` and `derived_coverage` are "
        "derived-specific; line-class probabilities dominate the "
        "line-homogeneous classes.",
        "",
    ]

    # ------------------------------------------------------ Ablations
    out += ["## Supplementary ablations", ""]
    out += ["### S1 — backbone choice (Section 6.1.2)", ""]
    out += cv_rows("backbone", results["classifier_ablation"])
    out.append("")

    out += ["### S2 — global line features (Section 4)", ""]
    out += cv_rows("variant", results["global_feature_ablation"])
    out += ["", "Paper: the global features showed no positive impact.", ""]

    out += ["### S4 — Algorithm 2 parameter sweep", ""]
    out += sweep_rows(results["derived_parameter_sweep"])
    out += [
        "",
        "Paper: no substantial difference across delta/coverage "
        "settings (defaults d=0.1, c=0.5).",
        "",
    ]

    out += ["### S4b — Algorithm 2 anchoring on Troy", ""]
    out += anchor_rows(results["anchor_mode_ablation"])
    out += [
        "",
        "Keyword anchoring trades recall on unanchored aggregates for "
        "speed — the paper's Troy error analysis in one number.",
        "",
    ]

    out += ["### S5 — line feature groups", ""]
    out += group_rows(results["feature_group_ablation"])
    out.append("")

    # ------------------------------------------------ shape claims
    out += ["## Paper shape claims", ""]
    for claim, reason in _claim_verdicts(results):
        scope = f" ({', '.join(claim.datasets)})" if claim.datasets else ""
        verdict = "✅" if reason is None else "❌"
        line = f"* {verdict} {claim.label}{scope}"
        out.append(line if reason is None else f"{line} — {reason}")
    out.append("")

    out += [
        "---",
        "*Scalability (Section 6.3.4) and the annotation/acquisition "
        "protocol benchmarks live in `benchmarks/` and print their "
        "own measurements.*",
        "",
    ]
    return "\n".join(out)


def build_experiments_report(config: experiments.ExperimentConfig) -> str:
    """Run every experiment and render the EXPERIMENTS.md content."""
    return render_report(config, run_experiments(config))


def main(argv: list[str] | None = None) -> int:
    """Regenerate EXPERIMENTS.md (optional argument: corpus scale).

    Returns 1 when a paper shape claim fails; the file is written
    either way, so its ❌ lines can be read.
    """
    argv = sys.argv[1:] if argv is None else argv
    config = experiments.ExperimentConfig.from_env()
    if argv:
        config.scale = float(argv[0])
    started = time.perf_counter()
    results = run_experiments(config)
    report = render_report(config, results)
    elapsed = time.perf_counter() - started
    Path("EXPERIMENTS.md").write_text(report, encoding="utf-8")
    print(
        f"wrote EXPERIMENTS.md ({len(report.splitlines())} lines) "
        f"in {elapsed:.0f} s"
    )
    failed = [
        (claim, reason)
        for claim, reason in _claim_verdicts(results)
        if reason is not None
    ]
    for claim, reason in failed:
        print(f"claim failed: {claim.label} — {reason}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
