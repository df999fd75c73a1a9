"""EXPERIMENTS.md generation.

:func:`build_experiments_report` runs every experiment of the paper at
the given configuration and renders a Markdown document recording
paper-vs-measured values for each table and figure.  The repository's
EXPERIMENTS.md is the output of one invocation; regenerate with::

    python -m repro.eval.markdown [scale]
"""

from __future__ import annotations

import sys
import time

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


def _f1_table(measured: dict, paper: dict | None) -> list[str]:
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


def _confusion_block(matrix: np.ndarray) -> list[str]:
    header = "| actual \\ predicted | " + " | ".join(_CLASS_NAMES) + " |"
    rule = "|" + "---|" * (len(_CLASS_NAMES) + 1)
    lines = [header, rule]
    for i, name in enumerate(_CLASS_NAMES):
        row = " | ".join(f"{matrix[i, j]:.3f}" for j in range(6))
        lines.append(f"| {name} | {row} |")
    return lines


def build_experiments_report(
    config: experiments.ExperimentConfig,
) -> str:
    """Run every experiment and render the EXPERIMENTS.md content.

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
        "is the reproduction target and is asserted by the benchmark",
        "suite in `benchmarks/`.",
        "",
    ]

    # ------------------------------------------------------ Table 3
    out += ["## Table 3 — cell-class diversity degree", ""]
    diversity = experiments.diversity_table(config)
    out.append("| dataset | deg 1 | deg 2 | deg 3 | deg 4 | deg 5 |")
    out.append("|---|---|---|---|---|---|")
    for dataset, shares in diversity.items():
        measured = " | ".join(f"{shares[d]:.1f}%" for d in range(1, 6))
        out.append(f"| {dataset} (ours) | {measured} |")
        paper = paper_values.TABLE3_DIVERSITY[dataset]
        reference = " | ".join(f"{paper[d]:.1f}%" for d in range(1, 6))
        out.append(f"| {dataset} (paper) | {reference} |")
    out += [
        "",
        "Shape preserved: degree 1 dominates everywhere; degrees 4-5 "
        "are absent.",
        "",
    ]

    # ------------------------------------------------------ Table 4
    out += ["## Table 4 — dataset inventory", ""]
    summary = experiments.dataset_summary(config)
    out.append("| dataset | files | lines | cells | paper files/lines/cells |")
    out.append("|---|---|---|---|---|")
    for name, (files, lines, cells) in summary.items():
        p = paper_values.TABLE4_DATASETS[name]
        out.append(
            f"| {name} | {files} | {lines:,} | {cells:,} "
            f"| {p[0]} / {p[1]:,} / {p[2]:,} |"
        )
    out += [
        "",
        f"Corpora are generated at scale {config.scale:g}; relative "
        "proportions (Mendeley's huge files, Troy's tiny ones) match "
        "the paper.",
        "",
    ]

    # ------------------------------------------------------ Table 5
    out += ["## Table 5 — class distribution (SAUS+CIUS+DeEx)", ""]
    distribution = experiments.class_distribution(config)
    out.append("| class | lines | cells | cells/line | paper cells/line |")
    out.append("|---|---|---|---|---|")
    for name, (lines, cells, ratio) in distribution.items():
        paper_ratio = paper_values.TABLE5_CLASSES[name][2]
        out.append(
            f"| {name} | {lines:,} | {cells:,} | {ratio:.2f} "
            f"| {paper_ratio:.2f} |"
        )
    out += [
        "",
        "Shape preserved: data dominates; derived lines are the "
        "widest class; metadata/notes are near one cell per line.",
        "",
    ]

    # ------------------------------------------------------ Table 6
    out += ["## Table 6 (top) — line classification F1", ""]
    line_results = experiments.line_comparison(config)
    for dataset, algorithms in line_results.items():
        out += [f"### {dataset}", ""]
        out += _f1_table(
            {name: cv.scores for name, cv in algorithms.items()},
            paper_values.TABLE6_LINE[dataset],
        )
        out.append("")

    out += ["## Table 6 (bottom) — cell classification F1", ""]
    cell_results = experiments.cell_comparison(config)
    for dataset, algorithms in cell_results.items():
        out += [f"### {dataset}", ""]
        out += _f1_table(
            {name: cv.scores for name, cv in algorithms.items()},
            paper_values.TABLE6_CELL[dataset],
        )
        out.append("")

    # ------------------------------------------------------ Table 7/8
    out += ["## Table 7 — out-of-domain transfer (Troy)", ""]
    troy = experiments.out_of_domain(config)
    out += _f1_table(troy, paper_values.TABLE7_TROY)
    out += [
        "",
        "Shape preserved: derived collapses out of domain (the paper "
        "measures 0.070) because Troy's derived lines carry no "
        "anchoring keywords; the other classes stay strong.",
        "",
        "## Table 8 — plain-text transfer (Mendeley)",
        "",
    ]
    mendeley = experiments.plain_text(config)
    out += _f1_table(mendeley, paper_values.TABLE8_MENDELEY)
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
        out += _confusion_block(algorithms["Strudel-L"].confusion)
        out.append("")
    out += ["### cell confusion (Strudel-C)", ""]
    for dataset, algorithms in cell_results.items():
        out += [f"#### {dataset} (cells)", ""]
        out += _confusion_block(algorithms["Strudel-C"].confusion)
        out.append("")
    out += [
        "Shape preserved: misclassified minority lines/cells drift "
        "predominantly to `data`, derived most of all.",
        "",
    ]

    # ------------------------------------------------------ Figure 4
    out += ["## Figure 4 — permutation feature importance", ""]
    line_importance = experiments.line_feature_importance(config)
    out += ["### Strudel-L (top-3 features per class)", ""]
    for class_name, shares in line_importance.items():
        ranked = sorted(shares.items(), key=lambda kv: -kv[1])[:3]
        rendered = ", ".join(f"`{n}` ({s:.0%})" for n, s in ranked)
        out.append(f"* **{class_name}**: {rendered}")
    out.append("")
    cell_importance = experiments.cell_feature_importance(config)
    out += ["### Strudel-C (top-3 features per class)", ""]
    for class_name, shares in cell_importance.items():
        ranked = sorted(shares.items(), key=lambda kv: -kv[1])[:3]
        rendered = ", ".join(f"`{n}` ({s:.0%})" for n, s in ranked)
        out.append(f"* **{class_name}**: {rendered}")
    out += [
        "",
        "Paper claims checked by `benchmarks/test_fig4_importance.py`: "
        "`is_aggregation` and `derived_coverage` are derived-specific; "
        "line-class probabilities dominate the line-homogeneous "
        "classes.",
        "",
    ]

    # ------------------------------------------------------ Ablations
    out += ["## Supplementary ablations", ""]
    backbone = experiments.classifier_ablation(config)
    out += ["### S1 — backbone choice (Section 6.1.2)", ""]
    out.append("| backbone | accuracy | macro-F1 |")
    out.append("|---|---|---|")
    for name, cv in backbone.items():
        out.append(
            f"| {name} | {cv.scores.accuracy:.3f} "
            f"| {cv.scores.macro_f1:.3f} |"
        )
    out.append("")

    global_features = experiments.global_feature_ablation(config)
    out += ["### S2 — global line features (Section 4)", ""]
    out.append("| variant | accuracy | macro-F1 |")
    out.append("|---|---|---|")
    for name, cv in global_features.items():
        out.append(
            f"| {name} | {cv.scores.accuracy:.3f} "
            f"| {cv.scores.macro_f1:.3f} |"
        )
    out += ["", "Paper: the global features showed no positive impact.", ""]

    sweep = experiments.derived_parameter_sweep(config)
    out += ["### S4 — Algorithm 2 parameter sweep", ""]
    out.append("| delta | coverage | derived line F1 |")
    out.append("|---|---|---|")
    for (delta, coverage), f1 in sorted(sweep.items()):
        out.append(f"| {delta:g} | {coverage:g} | {f1:.3f} |")
    out += [
        "",
        "Paper: no substantial difference across delta/coverage "
        "settings (defaults d=0.1, c=0.5).",
        "",
    ]

    anchors = experiments.anchor_mode_ablation(config)
    out += ["### S4b — Algorithm 2 anchoring on Troy", ""]
    out.append("| anchor mode | derived line F1 |")
    out.append("|---|---|")
    for name, f1 in anchors.items():
        out.append(f"| {name} | {f1:.3f} |")
    out += [
        "",
        "Keyword anchoring trades recall on unanchored aggregates for "
        "speed — the paper's Troy error analysis in one number.",
        "",
    ]

    groups = experiments.feature_group_ablation(config)
    out += ["### S5 — line feature groups", ""]
    out.append("| variant | accuracy | macro-F1 | derived F1 |")
    out.append("|---|---|---|---|")
    for name, cv in groups.items():
        derived = cv.scores.per_class_f1.get(CellClass.DERIVED, 0.0)
        out.append(
            f"| {name} | {cv.scores.accuracy:.3f} "
            f"| {cv.scores.macro_f1:.3f} | {derived:.3f} |"
        )
    out.append("")

    # ------------------------------------------------ headline verdict
    out += ["## Headline shape checks", ""]

    def check(name: str, passed: bool) -> None:
        out.append(f"* {'✅' if passed else '❌'} {name}")

    line_wins = sum(
        1
        for dataset, algorithms in line_results.items()
        if algorithms["Strudel-L"].scores.macro_f1
        >= max(
            cv.scores.macro_f1 for cv in algorithms.values()
        ) - 0.02
    )
    check(
        f"Strudel-L leads (or ties within 0.02) the macro-average on "
        f"{line_wins}/{len(line_results)} line datasets",
        line_wins >= len(line_results) - 1,
    )
    cell_wins = sum(
        1
        for dataset, algorithms in cell_results.items()
        if algorithms["Strudel-C"].scores.macro_f1
        >= max(cv.scores.macro_f1 for cv in algorithms.values()) - 0.02
    )
    check(
        f"Strudel-C leads the macro-average on "
        f"{cell_wins}/{len(cell_results)} cell datasets",
        cell_wins == len(cell_results),
    )
    derived_hard = all(
        sorted(algorithms["Strudel-L"].scores.per_class_f1.values())[1]
        >= algorithms["Strudel-L"].scores.per_class_f1[CellClass.DERIVED]
        - 1e-9
        for algorithms in line_results.values()
    )
    check("derived is among the two hardest line classes everywhere",
          derived_hard)
    troy_lines = troy["Strudel-L"].per_class_f1
    check(
        "derived collapses out-of-domain on Troy (paper: 0.070)",
        troy_lines[CellClass.DERIVED] == min(troy_lines.values()),
    )
    mendeley_lines = mendeley["Strudel-L"]
    check(
        "Mendeley: data near-perfect, macro visibly degraded",
        mendeley_lines.per_class_f1[CellClass.DATA] > 0.98
        and mendeley_lines.macro_f1 < 0.95,
    )
    check(
        "random forest backbone holds its lead (within fold noise)",
        backbone["random_forest"].scores.macro_f1
        >= max(cv.scores.macro_f1 for cv in backbone.values()) - 0.04,
    )
    check(
        "global features: no positive impact",
        global_features["with_global"].scores.macro_f1
        <= global_features["local_only"].scores.macro_f1 + 0.03,
    )
    out.append("")

    out += [
        "---",
        "*Scalability (Section 6.3.4) and the annotation/acquisition "
        "protocol benchmarks live in `benchmarks/` and print their "
        "own measurements.*",
        "",
    ]
    return "\n".join(out)


def main(argv: list[str] | None = None) -> int:
    """Regenerate EXPERIMENTS.md (optional argument: corpus scale)."""
    argv = sys.argv[1:] if argv is None else argv
    config = experiments.ExperimentConfig.from_env()
    if argv:
        config.scale = float(argv[0])
    started = time.perf_counter()
    report = build_experiments_report(config)
    elapsed = time.perf_counter() - started
    from pathlib import Path

    Path("EXPERIMENTS.md").write_text(report, encoding="utf-8")
    print(
        f"wrote EXPERIMENTS.md ({len(report.splitlines())} lines) "
        f"in {elapsed:.0f} s"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
