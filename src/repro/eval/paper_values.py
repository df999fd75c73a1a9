"""The numbers reported in the paper, and the shape claims checked on ours.

All values are transcribed from the published tables; EXPERIMENTS.md
prints them next to our measured values.  :data:`CLAIMS` declares,
once, each comparative *shape* the reproduction must keep (who wins,
which classes are hard, where transfer collapses), with the constant
it compares against.  ``python -m repro.eval.markdown`` marks every
claim in EXPERIMENTS.md and exits 1 when one fails; the ``benchmarks/``
tests assert the same declarations through :func:`failed_claims`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.types import CLASS_TO_INDEX, CellClass

#: Table 3 — percentage of lines per cell-class diversity degree.
TABLE3_DIVERSITY: dict[str, dict[int, float]] = {
    "saus": {1: 86.3, 2: 13.7, 3: 0.0, 4: 0.0, 5: 0.0},
    "cius": {1: 88.7, 2: 11.2, 3: 0.1, 4: 0.0, 5: 0.0},
    "deex": {1: 95.3, 2: 4.6, 3: 0.1, 4: 0.0, 5: 0.0},
}

#: Table 4 — dataset sizes (files, non-empty lines, non-empty cells).
TABLE4_DATASETS: dict[str, tuple[int, int, int]] = {
    "govuk": (226, 97_212, 1_382_704),
    "saus": (223, 11_598, 157_767),
    "cius": (269, 34_556, 367_172),
    "deex": (444, 77_852, 784_229),
    "mendeley": (62, 195_598, 1_359_810),
    "troy": (200, 4_348, 23_077),
}

#: Table 5 — lines/cells per class over SAUS + CIUS + DeEx.
TABLE5_CLASSES: dict[str, tuple[int, int, float]] = {
    "metadata": (2_213, 2_479, 1.12),
    "header": (2_232, 19_047, 8.53),
    "group": (1_767, 6_143, 3.48),
    "data": (114_354, 1_202_058, 10.51),
    "derived": (1_406, 76_996, 54.76),
    "notes": (2_036, 2_445, 1.20),
}

_CLASS_ORDER = ("metadata", "header", "group", "data", "derived", "notes")


def _row(*values: float | None) -> dict[str, float | None]:
    scores = dict(zip(_CLASS_ORDER, values[:6]))
    scores["accuracy"] = values[6]
    scores["macro_avg"] = values[7]
    return scores

#: Table 6 (top) — line classification F1 per dataset and algorithm.
TABLE6_LINE: dict[str, dict[str, dict[str, float | None]]] = {
    "govuk": {
        "CRF-L": _row(.789, .379, .898, .991, .339, .752, .979, .733),
        "Pytheas-L": _row(.446, .444, .172, .986, None, .545, .970, .518),
        "Strudel-L": _row(.670, .774, .919, .989, .361, .797, .978, .751),
    },
    "saus": {
        "CRF-L": _row(.893, .651, .817, .963, .477, .980, .931, .797),
        "Pytheas-L": _row(.884, .768, .741, .973, None, .814, .944, .836),
        "Strudel-L": _row(.984, .960, .882, .987, .599, .984, .976, .899),
    },
    "cius": {
        "CRF-L": _row(.994, .961, .992, .996, .749, .988, .992, .947),
        "Pytheas-L": _row(.988, .867, .000, .970, None, .637, .943, .692),
        "Strudel-L": _row(.994, .972, .984, .996, .834, .978, .993, .960),
    },
    "deex": {
        "CRF-L": _row(.753, .373, .027, .970, .244, .480, .942, .475),
        "Pytheas-L": _row(.564, .406, .137, .980, None, .433, .957, .420),
        "Strudel-L": _row(.797, .807, .357, .989, .548, .761, .976, .710),
    },
}

#: Table 6 (bottom) — cell classification F1 per dataset and algorithm.
TABLE6_CELL: dict[str, dict[str, dict[str, float | None]]] = {
    "saus": {
        "Line-C": _row(.963, .915, .451, .970, .332, .888, .930, .753),
        "RNN-C": _row(.977, .925, .466, .956, .345, .902, .919, .762),
        "Strudel-C": _row(.987, .972, .752, .983, .689, .957, .968, .890),
    },
    "cius": {
        "Line-C": _row(.991, .973, .361, .929, .156, .937, .824, .725),
        "RNN-C": _row(.987, .976, .679, .904, .443, .963, .850, .825),
        "Strudel-C": _row(.993, .993, .916, .946, .465, .989, .895, .884),
    },
    "deex": {
        "Line-C": _row(.630, .625, .155, .981, .258, .520, .955, .528),
        "RNN-C": _row(.623, .772, .347, .952, .244, .413, .930, .559),
        "Strudel-C": _row(.689, .801, .444, .988, .683, .598, .977, .700),
    },
}

#: Table 7 — Troy out-of-domain F1 (train on SAUS+CIUS+DeEx).
TABLE7_TROY: dict[str, dict[str, float]] = {
    "Strudel-L": {
        "metadata": .935, "header": .798, "group": .667, "data": .937,
        "derived": .070, "notes": .971, "macro_avg": .730,
    },
    "Strudel-C": {
        "metadata": .921, "header": .840, "group": .232, "data": .936,
        "derived": .216, "notes": .952, "macro_avg": .683,
    },
}

#: Table 8 — Mendeley plain-text F1 (train on SAUS+CIUS+DeEx).
TABLE8_MENDELEY: dict[str, dict[str, float]] = {
    "Strudel-L": {
        "metadata": .623, "header": .406, "group": .263, "data": .999,
        "derived": .364, "notes": .448, "macro_avg": .517,
    },
    "Strudel-C": {
        "metadata": .245, "header": .629, "group": .303, "data": .999,
        "derived": .051, "notes": .380, "macro_avg": .435,
    },
}

#: Figure 3 (top) — selected line confusion entries the paper discusses.
FIGURE3_LINE_HIGHLIGHTS: dict[str, dict[tuple[str, str], float]] = {
    "govuk": {
        ("derived", "data"): 0.368,
        ("derived", "derived"): 0.514,
        ("derived", "header"): 0.114,
        ("data", "data"): 0.984,
    },
    "cius": {
        ("derived", "data"): 0.203,
        ("derived", "derived"): 0.797,
        ("data", "data"): 0.999,
    },
    "deex": {
        ("derived", "data"): 0.466,
        ("derived", "derived"): 0.498,
        ("header", "data"): 0.030,
        ("data", "data"): 0.986,
    },
}

#: Figure 3 (bottom) — selected cell confusion entries.
FIGURE3_CELL_HIGHLIGHTS: dict[str, dict[tuple[str, str], float]] = {
    "saus": {
        ("group", "data"): 0.290,
        ("group", "group"): 0.654,
        ("derived", "data"): 0.328,  # 1 - .666 - small terms (approx.)
        ("data", "data"): 0.992,
    },
    "cius": {
        ("group", "group"): 0.856,
        ("group", "data"): 0.144,
        ("data", "data"): 0.987,
    },
    "deex": {
        ("group", "data"): 0.449,
        ("group", "group"): 0.400,
        ("header", "data"): 0.224,
        ("data", "data"): 0.992,
    },
}

#: Figure 4 — the most-important-feature claims the paper highlights.
FIGURE4_CLAIMS: tuple[str, ...] = (
    "line class probability is the top feature for notes/metadata/header",
    "row empty-cell ratio is important for notes and metadata",
    "column empty-cell ratio and column position dominate for group",
    "is_aggregation dominates for derived",
    "column derived keywords matter for derived; row keywords do not",
)

# ----------------------------------------------------------------------
# Shape claims
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Claim:
    """One shape claim of the paper, tested on one experiment's result.

    ``experiment`` names the :mod:`repro.eval.experiments` function
    whose result ``holds`` reads.  With ``datasets`` set, ``holds``
    runs once per listed dataset present in the result, on that
    dataset's entry, so a one-dataset slice checks that dataset only.
    """

    table: str
    name: str
    experiment: str
    holds: Callable[[Any], bool]
    datasets: tuple[str, ...] = ()

    @property
    def label(self) -> str:
        """The table and the claim, as EXPERIMENTS.md prints them."""
        return f"{self.table}: {self.name}"

    def failure(self, result: Any) -> str | None:
        """Why the claim fails on ``result``, or ``None`` when it holds.

        An absent input, such as a class missing from a small corpus,
        fails the claim rather than raising.
        """
        if not self.datasets:
            return _failure(self.holds, result)
        reasons = [
            f"{dataset}: {reason}"
            for dataset in self.datasets
            if dataset in result
            and (reason := _failure(self.holds, result[dataset])) is not None
        ]
        return "; ".join(reasons) or None


def _failure(holds: Callable[[Any], bool], value: Any) -> str | None:
    try:
        return None if holds(value) else "fails"
    except LookupError as missing:
        return f"input missing ({missing!r})"


def failed_claims(table: str, result: Any) -> list[str]:
    """Each claim of ``table`` that fails on ``result``, with why."""
    return [
        f"{claim.label}: {reason}"
        for claim in CLAIMS
        if claim.table == table
        and (reason := claim.failure(result)) is not None
    ]


_DATA = CLASS_TO_INDEX[CellClass.DATA]
_DERIVED = CLASS_TO_INDEX[CellClass.DERIVED]


def _macro(algorithms: dict, name: str) -> float:
    return algorithms[name].scores.macro_f1


def _f1(algorithms: dict, name: str, klass: CellClass) -> float:
    return algorithms[name].scores.per_class_f1[klass]


def _lines_per_file(summary: dict) -> dict[str, float]:
    return {
        name: n_lines / files for name, (files, n_lines, _) in summary.items()
    }


def _strudel_l_near_best(line_results: dict) -> bool:
    """Strudel-L within 0.02 of the best macro-F1 on all but one dataset."""
    wins = sum(
        _macro(algorithms, "Strudel-L")
        >= max(cv.scores.macro_f1 for cv in algorithms.values()) - 0.02
        for algorithms in line_results.values()
    )
    return wins >= len(line_results) - 1


def _derived_drifts_to_data(matrix: np.ndarray) -> bool:
    """When derived lines are misclassified, data is their main sink."""
    off_diagonal = matrix[_DERIVED].copy()
    off_diagonal[_DERIVED] = 0.0
    if off_diagonal.sum() > 0.02:
        return int(np.argmax(off_diagonal)) == _DATA
    return True


def _specific_to_derived(shares: dict, feature: str) -> bool:
    """Derived's share of ``feature`` ≥ every other class's − 0.02."""
    return all(
        shares["derived"][feature] >= other.get(feature, 0.0) - 0.02
        for class_name, other in shares.items()
        if class_name != "derived"
    )


def _probability_mass(shares: dict[str, float]) -> float:
    return sum(
        share
        for name, share in shares.items()
        if name.startswith("line_class_probability")
    )


#: Every shape claim on an experiment the EXPERIMENTS.md generator runs.
CLAIMS: tuple[Claim, ...] = (
    # Table 3: degree 1 dominates, higher degrees vanish.
    Claim("Table 3", "degree 1 > 60 %", "diversity_table",
          lambda shares: shares[1] > 60.0, tuple(TABLE3_DIVERSITY)),
    Claim("Table 3", "degrees 1+2 > 95 %", "diversity_table",
          lambda shares: shares[1] + shares[2] > 95.0,
          tuple(TABLE3_DIVERSITY)),
    Claim("Table 3", "degrees 4+5 < 2 %", "diversity_table",
          lambda shares: shares[4] + shares[5] < 2.0,
          tuple(TABLE3_DIVERSITY)),
    # Table 4: the corpora keep the paper's relative scale.
    Claim("Table 4", "Mendeley has the most lines per file",
          "dataset_summary",
          lambda summary: _lines_per_file(summary)["mendeley"]
          == max(_lines_per_file(summary).values())),
    Claim("Table 4", "Troy has the fewest lines per file",
          "dataset_summary",
          lambda summary: _lines_per_file(summary)["troy"]
          == min(_lines_per_file(summary).values())),
    Claim("Table 4", "cells > lines in every corpus", "dataset_summary",
          lambda summary: all(
              n_cells > n_lines for _, n_lines, n_cells in summary.values()
          )),
    # Table 5: data dominates; derived lines are the widest, metadata
    # and notes the narrowest.
    Claim("Table 5", "data has the most lines", "class_distribution",
          lambda rows: rows["data"][0]
          == max(row[0] for row in rows.values())),
    Claim("Table 5", "derived cells/line > metadata's", "class_distribution",
          lambda rows: rows["derived"][2] > rows["metadata"][2]),
    Claim("Table 5", "derived cells/line > notes'", "class_distribution",
          lambda rows: rows["derived"][2] > rows["notes"][2]),
    Claim("Table 5", "metadata cells/line < 3.0", "class_distribution",
          lambda rows: rows["metadata"][2] < 3.0),
    Claim("Table 5", "notes cells/line < 3.0", "class_distribution",
          lambda rows: rows["notes"][2] < 3.0),
    # Table 6 (top): Strudel-L leads, Pytheas-L trails (the paper's
    # GovUK gap between CRF-L and Strudel-L is only 0.018), and derived
    # is among the two hardest classes (on DeEx the numeric headers
    # compete for last place).
    Claim("Table 6 lines", "Strudel-L macro ≥ CRF-L − 0.03",
          "line_comparison",
          lambda a: _macro(a, "Strudel-L") >= _macro(a, "CRF-L") - 0.03,
          tuple(TABLE6_LINE)),
    Claim("Table 6 lines", "Strudel-L macro > Pytheas-L", "line_comparison",
          lambda a: _macro(a, "Strudel-L") > _macro(a, "Pytheas-L"),
          tuple(TABLE6_LINE)),
    Claim("Table 6 lines",
          "Strudel-L derived F1 ≤ its second-lowest class F1 + 1e-9",
          "line_comparison",
          lambda a: _f1(a, "Strudel-L", CellClass.DERIVED)
          <= sorted(a["Strudel-L"].scores.per_class_f1.values())[1] + 1e-9,
          tuple(TABLE6_LINE)),
    Claim("Table 6 lines", "Strudel-L data F1 > 0.9", "line_comparison",
          lambda a: _f1(a, "Strudel-L", CellClass.DATA) > 0.9,
          tuple(TABLE6_LINE)),
    Claim("Table 6 lines", "Pytheas-L data F1 > 0.9", "line_comparison",
          lambda a: _f1(a, "Pytheas-L", CellClass.DATA) > 0.9,
          tuple(TABLE6_LINE)),
    Claim("Table 6 lines",
          "Strudel-L macro ≥ best − 0.02 on ≥ n−1 datasets",
          "line_comparison", _strudel_l_near_best),
    # Table 6 (bottom): Strudel-C leads; majority extension costs
    # Line-C the group cells that share lines with data.
    Claim("Table 6 cells", "Strudel-C macro ≥ Line-C − 0.02",
          "cell_comparison",
          lambda a: _macro(a, "Strudel-C") >= _macro(a, "Line-C") - 0.02,
          tuple(TABLE6_CELL)),
    Claim("Table 6 cells", "Strudel-C macro ≥ RNN-C − 0.02",
          "cell_comparison",
          lambda a: _macro(a, "Strudel-C") >= _macro(a, "RNN-C") - 0.02,
          tuple(TABLE6_CELL)),
    Claim("Table 6 cells", "Strudel-C group F1 ≥ Line-C's",
          "cell_comparison",
          lambda a: _f1(a, "Strudel-C", CellClass.GROUP)
          >= _f1(a, "Line-C", CellClass.GROUP), tuple(TABLE6_CELL)),
    Claim("Table 6 cells", "Strudel-C derived F1 ≥ Line-C's − 0.02",
          "cell_comparison",
          lambda a: _f1(a, "Strudel-C", CellClass.DERIVED)
          >= _f1(a, "Line-C", CellClass.DERIVED) - 0.02, tuple(TABLE6_CELL)),
    # Table 7: derived collapses out of domain (paper: 0.070 line,
    # 0.216 cell; ~0.9 in domain at this scale) because Troy's derived
    # lines carry no anchoring keywords; data and notes stay solid.
    Claim("Table 7", "Strudel-L derived F1 is its lowest class F1",
          "out_of_domain",
          lambda r: r["Strudel-L"].per_class_f1[CellClass.DERIVED]
          == min(r["Strudel-L"].per_class_f1.values())),
    Claim("Table 7", "Strudel-L derived F1 ≤ 0.7", "out_of_domain",
          lambda r: r["Strudel-L"].per_class_f1[CellClass.DERIVED] <= 0.7),
    Claim("Table 7", "Strudel-L data F1 > 0.85", "out_of_domain",
          lambda r: r["Strudel-L"].per_class_f1[CellClass.DATA] > 0.85),
    Claim("Table 7", "Strudel-L notes F1 > 0.7", "out_of_domain",
          lambda r: r["Strudel-L"].per_class_f1[CellClass.NOTES] > 0.7),
    Claim("Table 7", "Strudel-C data F1 > 0.85", "out_of_domain",
          lambda r: r["Strudel-C"].per_class_f1[CellClass.DATA] > 0.85),
    # Table 8: data is near-perfect on data-dominated files while the
    # minority classes degrade under the domain shift.
    Claim("Table 8", "Strudel-L data F1 > 0.98", "plain_text",
          lambda r: r["Strudel-L"].per_class_f1[CellClass.DATA] > 0.98),
    Claim("Table 8",
          "Strudel-L mean F1 of metadata, notes and group < its data F1",
          "plain_text",
          lambda r: sum(
              r["Strudel-L"].per_class_f1[klass]
              for klass in (CellClass.METADATA, CellClass.NOTES,
                            CellClass.GROUP)
          ) / 3 < r["Strudel-L"].per_class_f1[CellClass.DATA]),
    Claim("Table 8", "Strudel-L macro F1 < 0.95", "plain_text",
          lambda r: r["Strudel-L"].macro_f1 < 0.95),
    # Figure 3: the diagonal dominates for data, and misclassified
    # minority lines drift to data, derived most of all.
    Claim("Fig. 3 lines", "Strudel-L data→data > 0.95", "line_comparison",
          lambda a: a["Strudel-L"].confusion[_DATA, _DATA] > 0.95,
          tuple(FIGURE3_LINE_HIGHLIGHTS)),
    Claim("Fig. 3 lines",
          "derived's largest sink is data when > 0.02 of it is misclassified",
          "line_comparison",
          lambda a: _derived_drifts_to_data(a["Strudel-L"].confusion),
          tuple(FIGURE3_LINE_HIGHLIGHTS)),
    Claim("Fig. 3 cells", "Strudel-C data→data > 0.9", "cell_comparison",
          lambda a: a["Strudel-C"].confusion[_DATA, _DATA] > 0.9,
          tuple(FIGURE3_CELL_HIGHLIGHTS)),
    Claim("Fig. 3 cells", "every confusion row sums to 1 (±1e-9) or 0",
          "cell_comparison",
          lambda a: all(
              abs(total - 1.0) <= 1e-9 or total == 0.0
              for total in a["Strudel-C"].confusion.sum(axis=1)
          ),
          tuple(FIGURE3_CELL_HIGHLIGHTS)),
    # Figure 4: DerivedCoverage and is_aggregation are derived-specific
    # signals, and the line-class probabilities carry the
    # line-homogeneous classes.
    Claim("Fig. 4 lines",
          "derived's `derived_coverage` share ≥ every other class's − 0.02",
          "line_feature_importance",
          lambda shares: _specific_to_derived(shares, "derived_coverage")),
    Claim("Fig. 4 lines", "`aggregation_word` is in derived's top 3",
          "line_feature_importance",
          lambda shares: shares["derived"]["aggregation_word"]
          >= sorted(shares["derived"].values(), reverse=True)[:3][-1]),
    Claim("Fig. 4 cells", "derived's `is_aggregation` share ≥ 0.03",
          "cell_feature_importance",
          lambda shares: shares["derived"]["is_aggregation"] >= 0.03),
    Claim("Fig. 4 cells",
          "derived's `is_aggregation` share ≥ every other class's − 0.02",
          "cell_feature_importance",
          lambda shares: _specific_to_derived(shares, "is_aggregation")),
    Claim("Fig. 4 cells",
          "`line_class_probability*` mass ≥ 0.1 for notes and for metadata",
          "cell_feature_importance",
          lambda shares: all(
              _probability_mass(shares[class_name]) >= 0.1
              for class_name in ("notes", "metadata")
          )),
    # S1 (Section 6.1.2): "random forest consistently outperformed the
    # other candidate algorithms"; at reduced scale the gap can sit
    # inside fold noise.
    Claim("S1", "random forest macro ≥ each other backbone − 0.04",
          "classifier_ablation",
          lambda r: all(
              r["random_forest"].scores.macro_f1
              >= r[name].scores.macro_f1 - 0.04
              for name in ("naive_bayes", "knn", "svm")
          )),
    # S2 (Section 4): the global features showed no positive impact.
    Claim("S2", "`with_global` macro ≤ `local_only` macro + 0.03",
          "global_feature_ablation",
          lambda r: r["with_global"].scores.macro_f1
          <= r["local_only"].scores.macro_f1 + 0.03),
    # S4 (Section 6.1.2): no substantial difference across delta and
    # coverage; the defaults stay within reach of the best setting.
    Claim("S4", "derived F1 spread over (δ, coverage) < 0.35",
          "derived_parameter_sweep",
          lambda sweep: max(sweep.values()) - min(sweep.values()) < 0.35),
    Claim("S4", "(δ 0.1, coverage 0.5) ≥ best − 0.25",
          "derived_parameter_sweep",
          lambda sweep: sweep[(0.1, 0.5)] >= max(sweep.values()) - 0.25),
    # S4b: out of domain, keyword anchoring leaves derived recall on
    # the table that the exhaustive search recovers.
    Claim("S4b", "exhaustive derived F1 ≥ keyword", "anchor_mode_ablation",
          lambda f1: f1["exhaustive"] >= f1["keyword"]),
    # S5: dropping DerivedCoverage costs derived F1, and the content
    # features carry more of the signal than it does.
    Claim("S5 lines", "full derived F1 ≥ `without_computational`'s − 0.06",
          "feature_group_ablation",
          lambda r: _f1(r, "all", CellClass.DERIVED)
          >= _f1(r, "without_computational", CellClass.DERIVED) - 0.06),
    Claim("S5 lines",
          "`without_content` macro ≤ `without_computational` macro + 0.02",
          "feature_group_ablation",
          lambda r: _macro(r, "without_content")
          <= _macro(r, "without_computational") + 0.02),
)
