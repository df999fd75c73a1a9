"""Static-analysis gate for the repro codebase (``repro lint``).

A pure-stdlib (:mod:`ast`-based) invariant linter.  The test suite can
only see behaviour; these rules see *conventions* that behaviour tests
cannot enforce.

Per-module rules look at one file at a time:

* every random draw threads an explicit seed (R001),
* the package layering stays a DAG (R002),
* feature functions keep their numeric contract (R003),
* nothing iterates an unordered source into training data (R004),
* no mutable default arguments (R005).

Whole-program rules (the R100 series) run over a
:class:`~repro.analysis.graph.ProjectGraph` — per-module symbol
tables, an import graph and a call graph that resolves methods,
dict-dispatch and values registered through setters — plus the
interprocedural raise-propagation analysis in
:mod:`repro.analysis.flow`:

* bytes become a ``Table`` only through ``repro.io.ingest`` (R101),
* exceptions escaping public APIs are typed ``ReproError``s (R102),
* tracer span names match the declared pipeline stages (R103),
* metric names come from the declared registry (R104),
* lock-guarded attributes are guarded at every mutation site (R105).

``repro lint src/repro`` runs all rules and exits non-zero on any
finding (``--no-graph`` skips the R100 series); the clean state is a
tier-1 gate via ``tests/test_lint_clean.py``.  Individual findings can
be waived in place with a ``# repro: noqa[RULE-ID]`` comment on the
offending line.
"""

from repro.analysis.findings import Finding
from repro.analysis.registry import (
    ProjectRule,
    Rule,
    all_rules,
    get_rule,
    register,
)
from repro.analysis.reporters import render_json, render_text
from repro.analysis.runner import (
    ModuleInfo,
    lint_modules,
    lint_paths,
    lint_source,
    lint_sources,
)

__all__ = [
    "Finding",
    "ModuleInfo",
    "ProjectRule",
    "Rule",
    "all_rules",
    "get_rule",
    "lint_modules",
    "lint_paths",
    "lint_source",
    "lint_sources",
    "register",
    "render_json",
    "render_text",
]
