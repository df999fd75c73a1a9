"""R001 — unseeded randomness.

Reproducibility is the whole point of this repository: identical
seeds must give byte-identical forests, folds and corpora.  That only
holds if *every* random draw flows from an explicitly seeded
``numpy.random.Generator``.  The blessed path is
``repro.util.rng.as_generator`` / ``spawn``; that module is the single
place allowed to call ``default_rng``.

Flagged everywhere else:

* any call through the legacy global-state APIs — ``np.random.rand``,
  ``np.random.seed``, ``random.random``, ``random.shuffle``, … — which
  are unseeded by construction (or worse, mutate global state);
* ``default_rng()`` / ``np.random.default_rng(None)`` — an explicitly
  *fresh* entropy pull;
* ``random.Random()`` without a seed argument.

``np.random.default_rng(some_variable)`` outside the RNG module is
still flagged: call sites should go through ``as_generator`` so the
"seed or shared generator" convention stays in one place.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.astutil import call_name, is_none_constant
from repro.analysis.findings import Finding
from repro.analysis.registry import Rule, register
from repro.analysis.runner import ModuleInfo

#: Modules allowed to talk to numpy's seeding machinery directly.
EXEMPT_MODULES = frozenset({"repro.util.rng"})

#: numpy constructors that *consume* seeds rather than draw numbers.
_NP_SEED_CONSUMERS = frozenset(
    {"Generator", "SeedSequence", "PCG64", "PCG64DXSM", "Philox",
     "MT19937", "SFC64", "BitGenerator", "RandomState"}
)


@register
class UnseededRandomRule(Rule):
    rule_id = "R001"
    title = "unseeded or global-state randomness"
    rationale = (
        "Every stochastic component must thread an explicit seed "
        "through repro.util.rng so experiments reproduce bit-for-bit; "
        "global-state and fresh-entropy APIs break that silently."
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if module.module in EXEMPT_MODULES:
            return
        for node in module.nodes:
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            if name is None:
                continue
            message = self._diagnose(name, node)
            if message is not None:
                yield self.finding(
                    module, node.lineno, node.col_offset, message
                )

    # ------------------------------------------------------------------
    def _diagnose(self, name: str, node: ast.Call) -> str | None:
        tail = name.rsplit(".", 1)[-1]
        if name.startswith(("np.random.", "numpy.random.")):
            if tail in _NP_SEED_CONSUMERS:
                return None
            if tail == "default_rng":
                return (
                    "call repro.util.rng.as_generator(seed) instead of "
                    "default_rng at call sites"
                )
            return (
                f"legacy global-state API {name}(); draw from an "
                "explicitly seeded Generator instead"
            )
        if name == "default_rng":
            if self._missing_seed(node):
                return (
                    "default_rng() without a seed pulls fresh entropy; "
                    "pass a seed or use repro.util.rng.as_generator"
                )
            return None
        if name.startswith("random.") and name.count(".") == 1:
            if tail in {"Random", "SystemRandom"}:
                if tail == "Random" and not self._missing_seed(node):
                    return None
                return f"{name}() without an explicit seed"
            return (
                f"stdlib {name}() uses hidden global state; use a "
                "seeded numpy Generator from repro.util.rng"
            )
        return None

    @staticmethod
    def _missing_seed(node: ast.Call) -> bool:
        if node.args and not is_none_constant(node.args[0]):
            return False
        for keyword in node.keywords:
            if keyword.arg == "seed" and not is_none_constant(
                keyword.value
            ):
                return False
        return not node.args or is_none_constant(node.args[0])
