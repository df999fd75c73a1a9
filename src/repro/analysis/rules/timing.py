"""R006 — wall-clock timing of durations.

``time.time()`` reads the wall clock, which NTP can step backwards or
smear mid-measurement; an elapsed-time computed from two wall-clock
readings can come out negative or wildly wrong.  Every duration in
this repository — bench stages, CV fold timers, report footers — must
come from the monotonic ``time.perf_counter()`` (or
``time.monotonic()``), which is what :mod:`repro.obs` spans use.

Flagged:

* any call spelled ``time.time()``;
* ``from time import time`` (which hides the later bare ``time()``
  call from call-site inspection).

Wall-clock *timestamps* (file mtimes, log dates) have no legitimate
call sites in ``src/repro`` today; if one appears, it should read
``datetime.now`` so the intent is explicit rather than riding on
``time.time``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.astutil import call_name
from repro.analysis.findings import Finding
from repro.analysis.registry import Rule, register
from repro.analysis.runner import ModuleInfo


@register
class WallClockTimingRule(Rule):
    rule_id = "R006"
    title = "wall-clock time.time() used for timing"
    rationale = (
        "time.time() is not monotonic: NTP adjustments can step it "
        "backwards mid-measurement, so durations derived from it can "
        "be negative or wrong. Use time.perf_counter() (as the "
        "repro.obs spans do) for every elapsed-time measurement."
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in module.nodes:
            if isinstance(node, ast.Call):
                if call_name(node) == "time.time":
                    yield self.finding(
                        module, node.lineno, node.col_offset,
                        "time.time() call; use time.perf_counter() "
                        "for durations",
                    )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "time" and any(
                    alias.name == "time" for alias in node.names
                ):
                    yield self.finding(
                        module, node.lineno, node.col_offset,
                        "'from time import time' hides wall-clock "
                        "reads; import the module and call "
                        "time.perf_counter() for durations",
                    )
