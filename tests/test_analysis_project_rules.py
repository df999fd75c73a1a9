"""Fixture tests for the whole-program (R100-series) rules.

Each rule gets at least one triggering and one clean multi-module
fixture, built in memory through :func:`lint_sources`.  Fixture module
names mimic the real package layout (``repro.io.ingest``,
``repro.obs.metrics`` …) because the rules anchor on those names.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import lint_paths, lint_sources


def rule_ids(findings) -> list[str]:
    return [f.rule_id for f in findings]


class TestR101IngestGate:
    TYPES = "class Table:\n    pass\n"
    INGEST = (
        "from repro.types import Table\n"
        "\n"
        "def ingest_bytes(raw):\n"
        "    text = raw.decode('utf-8')\n"
        "    return Table()\n"
    )

    def test_decode_to_table_outside_ingest_flagged(self):
        findings = lint_sources({
            "repro.types": self.TYPES,
            "repro.io.ingest": self.INGEST,
            "repro.sneaky": (
                "from repro.types import Table\n"
                "\n"
                "def shortcut(raw):\n"
                "    text = raw.decode('utf-8')\n"
                "    return Table()\n"
            ),
        }, select=["R101"])
        assert rule_ids(findings) == ["R101"]
        assert findings[0].path == "<repro.sneaky>"
        assert findings[0].line == 4  # the .decode() call

    def test_ingest_module_itself_is_exempt(self):
        findings = lint_sources({
            "repro.types": self.TYPES,
            "repro.io.ingest": self.INGEST,
        }, select=["R101"])
        assert findings == []

    def test_decode_without_table_is_clean(self):
        findings = lint_sources({
            "repro.types": self.TYPES,
            "repro.io.ingest": self.INGEST,
            "repro.textonly": (
                "def sniff(raw):\n"
                "    return raw.decode('utf-8').splitlines()\n"
            ),
        }, select=["R101"])
        assert findings == []

    def test_delegating_to_ingest_is_clean(self):
        # Decoding for a side purpose while the Table comes from the
        # front door: the boundary is opaque, so no finding.
        findings = lint_sources({
            "repro.types": self.TYPES,
            "repro.io.ingest": self.INGEST,
            "repro.caller": (
                "from repro.io.ingest import ingest_bytes\n"
                "\n"
                "def load(raw):\n"
                "    preview = raw[:40].decode('utf-8', 'replace')\n"
                "    return preview, ingest_bytes(raw)\n"
            ),
        }, select=["R101"])
        assert findings == []


class TestR102UntypedEscape:
    ERRORS = (
        "class ReproError(Exception):\n    pass\n"
        "class ParseError(ReproError):\n    pass\n"
    )

    def test_raw_valueerror_escaping_entry_flagged(self):
        findings = lint_sources({
            "repro.errors": self.ERRORS,
            "repro.io.ingest": (
                "def _parse(s):\n"
                "    raise ValueError('bad')\n"
                "\n"
                "def ingest_text(s):\n"
                "    return _parse(s)\n"
            ),
        }, select=["R102"])
        assert rule_ids(findings) == ["R102"]
        assert findings[0].path == "<repro.io.ingest>"
        assert findings[0].line == 2  # the origin raise, not the entry

    def test_typed_error_is_clean(self):
        findings = lint_sources({
            "repro.errors": self.ERRORS,
            "repro.io.ingest": (
                "from repro.errors import ParseError\n"
                "\n"
                "def _parse(s):\n"
                "    raise ParseError('bad')\n"
                "\n"
                "def ingest_text(s):\n"
                "    return _parse(s)\n"
            ),
        }, select=["R102"])
        assert findings == []

    def test_caught_at_boundary_is_clean(self):
        findings = lint_sources({
            "repro.errors": self.ERRORS,
            "repro.io.ingest": (
                "from repro.errors import ParseError\n"
                "\n"
                "def _parse(s):\n"
                "    raise ValueError('bad')\n"
                "\n"
                "def ingest_text(s):\n"
                "    try:\n"
                "        return _parse(s)\n"
                "    except ValueError as error:\n"
                "        raise ParseError(str(error))\n"
            ),
        }, select=["R102"])
        assert findings == []

    def test_noqa_on_multiline_raise_suppresses(self):
        # Suppression anchors at the statement's first physical line,
        # which is where the finding lands for a multi-line raise.
        source = (
            "def _parse(s):\n"
            "    raise ValueError(  # repro: noqa[R102]\n"
            "        'a long message explaining '\n"
            "        'what went wrong'\n"
            "    )\n"
            "\n"
            "def ingest_text(s):\n"
            "    return _parse(s)\n"
        )
        flagged = lint_sources(
            {"repro.io.ingest": source.replace("  # repro: noqa[R102]", "")},
            select=["R102"],
        )
        assert rule_ids(flagged) == ["R102"]
        waived = lint_sources({"repro.io.ingest": source}, select=["R102"])
        assert waived == []


class TestR103Spans:
    TRACE = (
        "PIPELINE_STAGES = ('parsing', 'profile')\n"
        "AUX_SPANS = ('fit',)\n"
    )

    def test_undeclared_span_name_flagged(self):
        findings = lint_sources({
            "repro.obs.trace": self.TRACE,
            "repro.core.work": (
                "def run(tracer):\n"
                "    with tracer.span('parsing'):\n"
                "        pass\n"
                "    with tracer.span('profile'):\n"
                "        pass\n"
                "    with tracer.span('parzing'):\n"
                "        pass\n"
            ),
        }, select=["R103"])
        assert rule_ids(findings) == ["R103"]
        assert findings[0].line == 6
        assert "parzing" in findings[0].message

    def test_uninstrumented_stage_flagged_at_declaration(self):
        findings = lint_sources({
            "repro.obs.trace": self.TRACE,
            "repro.core.work": (
                "def run(tracer):\n"
                "    with tracer.span('parsing'):\n"
                "        pass\n"
            ),
        }, select=["R103"])
        assert rule_ids(findings) == ["R103"]
        assert findings[0].path == "<repro.obs.trace>"
        assert "profile" in findings[0].message

    def test_full_coverage_with_aux_is_clean(self):
        findings = lint_sources({
            "repro.obs.trace": self.TRACE,
            "repro.core.work": (
                "def run(tracer):\n"
                "    with tracer.span('fit'):\n"
                "        with tracer.span('parsing'):\n"
                "            pass\n"
                "        with tracer.span('profile'):\n"
                "            pass\n"
            ),
        }, select=["R103"])
        assert findings == []

    def test_single_module_scope_skips_coverage(self):
        # Linting just the declaring module must not report the whole
        # pipeline as uninstrumented.
        findings = lint_sources(
            {"repro.obs.trace": self.TRACE}, select=["R103"]
        )
        assert findings == []

    def test_dynamic_span_names_ignored(self):
        findings = lint_sources({
            "repro.obs.trace": "PIPELINE_STAGES = ('parsing',)\n",
            "repro.core.work": (
                "def run(tracer, name):\n"
                "    with tracer.span('parsing'):\n"
                "        pass\n"
                "    with tracer.span(name):\n"
                "        pass\n"
            ),
        }, select=["R103"])
        assert findings == []


class TestR104MetricNames:
    METRICS = (
        "METRIC_NAMES = ('cache.hits',)\n"
        "\n"
        "class Metrics:\n"
        "    def increment(self, name, value=1):\n"
        "        pass\n"
        "\n"
        "_METRICS = Metrics()\n"
        "\n"
        "def get_metrics():\n"
        "    return _METRICS\n"
    )

    def run(self, body: str):
        return lint_sources({
            "repro.obs.metrics": self.METRICS,
            "repro.perf.work": (
                "from repro.obs.metrics import get_metrics\n"
                "\n"
                f"def work(key):\n{body}"
            ),
        }, select=["R104"])

    def test_declared_literal_is_clean(self):
        assert self.run("    get_metrics().increment('cache.hits')\n") == []

    def test_undeclared_literal_flagged(self):
        findings = self.run("    get_metrics().increment('cache.hitz')\n")
        assert rule_ids(findings) == ["R104"]
        assert "cache.hitz" in findings[0].message

    @pytest.mark.parametrize(
        "name",
        ["f'{key}.size'", "f'cache.{key}'"],
        ids=["unprefixed", "prefixed"],
    )
    def test_unprefixed_fstring_flagged(self, name):
        findings = self.run(f"    get_metrics().increment({name})\n")
        assert rule_ids(findings) == ["R104"]

    def test_variable_name_flagged(self):
        findings = self.run("    get_metrics().increment(key)\n")
        assert rule_ids(findings) == ["R104"]

    def test_local_binding_still_resolved(self):
        body = (
            "    m = get_metrics()\n"
            "    m.increment('cache.hitz')\n"
        )
        findings = self.run(body)
        assert rule_ids(findings) == ["R104"]

    def test_unrelated_receiver_ignored(self):
        # .increment on something that is not the Metrics registry is
        # out of scope — no registry claim to check.
        body = "    key.increment('whatever')\n"
        assert self.run(body) == []


class TestR105LockDiscipline:
    def run(self, cls_body: str):
        return lint_sources({
            "repro.perf.box": (
                "import threading\n"
                "\n"
                "class Box:\n"
                "    def __init__(self):\n"
                "        self._lock = threading.Lock()\n"
                "        self._items = []\n"
                f"{cls_body}"
            ),
        }, select=["R105"])

    def test_unlocked_mutation_flagged(self):
        findings = self.run(
            "    def add(self, x):\n"
            "        with self._lock:\n"
            "            self._items.append(x)\n"
            "    def reset(self):\n"
            "        self._items = []\n"
        )
        assert rule_ids(findings) == ["R105"]
        assert findings[0].line == 11  # the unlocked assignment

    def test_all_mutations_locked_is_clean(self):
        findings = self.run(
            "    def add(self, x):\n"
            "        with self._lock:\n"
            "            self._items.append(x)\n"
            "    def reset(self):\n"
            "        with self._lock:\n"
            "            self._items = []\n"
        )
        assert findings == []

    def test_lock_safe_helper_is_clean(self):
        # A private helper whose every call site holds the lock may
        # mutate without re-acquiring.
        findings = self.run(
            "    def add(self, x):\n"
            "        with self._lock:\n"
            "            self._evict()\n"
            "            self._items.append(x)\n"
            "    def _evict(self):\n"
            "        self._items.pop()\n"
        )
        assert findings == []

    def test_helper_with_unlocked_call_site_flagged(self):
        findings = self.run(
            "    def add(self, x):\n"
            "        with self._lock:\n"
            "            self._items.append(x)\n"
            "    def _evict(self):\n"
            "        self._items.pop()\n"
            "    def shrink(self):\n"
            "        self._evict()\n"
        )
        assert rule_ids(findings) == ["R105"]

    def test_never_locked_attribute_is_clean(self):
        # An attribute the class never locks is not shared state under
        # this rule — only lock-inconsistency is flagged.
        findings = self.run(
            "    def add(self, x):\n"
            "        self._items.append(x)\n"
            "    def reset(self):\n"
            "        self._items = []\n"
        )
        assert findings == []

    def test_init_is_exempt(self):
        findings = self.run(
            "    def add(self, x):\n"
            "        with self._lock:\n"
            "            self._items.append(x)\n"
        )
        assert findings == []


class TestR105ModuleLockDiscipline:
    """The module-global half of R105 (PR 9): a module-level lock
    guarding module-level state binds every function in the module —
    methods included, with no ``__init__`` exemption."""

    HEADER = (
        "import threading\n"
        "\n"
        "_LOCK = threading.Lock()\n"
        "_CACHE = {}\n"
        "_HITS = 0\n"
        "\n"
    )

    def run(self, body: str):
        return lint_sources(
            {"repro.dialect.memo": f"{self.HEADER}{body}"},
            select=["R105"],
        )

    def test_unlocked_subscript_mutation_flagged(self):
        findings = self.run(
            "def put(key, value):\n"
            "    with _LOCK:\n"
            "        _CACHE[key] = value\n"
            "def sneak(key, value):\n"
            "    _CACHE[key] = value\n"
        )
        assert rule_ids(findings) == ["R105"]
        assert "_CACHE" in findings[0].message
        assert "_LOCK" in findings[0].message

    def test_unlocked_global_rebind_flagged(self):
        findings = self.run(
            "def bump():\n"
            "    global _HITS\n"
            "    with _LOCK:\n"
            "        _HITS += 1\n"
            "def bad_bump():\n"
            "    global _HITS\n"
            "    _HITS += 1\n"
        )
        assert rule_ids(findings) == ["R105"]

    def test_all_mutations_locked_is_clean(self):
        findings = self.run(
            "def put(key, value):\n"
            "    global _HITS\n"
            "    with _LOCK:\n"
            "        _CACHE[key] = value\n"
            "        _HITS += 1\n"
            "def reset():\n"
            "    global _HITS\n"
            "    with _LOCK:\n"
            "        _CACHE.clear()\n"
            "        _HITS = 0\n"
        )
        assert findings == []

    def test_lock_safe_module_helper_is_clean(self):
        # The detector's `_memo_put`/eviction shape: an underscore
        # helper whose every call site holds the lock.
        findings = self.run(
            "def put(key, value):\n"
            "    with _LOCK:\n"
            "        _CACHE[key] = value\n"
            "        _evict()\n"
            "def _evict():\n"
            "    while len(_CACHE) > 4:\n"
            "        _CACHE.popitem()\n"
        )
        assert findings == []

    def test_helper_with_unlocked_call_site_flagged(self):
        findings = self.run(
            "def put(key, value):\n"
            "    with _LOCK:\n"
            "        _CACHE[key] = value\n"
            "        _evict()\n"
            "def _evict():\n"
            "    _CACHE.popitem()\n"
            "def shrink():\n"
            "    _evict()\n"
        )
        assert rule_ids(findings) == ["R105"]

    def test_local_shadowing_is_ignored(self):
        findings = self.run(
            "def put(key, value):\n"
            "    with _LOCK:\n"
            "        _CACHE[key] = value\n"
            "def scratch(key, value):\n"
            "    _CACHE = {}\n"
            "    _CACHE[key] = value\n"
            "    return _CACHE\n"
        )
        assert findings == []

    def test_init_has_no_module_level_exemption(self):
        # A constructor touching *module* state is not construction of
        # the object that owns the lock; it races like any function.
        findings = self.run(
            "def put(key, value):\n"
            "    with _LOCK:\n"
            "        _CACHE[key] = value\n"
            "class Registry:\n"
            "    def __init__(self):\n"
            "        _CACHE['registry'] = self\n"
        )
        assert rule_ids(findings) == ["R105"]

    def test_never_locked_module_state_is_clean(self):
        findings = self.run(
            "def put(key, value):\n"
            "    _CACHE[key] = value\n"
            "def drop(key):\n"
            "    _CACHE.pop(key, None)\n"
        )
        assert findings == []

    def test_import_time_initialization_is_not_a_mutation(self):
        # The top-level assignments creating the state are the one
        # place that cannot hold the lock (it may not exist yet).
        findings = self.run(
            "_SEED = {'a': 1}\n"
            "def read(key):\n"
            "    with _LOCK:\n"
            "        return _CACHE.get(key, _SEED.get(key))\n"
        )
        assert findings == []


class TestRunnerInteractions:
    def test_unparseable_file_fails_even_with_select(self, tmp_path):
        # R000 is reserved and cannot be deselected: a broken file must
        # fail the gate no matter which rules were asked for.
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n", encoding="utf-8")
        findings = lint_paths([bad], select=["R005"])
        assert rule_ids(findings) == ["R000"]

    def test_no_graph_skips_project_rules(self):
        sources = {
            "repro.types": TestR101IngestGate.TYPES,
            "repro.io.ingest": TestR101IngestGate.INGEST,
            "repro.sneaky": (
                "from repro.types import Table\n"
                "\n"
                "def shortcut(raw):\n"
                "    return Table(raw.decode('utf-8'))\n"
            ),
        }
        assert rule_ids(lint_sources(sources)) == ["R101"]
        assert lint_sources(sources, graph=False) == []

    def test_project_findings_sort_with_local_findings(self):
        findings = lint_sources({
            "repro.types": TestR101IngestGate.TYPES,
            "repro.io.ingest": TestR101IngestGate.INGEST,
            "repro.sneaky": (
                "from repro.types import Table\n"
                "\n"
                "def shortcut(raw, acc={}):\n"
                "    return Table(raw.decode('utf-8'))\n"
            ),
        })
        assert rule_ids(findings) == ["R005", "R101"]

    def test_noqa_on_multiline_statement_local_rule(self):
        # A def spread over several physical lines: R005 anchors its
        # finding on the offending default's line, and the waiver goes
        # on that same physical line.
        source = (
            "def f(\n"
            "    x=[],  # repro: noqa[R005]\n"
            "):\n"
            "    return x\n"
        )
        assert lint_sources({"m": source}) == []
        flagged = lint_sources(
            {"m": source.replace("  # repro: noqa[R005]", "")}
        )
        assert rule_ids(flagged) == ["R005"]
