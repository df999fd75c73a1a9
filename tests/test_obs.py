"""The observability subsystem: tracing, metrics, emitters, CLI.

The contract under test: observability only *watches*.  With the
default :class:`NullTracer` the instrumented pipeline must be
byte-identical to an uninstrumented one, and activating a real tracer
must not change a single prediction either.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main
from repro.core.strudel import StrudelPipeline
from repro.errors import InvalidParameterError
from repro.io.writer import write_csv_text
from repro.obs import (
    NULL_TRACER,
    PIPELINE_STAGES,
    Metrics,
    NullTracer,
    Span,
    Tracer,
    activate,
    get_metrics,
    get_tracer,
    render_trace_text,
    set_tracer,
    trace_payload,
    write_trace,
)


# ----------------------------------------------------------------------
# Tracer: span nesting, ordering, determinism
# ----------------------------------------------------------------------
def _run_fixture_spans(tracer: Tracer) -> None:
    with tracer.span("analyze"):
        with tracer.span("parsing", rows=3):
            pass
        with tracer.span("line_features"):
            with tracer.span("profile"):
                pass
        with tracer.span("line_prediction"):
            pass


def test_spans_record_start_order_parents_and_depth():
    tracer = Tracer()
    _run_fixture_spans(tracer)
    got = [
        (s.name, s.index, s.parent, s.depth) for s in tracer.spans
    ]
    assert got == [
        ("analyze", 0, None, 0),
        ("parsing", 1, 0, 1),
        ("line_features", 2, 0, 1),
        ("profile", 3, 2, 2),
        ("line_prediction", 4, 0, 1),
    ]


def test_span_tree_is_deterministic_across_runs():
    shapes = []
    for _ in range(3):
        tracer = Tracer()
        _run_fixture_spans(tracer)
        shapes.append(
            [(s.name, s.parent, s.depth) for s in tracer.spans]
        )
    assert shapes[0] == shapes[1] == shapes[2]


def test_span_durations_are_nonnegative_and_closed():
    tracer = Tracer()
    _run_fixture_spans(tracer)
    for span in tracer.spans:
        assert span.end is not None
        assert span.duration >= 0.0


def test_open_span_has_zero_duration():
    span = Span(name="x", index=0, parent=None, depth=0, start=1.0)
    assert span.duration == 0.0


def test_span_closes_even_when_body_raises():
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.span("outer"):
            raise RuntimeError("boom")
    assert tracer.spans[0].end is not None
    # The stack unwound: the next span is a root again.
    with tracer.span("next"):
        pass
    assert tracer.spans[1].parent is None


def test_activate_scopes_and_restores_the_active_tracer():
    assert get_tracer() is NULL_TRACER
    tracer = Tracer()
    with activate(tracer):
        assert get_tracer() is tracer
    assert get_tracer() is NULL_TRACER


def test_set_tracer_returns_previous():
    tracer = Tracer()
    previous = set_tracer(tracer)
    try:
        assert previous is NULL_TRACER
        assert get_tracer() is tracer
    finally:
        set_tracer(previous)


def test_null_tracer_span_is_shared_noop():
    null = NullTracer()
    a = null.span("anything", key="value")
    b = null.span("else")
    assert a is b
    with a:
        pass


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
def test_metrics_counters_gauges_timers_snapshot():
    metrics = Metrics()
    metrics.increment("a.count")
    metrics.increment("a.count", 4)
    metrics.gauge("a.level", 2.5)
    metrics.observe("a.seconds", 0.25)
    metrics.observe("a.seconds", 0.75)
    snapshot = metrics.snapshot()
    assert snapshot["counters"] == {"a.count": 5}
    assert snapshot["gauges"] == {"a.level": 2.5}
    timer = snapshot["timers"]["a.seconds"]
    assert timer["count"] == 2
    assert timer["total_seconds"] == pytest.approx(1.0)
    assert timer["min_seconds"] == pytest.approx(0.25)
    assert timer["max_seconds"] == pytest.approx(0.75)
    assert metrics.counter("a.count") == 5
    assert metrics.counter("unseen") == 0


def test_metrics_snapshot_is_sorted_and_json_ready():
    metrics = Metrics()
    metrics.increment("z.last")
    metrics.increment("a.first")
    snapshot = metrics.snapshot()
    assert list(snapshot["counters"]) == ["a.first", "z.last"]
    json.dumps(snapshot)  # must not raise


def test_metrics_time_context_observes_duration():
    metrics = Metrics()
    with metrics.time("block"):
        pass
    timer = metrics.snapshot()["timers"]["block"]
    assert timer["count"] == 1
    assert timer["total_seconds"] >= 0.0


def test_metrics_reset_clears_everything():
    metrics = Metrics()
    metrics.increment("x")
    metrics.gauge("y", 1.0)
    metrics.observe("z", 0.1)
    metrics.reset()
    assert metrics.snapshot() == {
        "counters": {}, "gauges": {}, "timers": {}
    }


# ----------------------------------------------------------------------
# Emitters
# ----------------------------------------------------------------------
def test_trace_payload_schema_and_rebased_clocks():
    tracer = Tracer()
    _run_fixture_spans(tracer)
    metrics = Metrics()
    metrics.increment("ingest.files")
    payload = trace_payload(tracer, metrics)
    assert payload["schema"] == "repro-trace/1"
    assert payload["metrics"]["counters"] == {"ingest.files": 1}
    spans = payload["spans"]
    assert [s["name"] for s in spans] == [
        "analyze", "parsing", "line_features", "profile",
        "line_prediction",
    ]
    assert spans[0]["start_seconds"] == 0.0
    for span in spans:
        assert span["start_seconds"] >= 0.0
        assert span["duration_seconds"] >= 0.0
        assert set(span) == {
            "name", "index", "parent", "depth", "start_seconds",
            "duration_seconds", "attributes",
        }
    assert spans[1]["attributes"] == {"rows": 3}
    json.dumps(payload)  # must not raise


def test_write_trace_json_round_trips(tmp_path):
    tracer = Tracer()
    _run_fixture_spans(tracer)
    path = write_trace(tmp_path / "trace.json", tracer, fmt="json")
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert payload["schema"] == "repro-trace/1"
    assert len(payload["spans"]) == 5


def test_write_trace_text_renders_tree_and_metrics(tmp_path):
    tracer = Tracer()
    _run_fixture_spans(tracer)
    metrics = Metrics()
    metrics.increment("ingest.files", 2)
    path = write_trace(
        tmp_path / "trace.txt", tracer, metrics=metrics, fmt="text"
    )
    text = path.read_text(encoding="utf-8")
    assert "analyze" in text
    assert "ingest.files = 2" in text
    # Nesting is visible: profile sits deeper than line_features.
    profile_line = next(
        line for line in text.splitlines() if "profile" in line
    )
    features_line = next(
        line for line in text.splitlines() if "line_features" in line
    )
    indent = len(profile_line) - len(profile_line.lstrip())
    assert indent > len(features_line) - len(features_line.lstrip())


def test_write_trace_rejects_unknown_format(tmp_path):
    with pytest.raises(InvalidParameterError):
        write_trace(tmp_path / "t", Tracer(), fmt="yaml")


def test_render_trace_text_without_metrics():
    tracer = Tracer()
    with tracer.span("only"):
        pass
    text = render_trace_text(trace_payload(tracer))
    assert "only" in text
    assert "metrics:" not in text


# ----------------------------------------------------------------------
# Pipeline instrumentation
# ----------------------------------------------------------------------
def _fitted_pipeline(tiny_corpus) -> StrudelPipeline:
    pipeline = StrudelPipeline(n_estimators=6, random_state=0)
    pipeline.fit(tiny_corpus.files)
    return pipeline


def test_analyze_emits_every_pipeline_stage_span(tiny_corpus):
    pipeline = _fitted_pipeline(tiny_corpus)
    text = write_csv_text(tiny_corpus.files[0].table.rows())
    tracer = Tracer()
    with activate(tracer):
        pipeline.analyze(text)
    names = [span.name for span in tracer.spans]
    assert names[0] == "analyze"
    # Every stage of the glossary except ingest_decode (analyze takes
    # already-decoded text; the bytes entry points emit it — see
    # test_cli_detect_trace_round_trip).
    for stage in PIPELINE_STAGES:
        if stage == "ingest_decode":
            continue
        assert stage in names, f"missing span {stage!r}"
    # All stage spans nest under the analyze root.
    analyze = tracer.spans[0]
    for span in tracer.spans[1:]:
        assert span.parent is not None
        assert span.start >= analyze.start


def test_tracing_on_is_byte_identical_to_tracing_off(tiny_corpus):
    pipeline = _fitted_pipeline(tiny_corpus)
    text = write_csv_text(tiny_corpus.files[1].table.rows())

    assert isinstance(get_tracer(), NullTracer)
    off = pipeline.analyze(text)
    with activate(Tracer()):
        on = pipeline.analyze(text)
    again_off = pipeline.analyze(text)

    for other in (on, again_off):
        assert other.line_classes == off.line_classes
        assert other.cell_classes == off.cell_classes
        assert other.dialect == off.dialect
    np.testing.assert_array_equal(
        np.array([c.value for c in off.line_classes], dtype=object),
        np.array([c.value for c in on.line_classes], dtype=object),
    )


def test_ingest_publishes_repair_metrics(tiny_corpus):
    from repro.io.ingest import ingest_bytes

    metrics = get_metrics()
    files_before = metrics.counter("ingest.files")
    nuls_before = metrics.counter("ingest.nul_chars")
    recovered_before = metrics.counter("ingest.recovered")
    result = ingest_bytes(b"a,b\x00\n1,2\n")
    assert result.report.nul_count == 1
    assert metrics.counter("ingest.files") == files_before + 1
    assert metrics.counter("ingest.nul_chars") == nuls_before + 1
    assert metrics.counter("ingest.recovered") == recovered_before + 1


def test_cross_validation_records_fold_metrics(tiny_corpus):
    from repro.core.strudel import StrudelLineClassifier
    from repro.eval.runner import cross_validate_lines

    metrics = get_metrics()
    folds_before = metrics.counter("cv.folds")
    tracer = Tracer()
    with activate(tracer):
        cross_validate_lines(
            tiny_corpus,
            lambda: StrudelLineClassifier(
                n_estimators=4, random_state=0
            ),
            n_splits=3, n_repeats=1, seed=0,
        )
    assert metrics.counter("cv.folds") == folds_before + 3
    names = [span.name for span in tracer.spans]
    assert names.count("cross_validate") == 1
    assert names.count("cv_fold") == 3
    fold_timer = metrics.snapshot()["timers"]["cv.fold_seconds"]
    assert fold_timer["count"] >= 3


# ----------------------------------------------------------------------
# CLI --trace / REPRO_TRACE
# ----------------------------------------------------------------------
def _write_sample_csv(tmp_path):
    path = tmp_path / "sample.csv"
    path.write_text(
        "Table 1. Sample\nState,2020\nAlabama,10\nTotal,10\n",
        encoding="utf-8",
    )
    return path


def test_cli_detect_trace_round_trip(tmp_path, capsys):
    csv_path = _write_sample_csv(tmp_path)
    trace_path = tmp_path / "trace.json"
    code = main(
        ["detect", str(csv_path), "--trace", str(trace_path)]
    )
    assert code == 0
    payload = json.loads(trace_path.read_text(encoding="utf-8"))
    assert payload["schema"] == "repro-trace/1"
    names = [span["name"] for span in payload["spans"]]
    assert names[0] == "detect"
    assert "ingest_decode" in names
    assert "dialect_detection" in names
    assert "metrics" in payload
    assert "trace written to" in capsys.readouterr().err
    # The active tracer is restored after the command.
    assert isinstance(get_tracer(), NullTracer)


def test_cli_trace_text_format(tmp_path):
    csv_path = _write_sample_csv(tmp_path)
    trace_path = tmp_path / "trace.txt"
    code = main(
        [
            "detect", str(csv_path),
            "--trace", str(trace_path),
            "--trace-format", "text",
        ]
    )
    assert code == 0
    assert "trace (repro-trace/1)" in trace_path.read_text(
        encoding="utf-8"
    )


def test_cli_trace_env_var(tmp_path, monkeypatch):
    csv_path = _write_sample_csv(tmp_path)
    trace_path = tmp_path / "env-trace.json"
    monkeypatch.setenv("REPRO_TRACE", str(trace_path))
    code = main(["detect", str(csv_path)])
    assert code == 0
    payload = json.loads(trace_path.read_text(encoding="utf-8"))
    assert payload["spans"][0]["name"] == "detect"


def test_cli_trace_env_bad_format_rejected(tmp_path, monkeypatch):
    csv_path = _write_sample_csv(tmp_path)
    monkeypatch.setenv("REPRO_TRACE", str(tmp_path / "t.json"))
    monkeypatch.setenv("REPRO_TRACE_FORMAT", "yaml")
    assert main(["detect", str(csv_path)]) == 2


def test_cli_without_trace_writes_nothing(tmp_path):
    csv_path = _write_sample_csv(tmp_path)
    assert main(["detect", str(csv_path)]) == 0
    assert list(tmp_path.glob("*.json")) == []
