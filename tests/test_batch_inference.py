"""One forest pass per micro-batch, byte for byte.

``StrudelPipeline.analyze_batch`` classifies a corpus engine
micro-batch with one ``predict_proba`` per forest over the row-stacked
matrices of all its tables.  The oracles below are the per-file code it
replaced, kept verbatim: ``per_file_classify`` (the pipeline tail that
called each forest once per table), ``per_file_analyze_bytes`` (ingest,
crop, classify one payload) and ``per_file_run_batch`` (the engine's
loop of one call per payload, with its ``"{type}: {message}"`` error
text), which encode results with ``legacy_structure_arrays`` from
``tests/test_result_arrays.py``.  Every comparison is down to
``np.save`` bytes: dtype, shape, memory order and data; the engine's
outcomes are compared through the members their cache entries hold,
and its skips by their reason text.
"""

from __future__ import annotations

import io
from pathlib import Path

import numpy as np
import pytest

from repro.core.cell_features import CellFeatureExtractor
from repro.core.profile import table_profile
from repro.core.strudel import (
    StrudelCellClassifier,
    StrudelPipeline,
    StructureResult,
)
from repro.datagen.corpora import CORPUS_BUILDERS, make_corpus
from repro.io.cropping import crop_table
from repro.io.ingest import IngestPolicy, ingest_bytes
from repro.io.writer import write_csv_text
from repro.obs import Tracer, activate
from repro.perf import engine as engine_mod
from repro.perf.engine import CorpusEngine, FileResult, SkipEntry
from repro.types import Table
from tests.test_result_arrays import (
    EDGE_BYTES,
    legacy_structure_arrays,
    saved_arrays,
)


# ----------------------------------------------------------------------
# Oracles: the per-file path, verbatim
# ----------------------------------------------------------------------
def per_file_classify(pipeline, table: Table):
    """``(line_codes, cell_positions, cell_codes)`` with one line and
    one cell forest call for this table alone."""
    inference = pipeline.line_classifier.infer(table)
    line_codes = pipeline.line_classifier.predict_codes(
        table, inference=inference
    )
    _, features = pipeline.cell_classifier.extract_cells(
        table, inference.probabilities
    )
    cell_codes = pipeline.cell_classifier.codes_from_features(features)
    positions = np.column_stack(np.nonzero(table_profile(table).non_empty))
    return line_codes, positions, cell_codes


def per_file_analyze_bytes(pipeline, data: bytes, policy=None):
    ingested = ingest_bytes(data, policy=policy or IngestPolicy())
    table = ingested.table
    if pipeline.crop:
        table = crop_table(table)
    return StructureResult.from_codes(
        ingested.dialect, table, *per_file_classify(pipeline, table),
        ingest=ingested.report,
    )


def per_file_run_batch(pipeline, policy, batch):
    out = []
    for index, _name, data in batch:
        try:
            encoded = legacy_structure_arrays(
                per_file_analyze_bytes(pipeline, data, policy=policy)
            )
        except Exception as exc:
            out.append(
                (index, ("error", f"{type(exc).__name__}: {exc}"))
            )
        else:
            out.append((index, encoded))
    return out


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def pipeline(tiny_corpus) -> StrudelPipeline:
    return StrudelPipeline(n_estimators=8, random_state=0).fit(
        tiny_corpus.files
    )


@pytest.fixture(scope="module")
def payloads() -> dict[str, bytes]:
    """3 files of every corpus personality and the edge inputs of
    ``tests/test_result_arrays.py``, by name."""
    out = {}
    for personality in sorted(CORPUS_BUILDERS):
        corpus = make_corpus(personality, seed=7, scale=0.02)
        for file in corpus.files[:3]:
            out[f"{personality}/{file.name}"] = write_csv_text(
                file.table.rows()
            ).encode("utf-8")
    for name, data in sorted(EDGE_BYTES.items()):
        out[f"edge/{name}"] = data
    return out


def _npy(array: np.ndarray) -> bytes:
    buffer = io.BytesIO()
    np.save(buffer, array)
    return buffer.getvalue()


def _assert_same_arrays(got: dict, want: dict, name: str) -> None:
    assert sorted(got) == sorted(want), name
    for key in want:
        assert _npy(got[key]) == _npy(want[key]), (name, key)


def _files(batch: list[tuple[int, str, bytes]]) -> list[tuple[str, bytes]]:
    """The ``(name, data)`` files ``_run_batch`` takes."""
    return [(name, data) for _index, name, data in batch]


def _assert_same_outcome(got, want: tuple, name: str) -> None:
    """One ``_run_batch`` outcome against the per-file loop's
    ``(index, arrays)`` or ``(index, ("error", reason))``."""
    _index, expected = want
    if isinstance(expected, tuple):
        assert isinstance(got, SkipEntry), name
        assert (got.path, got.stage, got.reason) == (
            Path(name), "classify", expected[1]
        )
    else:
        assert isinstance(got, FileResult), name
        assert got.path == Path(name)
        _assert_same_arrays(saved_arrays(got), expected, name)


def _marked(text: str) -> bytes:
    return f"{text},Q1\nRegion,5\nNorth,6\n".encode("utf-8")


# ----------------------------------------------------------------------
# Row independence
# ----------------------------------------------------------------------
def test_compiled_forests_are_row_independent(pipeline, payloads):
    """Stacked ``predict_proba`` equals the per-table calls, for every
    personality's real line and cell matrices and a table whose cell
    matrix has no rows."""
    line = pipeline.line_classifier
    cells = pipeline.cell_classifier
    tables = [
        crop_table(ingest_bytes(data).table) for data in payloads.values()
    ]
    line_matrices, cell_matrices = [], []
    for table in tables:
        inference = line.infer(table)
        line_matrices.append(inference.features)
        cell_matrices.append(
            cells.extract_cells(table, inference.probabilities)[1]
        )
    assert any(len(m) == 0 for m in cell_matrices)
    for clf, matrices in ((line, line_matrices), (cells, cell_matrices)):
        forest = clf._model.compile()
        stacked = forest.predict_proba(np.concatenate(matrices))
        offsets = np.cumsum([len(m) for m in matrices])[:-1]
        parts = np.split(stacked, offsets)
        assert len(parts) == len(matrices)
        for part, matrix in zip(parts, matrices):
            assert _npy(part) == _npy(forest.predict_proba(matrix))


# ----------------------------------------------------------------------
# Same results as one file at a time
# ----------------------------------------------------------------------
def test_batch_matches_one_file_at_a_time(pipeline, payloads):
    names = list(payloads)
    results = pipeline.analyze_batch([payloads[n] for n in names])
    assert len(results) == len(names)
    for name, result in zip(names, results):
        assert isinstance(result, StructureResult), name
        got = legacy_structure_arrays(result)
        want = legacy_structure_arrays(
            per_file_analyze_bytes(pipeline, payloads[name])
        )
        _assert_same_arrays(got, want, name)
        single = legacy_structure_arrays(pipeline.analyze_bytes(payloads[name]))
        _assert_same_arrays(single, want, name)
        assert result.ingest == pipeline.analyze_bytes(payloads[name]).ingest


def test_batch_of_reordered_payloads_gives_the_same_results(
    pipeline, payloads
):
    names = list(payloads)
    forward = dict(zip(names, pipeline.analyze_batch(
        [payloads[n] for n in names]
    )))
    backward = dict(zip(names[::-1], pipeline.analyze_batch(
        [payloads[n] for n in names[::-1]]
    )))
    for name in names:
        _assert_same_arrays(
            legacy_structure_arrays(backward[name]),
            legacy_structure_arrays(forward[name]),
            name,
        )


def test_engine_batch_matches_the_per_file_loop(pipeline, payloads):
    batch = [(i, name, data) for i, (name, data) in enumerate(payloads.items())]
    got = engine_mod._run_batch(pipeline, IngestPolicy(), _files(batch))
    want = per_file_run_batch(pipeline, IngestPolicy(), batch)
    assert len(got) == len(want) == len(batch)
    for outcome, expected, (_, name, _) in zip(got, want, batch):
        _assert_same_outcome(outcome, expected, name)


def test_a_batch_makes_one_call_per_forest(pipeline, payloads):
    """Feature spans are per file; the two prediction spans are per
    batch."""
    data = list(payloads.values())
    tracer = Tracer()
    with activate(tracer):
        pipeline.analyze_batch(data)
    names = [span.name for span in tracer.spans]
    assert names[0] == "analyze_batch"
    assert tracer.spans[0].attributes["n_files"] == len(data)
    assert names.count("line_features") == len(data)
    assert names.count("cell_features") == len(data)
    assert names.count("line_prediction") == 1
    assert names.count("cell_prediction") == 1
    assert all(span.parent is not None for span in tracer.spans[1:])


# ----------------------------------------------------------------------
# Failure isolation
# ----------------------------------------------------------------------
def test_failures_stay_with_their_payload(pipeline, payloads, monkeypatch):
    """An undecodable payload and one whose extraction raises get the
    per-file loop's error text; the others get identical results."""
    real = CellFeatureExtractor.matrix

    def matrix(self, table, probabilities):
        if table.cell(0, 0) == "explode":
            raise RuntimeError("cell extraction failed on purpose")
        return real(self, table, probabilities)

    monkeypatch.setattr(CellFeatureExtractor, "matrix", matrix)
    strict = IngestPolicy(strict=True)
    good = [payloads[n] for n in sorted(payloads) if n.startswith("saus/")]
    datas = [good[0], b"\xff\xfe\x00\xd8", good[1], _marked("explode"), good[2]]
    batch = [(i, f"p{i}", data) for i, data in enumerate(datas)]
    got = engine_mod._run_batch(pipeline, strict, _files(batch))
    want = per_file_run_batch(pipeline, strict, batch)
    assert got[1].reason.startswith("EncodingError: ")
    assert want[3] == (
        3, ("error", "RuntimeError: cell extraction failed on purpose")
    )
    for i in range(5):
        _assert_same_outcome(got[i], want[i], f"p{i}")
    with pytest.raises(RuntimeError, match="on purpose"):
        pipeline.analyze_bytes(_marked("explode"))


def test_a_stacked_predict_failure_fails_only_its_table(
    pipeline, payloads, monkeypatch
):
    """If the stacked cell-forest call raises, each table is predicted
    alone, so only the table whose own call raises fails."""
    poison = _marked("poison")
    table = crop_table(ingest_bytes(poison).table)
    inference = pipeline.line_classifier.infer(table)
    _, matrix = pipeline.cell_classifier.extract_cells(
        table, inference.probabilities
    )
    marker = matrix[0]
    real = StrudelCellClassifier.codes_from_features

    def codes_from_features(self, features):
        if (features == marker).all(axis=1).any():
            raise ValueError("poisoned cell row")
        return real(self, features)

    monkeypatch.setattr(
        StrudelCellClassifier, "codes_from_features", codes_from_features
    )
    good = [payloads[n] for n in sorted(payloads) if n.startswith("troy/")]
    datas = [good[0], poison, good[1]]
    batch = [(i, f"p{i}", data) for i, data in enumerate(datas)]
    got = engine_mod._run_batch(pipeline, IngestPolicy(), _files(batch))
    want = per_file_run_batch(pipeline, IngestPolicy(), batch)
    assert want[1] == (1, ("error", "ValueError: poisoned cell row"))
    for i in range(3):
        _assert_same_outcome(got[i], want[i], f"p{i}")


# ----------------------------------------------------------------------
# Scheduling
# ----------------------------------------------------------------------
def _small(count: int) -> list[tuple[str, bytes]]:
    return [(f"s{i}", _marked(f"Report {i}")) for i in range(count)]


def test_inline_engine_cuts_batches_by_file_count(pipeline):
    with CorpusEngine(pipeline, n_jobs=1) as engine:
        outcomes, report = engine.process_payloads(_small(10))
        assert report.batches == 1
        assert all(isinstance(o, FileResult) for o in outcomes)
        outcomes, report = engine.process_payloads(_small(65))
        assert report.batches == 2
        assert report.completed == 65


def test_a_payload_above_the_byte_cap_is_classified_alone(
    pipeline, monkeypatch
):
    rows = [["Wide report", ""], ["Name", "Value"]] + [
        [f"{'x' * 1000}{i}", str(i)] for i in range(80)
    ]
    big = write_csv_text(rows).encode("utf-8")
    assert len(big) > engine_mod._MAX_BATCH_BYTES
    small = _small(3)
    items = [small[0], small[1], ("big", big), small[2]]
    sizes = []
    real = StrudelPipeline.analyze_batch

    def analyze_batch(self, datas, policy=None):
        sizes.append([len(data) for data in datas])
        return real(self, datas, policy=policy)

    monkeypatch.setattr(StrudelPipeline, "analyze_batch", analyze_batch)
    with CorpusEngine(pipeline, n_jobs=1) as engine:
        outcomes, report = engine.process_payloads(items)
    assert report.batches == 3
    assert sizes == [
        [len(small[0][1]), len(small[1][1])], [len(big)], [len(small[2][1])]
    ]
    for (name, data), outcome in zip(items, outcomes):
        want = per_file_analyze_bytes(pipeline, data)
        assert outcome.dialect == want.dialect, name
        assert (outcome.n_rows, outcome.n_cols) == want.table.shape, name
        for key in ("line_codes", "cell_positions", "cell_codes"):
            assert _npy(getattr(outcome, key)) == _npy(getattr(want, key)), name
