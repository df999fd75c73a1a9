"""Results stay arrays from the argmax to the wire, byte for byte.

The pipeline computes class codes once (:data:`repro.types.CLASS_CODES`)
and the corpus engine and the serve protocol encode those arrays as
they are.  The oracles below are the dict-based encoders they replace,
kept verbatim: ``legacy_encode_structure`` (the engine's flattening of a
``StructureResult``), ``legacy_result_payload`` with the
``FileResult.line_classes``/``cell_classes`` it read, and
``legacy_classify``, the per-row pipeline tail that built the
``CellClass`` list and ``(row, col)`` dict first.  A fourth,
``legacy_structure_arrays``, is the engine's array encoder from before
a ``FileResult`` was built straight from the pipeline's result and
saved itself: it wrote the five members of a sweep-cache entry.
``legacy_save``/``legacy_load`` are ``FileResult.save``/``load`` from
before an entry became one flat buffer (a five-member ``.npz``), and
``legacy_from_codes`` is ``StructureResult.from_codes`` from before it
decoded its classes on first read.  Every comparison is down to dtype,
shape, memory order and bytes (``np.save`` of each array), and to the
exact wire line.
"""

from __future__ import annotations

import io
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import repro.core.strudel as strudel_mod
from repro.core.strudel import (
    StrudelPipeline,
    StructureResult,
    _apply_columns,
    _classes_of,
    align_class_probabilities,
)
from repro.datagen.corpora import CORPUS_BUILDERS, make_corpus
from repro.io.writer import write_csv_text
from repro.dialect.dialect import Dialect
from repro.perf.engine import CorpusEngine, FileResult, SweepCache
from repro.serve.protocol import (
    decode_response,
    encode_response,
    result_from_payload,
    success_response,
)
from repro.types import (
    CLASS_CODES,
    CODE_TO_CLASS,
    CONTENT_CLASSES,
    INDEX_TO_CLASS,
    CellClass,
    Table,
)

_CLASS_CODES = CLASS_CODES
_CODE_TO_CLASS = CODE_TO_CLASS
_CLASS_BY_INDEX = np.array(
    [INDEX_TO_CLASS[i] for i in range(len(CONTENT_CLASSES))],
    dtype=object,
)


# ----------------------------------------------------------------------
# Oracles: the dict-based encoders, verbatim
# ----------------------------------------------------------------------
def _labels_from(aligned: np.ndarray) -> list[CellClass]:
    """Most probable class per row of an aligned probability matrix."""
    return list(_CLASS_BY_INDEX.take(np.argmax(aligned, axis=1)))


def legacy_classify(pipeline, table: Table):
    """``(line_classes, cell_classes)`` the way the pipeline built them
    before it kept codes: a per-row strip loop for empty lines and a
    dict from the cell positions list."""
    inference = pipeline.line_classifier.infer(table)
    labels = _labels_from(inference.probabilities)
    line_classes = [
        CellClass.EMPTY if table.is_empty_row(i) else labels[i]
        for i in range(table.n_rows)
    ]
    cells = pipeline.cell_classifier
    positions, features = cells.extract_cells(table, inference.probabilities)
    if not positions:
        return line_classes, {}
    raw = cells._model.predict_proba(_apply_columns(features, cells._columns))
    aligned = align_class_probabilities(
        raw, cells._model.classes_, features.shape[0]
    )
    return line_classes, dict(zip(positions, _labels_from(aligned)))


def legacy_encode_structure(result) -> dict[str, np.ndarray]:
    """Flatten a :class:`StructureResult` into deterministic arrays."""
    line_codes = np.array(
        [_CLASS_CODES[cls] for cls in result.line_classes],
        dtype=np.int8,
    )
    items = sorted(result.cell_classes.items())
    positions = np.array(
        [position for position, _ in items], dtype=np.int64
    ).reshape(len(items), 2)
    cell_codes = np.array(
        [_CLASS_CODES[cls] for _, cls in items], dtype=np.int8
    )
    dialect = np.array(
        [
            result.dialect.delimiter,
            result.dialect.quotechar,
            result.dialect.escapechar,
        ],
        dtype=np.str_,
    )
    shape = np.array(
        [result.table.n_rows, result.table.n_cols], dtype=np.int64
    )
    return {
        "line_codes": line_codes,
        "cell_positions": positions,
        "cell_codes": cell_codes,
        "dialect": dialect,
        "shape": shape,
    }


def legacy_structure_arrays(result) -> dict[str, np.ndarray]:
    """A pipeline :class:`~repro.core.strudel.StructureResult` as
    deterministic arrays: its class codes as the pipeline computed
    them, plus the dialect and the table shape."""
    dialect = np.array(
        [
            result.dialect.delimiter,
            result.dialect.quotechar,
            result.dialect.escapechar,
        ],
        dtype=np.str_,
    )
    shape = np.array(
        [result.table.n_rows, result.table.n_cols], dtype=np.int64
    )
    return {
        "line_codes": result.line_codes,
        "cell_positions": result.cell_positions,
        "cell_codes": result.cell_codes,
        "dialect": dialect,
        "shape": shape,
    }


def legacy_save(self, file) -> None:
    """Write the five ``.npz`` members of a sweep-cache entry: the
    three code arrays, the dialect's characters and the shape."""
    np.savez(
        file,
        line_codes=self.line_codes,
        cell_positions=self.cell_positions,
        cell_codes=self.cell_codes,
        dialect=np.array(
            [
                self.dialect.delimiter,
                self.dialect.quotechar,
                self.dialect.escapechar,
            ],
            dtype=np.str_,
        ),
        shape=np.array([self.n_rows, self.n_cols], dtype=np.int64),
    )


def legacy_load(file, path: Path) -> FileResult:
    """The result :meth:`save` wrote to ``file``, for ``path``.
    A damaged file raises what ``np.load`` raises on it, a
    ``KeyError`` for a missing member or a
    :class:`~repro.errors.DialectError` for a damaged dialect."""
    cls = FileResult
    with np.load(file) as archive:
        dialect = archive["dialect"]
        shape = archive["shape"]
        return cls(
            path=path,
            dialect=Dialect(*map(str, dialect)),
            n_rows=int(shape[0]),
            n_cols=int(shape[1]),
            line_codes=np.asarray(archive["line_codes"], dtype=np.int8),
            cell_positions=np.asarray(
                archive["cell_positions"], dtype=np.int64
            ).reshape(-1, 2),
            cell_codes=np.asarray(archive["cell_codes"], dtype=np.int8),
        )


def legacy_from_codes(
    cls,
    dialect,
    table,
    line_codes: np.ndarray,
    cell_positions: np.ndarray,
    cell_codes: np.ndarray,
    ingest=None,
) -> StructureResult:
    """A result whose class objects are decoded from its codes."""
    rows, cols = cell_positions.T.tolist()
    return cls(
        dialect=dialect,
        table=table,
        line_classes=_classes_of(line_codes),
        cell_classes=dict(zip(zip(rows, cols), _classes_of(cell_codes))),
        ingest=ingest,
        line_codes=line_codes,
        cell_positions=cell_positions,
        cell_codes=cell_codes,
    )


def legacy_line_classes(self) -> list[CellClass]:
    """Per-line classes, decoded to :class:`CellClass`."""
    return [_CODE_TO_CLASS[int(code)] for code in self.line_codes]


def legacy_cell_classes(self) -> dict[tuple[int, int], CellClass]:
    """Non-empty cell positions mapped to their classes."""
    return {
        (int(row), int(col)): _CODE_TO_CLASS[int(code)]
        for (row, col), code in zip(
            self.cell_positions, self.cell_codes
        )
    }


def legacy_result_payload(result) -> dict:
    """A :class:`FileResult` as a JSON-ready dict (deterministic:
    cells stay in the engine's sorted position order)."""
    return {
        "path": str(result.path),
        "n_rows": result.n_rows,
        "n_cols": result.n_cols,
        "dialect": {
            "delimiter": result.dialect.delimiter,
            "quotechar": result.dialect.quotechar,
            "escapechar": result.dialect.escapechar,
        },
        "line_classes": [cls.value for cls in legacy_line_classes(result)],
        "cells": [
            [int(row), int(col), cls.value]
            for (row, col), cls in sorted(
                legacy_cell_classes(result).items()
            )
        ],
    }


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
#: Edge inputs for ``analyze_bytes``, by name.
EDGE_BYTES = {
    "blank-lines-first-inside-last": (
        b"\n\nAnnual report,,\n\nRegion,Q1,Q2\nNorth,5,7\n,,\n"
        b"South,1,2\nTotal,6,9\n\n\n"
    ),
    "no-non-empty-cell": b",,\n , ,\n,,\n",
    "one-column": b"Population\n\nYear\n2019\n2020\n2021\nTotal\n",
    "ragged-rows": b"Title\nA,B,C,D\n1,2\n3,4,5,6,7\n\nNote: ragged\n",
    "quoted-newline": (
        b'"Report\nspanning two lines",\nRegion,Q1\nNorth,5\nSouth,6\n'
    ),
}

#: The same shapes as tables, for ``analyze_table`` (no ingest, no
#: crop), plus a lone surrogate that only a ``str`` cell can hold.
EDGE_TABLES = {
    "blank-rows-first-inside-last": [
        ["", "", ""], ["Report", "", ""], ["", "", ""],
        ["A", "B", "C"], ["1", "2", "3"], ["", "", ""],
        ["4", "5", "6"], ["", "", ""],
    ],
    "no-non-empty-cell": [["", " "], ["\t", ""]],
    "one-column": [["Year"], [""], ["2019"], ["2020"]],
    "surrogate-cell": [["\ud800", "Q1"], ["North", "\ud800x"], ["", ""]],
}


@pytest.fixture(scope="module")
def pipeline(tiny_corpus) -> StrudelPipeline:
    return StrudelPipeline(n_estimators=4, random_state=0).fit(
        tiny_corpus.files
    )


def _npy(array: np.ndarray) -> bytes:
    """What ``np.save`` writes for ``array``: header (dtype, shape,
    memory order) and data."""
    buffer = io.BytesIO()
    np.save(buffer, array)
    return buffer.getvalue()


def entry_of(arrays: dict[str, np.ndarray]) -> io.BytesIO:
    """A sweep-cache entry holding ``arrays``, written the way the
    engine wrote its array dicts (``np.savez`` of the members)."""
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    buffer.seek(0)
    return buffer


def reloaded(result: FileResult) -> FileResult:
    """``result`` saved as a sweep-cache entry and loaded back."""
    buffer = io.BytesIO()
    result.save(buffer)
    buffer.seek(0)
    return FileResult.load(buffer, result.path)


def saved_arrays(result: FileResult) -> dict[str, np.ndarray]:
    """What a sweep-cache entry of ``result`` reloads to, as the five
    members the ``.npz`` entries held: the three code arrays, the
    dialect's characters and the shape."""
    back = reloaded(result)
    return {
        "line_codes": back.line_codes,
        "cell_positions": back.cell_positions,
        "cell_codes": back.cell_codes,
        "dialect": np.array(
            [
                back.dialect.delimiter,
                back.dialect.quotechar,
                back.dialect.escapechar,
            ],
            dtype=np.str_,
        ),
        "shape": np.array([back.n_rows, back.n_cols], dtype=np.int64),
    }


def _legacy_structure(pipeline, result: StructureResult) -> StructureResult:
    line_classes, cell_classes = legacy_classify(pipeline, result.table)
    return StructureResult(
        dialect=result.dialect,
        table=result.table,
        line_classes=line_classes,
        cell_classes=cell_classes,
        ingest=result.ingest,
    )


def _assert_arrays_and_wire(pipeline, name: str, result: StructureResult):
    legacy = _legacy_structure(pipeline, result)
    assert result == legacy  # same public classes (codes never compare)
    new_file = FileResult.of(Path(name), result)
    new_arrays = saved_arrays(new_file)
    old_arrays = legacy_encode_structure(legacy)
    assert sorted(new_arrays) == sorted(old_arrays)
    for key in old_arrays:
        assert _npy(new_arrays[key]) == _npy(old_arrays[key]), key
    for key in ("line_codes", "cell_positions", "cell_codes"):
        assert _npy(getattr(new_file, key)) == _npy(old_arrays[key]), key

    old_file = legacy_load(entry_of(old_arrays), Path(name))
    assert new_file.line_classes() == legacy_line_classes(old_file)
    assert new_file.cell_classes() == legacy_cell_classes(old_file)
    line = encode_response(success_response(name, new_file))
    assert line == encode_response(
        {"id": name, "ok": True, "result": legacy_result_payload(old_file)}
    )
    back = result_from_payload(decode_response(line)["result"])
    for key in ("line_codes", "cell_positions", "cell_codes"):
        assert _npy(getattr(back, key)) == _npy(getattr(new_file, key)), key


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------
@pytest.mark.parametrize("personality", sorted(CORPUS_BUILDERS))
def test_corpus_arrays_and_wire_match_the_dict_encoders(
    pipeline, personality
):
    corpus = make_corpus(personality, seed=7, scale=0.02)
    assert corpus.files
    for file in corpus.files[:3]:
        data = write_csv_text(file.table.rows()).encode("utf-8")
        name = f"{personality}/{file.name}"
        _assert_arrays_and_wire(pipeline, name, pipeline.analyze_bytes(data))


@pytest.mark.parametrize("name", sorted(EDGE_BYTES))
def test_edge_bytes_arrays_and_wire_match_the_dict_encoders(pipeline, name):
    result = pipeline.analyze_bytes(EDGE_BYTES[name])
    _assert_arrays_and_wire(pipeline, name, result)


@pytest.mark.parametrize("name", sorted(EDGE_TABLES))
def test_analyze_table_arrays_and_wire_match_the_dict_encoders(
    pipeline, name
):
    result = pipeline.analyze_table(Table(EDGE_TABLES[name]))
    _assert_arrays_and_wire(pipeline, name, result)


def test_edge_inputs_exercise_what_they_name(pipeline):
    """Blank lines survive inside the table, and a table without a
    non-empty cell yields the ``(0, 2)`` position array."""
    blank = pipeline.analyze_bytes(EDGE_BYTES["blank-lines-first-inside-last"])
    assert CellClass.EMPTY in blank.line_classes
    empty = pipeline.analyze_bytes(EDGE_BYTES["no-non-empty-cell"])
    assert empty.cell_positions.shape == (0, 2)
    assert empty.cell_positions.dtype == np.int64
    assert set(empty.line_classes) <= {CellClass.EMPTY}


def _results(pipeline):
    data = EDGE_BYTES["blank-lines-first-inside-last"]
    yield "analyze_bytes", pipeline.analyze_bytes(data)
    yield "analyze", pipeline.analyze(data.decode("utf-8"))
    yield "analyze-surrogate", pipeline.analyze("\ud800,Q1\nNorth,5\n\n,\nx,1\n")
    for name, rows in sorted(EDGE_TABLES.items()):
        yield f"analyze_table-{name}", pipeline.analyze_table(Table(rows))


def test_public_classes_agree_with_the_codes(pipeline):
    for entry, result in _results(pipeline):
        assert result.line_codes.dtype == np.int8, entry
        assert result.cell_codes.dtype == np.int8, entry
        assert result.cell_positions.dtype == np.int64, entry
        assert result.line_classes == [
            CODE_TO_CLASS[code] for code in result.line_codes.tolist()
        ], entry
        assert result.cell_classes == {
            (row, col): CODE_TO_CLASS[code]
            for (row, col), code in zip(
                result.cell_positions.tolist(), result.cell_codes.tolist()
            )
        }, entry
        assert list(result.cell_classes) == sorted(result.cell_classes), entry
        line = pipeline.line_classifier
        assert line.predict(result.table) == result.line_classes, entry
        cells = pipeline.cell_classifier
        assert cells.predict(result.table) == result.cell_classes, entry


def _cache_inputs(pipeline):
    for personality in sorted(CORPUS_BUILDERS):
        corpus = make_corpus(personality, seed=7, scale=0.02)
        for file in corpus.files[:3]:
            data = write_csv_text(file.table.rows()).encode("utf-8")
            yield f"{personality}/{file.name}", pipeline.analyze_bytes(data)
    for name in sorted(EDGE_BYTES):
        yield name, pipeline.analyze_bytes(EDGE_BYTES[name])
    for name, rows in sorted(EDGE_TABLES.items()):
        yield f"table-{name}", pipeline.analyze_table(Table(rows))
    yield "analyze-surrogate", pipeline.analyze("\ud800,Q1\nNorth,5\n\n,\nx,1\n")


def _assert_same_file(got: FileResult, want: FileResult, name: str) -> None:
    """Same path, dialect and shape, and the same arrays down to
    dtype, shape, memory order and bytes; the loaded arrays own their
    memory and are writable and C-contiguous."""
    assert (got.path, got.dialect, got.n_rows, got.n_cols) == (
        want.path, want.dialect, want.n_rows, want.n_cols
    ), name
    for key in ("line_codes", "cell_positions", "cell_codes"):
        array = getattr(got, key)
        assert _npy(array) == _npy(getattr(want, key)), (name, key)
        flags = array.flags
        assert flags.owndata and flags.writeable and flags.c_contiguous, (
            name, key,
        )


def test_cache_entries_reload_like_the_array_encoders(pipeline, tmp_path):
    """An entry ``SweepCache.store`` writes reloads to the result it
    stored and to the arrays the engine's array encoder gave, for
    every corpus and edge input (a result without a non-empty cell
    among them) and for a dialect of lone surrogates."""
    cache = SweepCache(tmp_path)
    stored = 0
    for name, result in _cache_inputs(pipeline):
        want = FileResult.of(Path(name), result)
        variants = [want]
        if name == "no-non-empty-cell":
            assert want.cell_positions.shape == (0, 2)
        if name == "analyze-surrogate":
            variants.append(replace(want, dialect=Dialect("\ud800", "\udfff")))
        for variant in variants:
            key = SweepCache.entry_key(f"{name}-{stored}", "model", "policy")
            stored += 1
            cache.store(key, variant)
            got = cache.load(key, Path(name))
            _assert_same_file(got, variant, name)
            _assert_same_file(reloaded(variant), variant, name)
        legacy = legacy_structure_arrays(result)
        for key in ("line_codes", "cell_positions", "cell_codes"):
            assert _npy(getattr(got, key)) == _npy(legacy[key]), (name, key)
    assert cache.stats()["misses"] == 0


def test_entries_of_the_previous_layout_are_never_results(pipeline, tmp_path):
    """A five-member ``.npz`` entry, as written before an entry became
    one flat buffer: in an entry's place it is a miss that is
    removed; under its own name it is never read, counted or
    evicted."""
    old_dir, moved_dir = tmp_path / "old", tmp_path / "moved"
    cache = SweepCache(old_dir, max_entries=1)
    moved = SweepCache(moved_dir)
    olds = []
    for name, result in _cache_inputs(pipeline):
        buffer = io.BytesIO()
        legacy_save(FileResult.of(Path(name), result), buffer)
        key = SweepCache.entry_key(name, "model", "policy")
        (moved_dir / f"{key}.result").write_bytes(buffer.getvalue())
        assert moved.load(key, Path(name)) is None, name
        assert not (moved_dir / f"{key}.result").exists(), name
        olds.append(old_dir / f"{key}.npz")
        olds[-1].write_bytes(buffer.getvalue())
        assert cache.load(key, Path(name)) is None, name
    assert SweepCache(old_dir).stats()["size"] == 0
    for i, (name, result) in enumerate(_cache_inputs(pipeline)):
        if i == 3:
            break
        key = SweepCache.entry_key(f"new-{name}", "model", "policy")
        cache.store(key, FileResult.of(Path(name), result))
    assert cache.stats()["evictions"] == 2
    assert all(old.exists() for old in olds)
    assert moved.stats()["misses"] == len(olds)


def _spy_on_decoding(monkeypatch) -> list:
    """Record every code array :func:`_classes_of` decodes."""
    calls = []

    def spy(codes):
        calls.append(codes)
        return _classes_of(codes)

    monkeypatch.setattr(strudel_mod, "_classes_of", spy)
    return calls


def _with_first_line_changed(result: StructureResult) -> StructureResult:
    """``result`` with its first line's class changed."""
    lines = list(result.line_classes)
    lines[0] = CellClass.NOTES if lines[0] != CellClass.NOTES else CellClass.DATA
    return StructureResult(
        dialect=result.dialect, table=result.table, line_classes=lines,
        cell_classes=result.cell_classes, ingest=result.ingest,
    )


def test_results_decode_their_classes_on_first_read(pipeline, monkeypatch):
    """``from_codes`` builds no class object; the first read decodes
    what the eager ``from_codes`` did, a second read returns the same
    object, and equality with keyword-built results still holds."""
    calls = _spy_on_decoding(monkeypatch)
    for entry, result in _results(pipeline):
        assert calls == [], entry
        eager = legacy_from_codes(
            StructureResult, result.dialect, result.table, result.line_codes,
            result.cell_positions, result.cell_codes, ingest=result.ingest,
        )
        lines = result.line_classes
        assert len(calls) == 1, entry
        cells = result.cell_classes
        assert len(calls) == 2, entry
        assert lines == eager.line_classes, entry
        assert list(cells.items()) == list(eager.cell_classes.items()), entry
        assert repr(result) == repr(eager), entry
        assert result.line_classes is lines and result.cell_classes is cells
        assert len(calls) == 2, entry
        keyword = StructureResult(
            dialect=result.dialect, table=result.table,
            line_classes=list(lines), cell_classes=dict(cells),
            ingest=result.ingest,
        )
        assert result == eager == keyword == result, entry
        assert result != _with_first_line_changed(keyword), entry
        calls.clear()


def test_an_engine_sweep_decodes_no_class(pipeline, monkeypatch):
    """One ``analyze_batch`` through the inline engine, from payloads
    to ``FileResult``s, builds no ``CellClass``."""
    calls = _spy_on_decoding(monkeypatch)
    payloads = [(name, data) for name, data in sorted(EDGE_BYTES.items())]
    with CorpusEngine(pipeline, n_jobs=1) as engine:
        outcomes, report = engine.process_payloads(payloads)
    assert report.batches == 1 and report.completed == len(payloads)
    assert all(isinstance(outcome, FileResult) for outcome in outcomes)
    assert calls == []
