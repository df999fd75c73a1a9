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
saved itself: it wrote the five members of a sweep-cache entry.  Every
comparison is down to dtype, shape, memory order and bytes (``np.save``
of each array, which is what a sweep-cache entry stores), and to the
exact wire line.
"""

from __future__ import annotations

import io
from pathlib import Path

import numpy as np
import pytest

from repro.core.strudel import (
    StrudelPipeline,
    StructureResult,
    _apply_columns,
    align_class_probabilities,
)
from repro.datagen.corpora import CORPUS_BUILDERS, make_corpus
from repro.io.writer import write_csv_text
from repro.perf.engine import FileResult, SweepCache
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


def saved_arrays(result: FileResult) -> dict[str, np.ndarray]:
    """The members :meth:`FileResult.save` writes for ``result``."""
    buffer = io.BytesIO()
    result.save(buffer)
    buffer.seek(0)
    with np.load(buffer) as archive:
        return {name: archive[name] for name in archive.files}


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

    old_file = FileResult.load(entry_of(old_arrays), Path(name))
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
    for name in sorted(EDGE_BYTES):
        yield name, pipeline.analyze_bytes(EDGE_BYTES[name])
    corpus = make_corpus("saus", seed=7, scale=0.02)
    for file in corpus.files[:3]:
        data = write_csv_text(file.table.rows()).encode("utf-8")
        yield file.name, pipeline.analyze_bytes(data)


def test_cache_entries_reload_like_the_array_encoders(pipeline, tmp_path):
    """An entry ``SweepCache.store`` writes holds the members the
    engine's array encoder wrote, and both reload to the same arrays
    (``np.savez`` stamps a time, so members are compared, not
    files)."""
    cache = SweepCache(tmp_path)
    for name, result in _cache_inputs(pipeline):
        cache.store(f"new-{name}", FileResult.of(Path(name), result))
        (tmp_path / f"old-{name}.npz").write_bytes(
            entry_of(legacy_structure_arrays(result)).getvalue()
        )
        with np.load(tmp_path / f"new-{name}.npz") as new, \
                np.load(tmp_path / f"old-{name}.npz") as old:
            assert new.files == old.files, name
            for member in old.files:
                assert _npy(new[member]) == _npy(old[member]), (name, member)
        new_file = cache.load(f"new-{name}", Path(name))
        old_file = cache.load(f"old-{name}", Path(name))
        assert (new_file.path, new_file.dialect, new_file.n_rows,
                new_file.n_cols) == (old_file.path, old_file.dialect,
                                     old_file.n_rows, old_file.n_cols)
        for key in ("line_codes", "cell_positions", "cell_codes"):
            assert _npy(getattr(new_file, key)) == _npy(
                getattr(old_file, key)
            ), (name, key)
            assert _npy(getattr(new_file, key)) == _npy(
                getattr(result, key)
            ), (name, key)
    assert cache.stats()["misses"] == 0
