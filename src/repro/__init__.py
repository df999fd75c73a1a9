"""Strudel — structure detection in verbose CSV files.

A complete reproduction of "Structure Detection in Verbose CSV Files"
(Jiang, Vitagliano, Naumann — EDBT 2021): the Strudel line and cell
classifiers, the CRF-L / Pytheas-L / Line-C / RNN-C comparison
approaches, dialect detection, a from-scratch ML substrate, synthetic
verbose-CSV corpora with exact ground truth, and an evaluation harness
regenerating every table and figure of the paper.

Quickstart::

    from repro import StrudelPipeline, make_corpus

    corpus = make_corpus("saus", scale=0.2)
    pipeline = StrudelPipeline(n_estimators=30, random_state=0)
    pipeline.fit(corpus.files)
    result = pipeline.analyze("Report 2020\\n,Q1,Q2\\nNorth,5,7\\nTotal,5,7\\n")
    for i, klass in enumerate(result.line_classes):
        print(i, klass)
"""

from repro.core.strudel import (
    LineToCellBaseline,
    StrudelCellClassifier,
    StrudelLineClassifier,
    StrudelPipeline,
    StructureResult,
)
from repro.datagen.corpora import make_corpus
from repro.dialect import Dialect, detect_dialect
from repro.errors import IngestError, ReproError
from repro.io.ingest import (
    IngestPolicy,
    IngestReport,
    IngestResult,
    ingest_bytes,
    ingest_path,
    ingest_text,
)
from repro.io.reader import read_table, read_table_text
from repro.obs import Tracer, activate, get_metrics, get_tracer
from repro.types import AnnotatedFile, CellClass, Corpus, DataType, Table

__version__ = "1.0.0"

__all__ = [
    "AnnotatedFile",
    "CellClass",
    "Corpus",
    "DataType",
    "Dialect",
    "IngestError",
    "IngestPolicy",
    "IngestReport",
    "IngestResult",
    "LineToCellBaseline",
    "ReproError",
    "StructureResult",
    "StrudelCellClassifier",
    "StrudelLineClassifier",
    "StrudelPipeline",
    "Table",
    "Tracer",
    "activate",
    "detect_dialect",
    "get_metrics",
    "get_tracer",
    "ingest_bytes",
    "ingest_path",
    "ingest_text",
    "make_corpus",
    "read_table",
    "read_table_text",
    "__version__",
]
