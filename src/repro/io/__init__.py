"""CSV input/output: parsing, writing, cropping and annotations.

The reader implements RFC-4180 parsing generalized to arbitrary
dialects (delimiter, quote character, escape character), since verbose
CSV files in the wild rarely conform to the standard dialect.
"""

from repro.io.annotations import (
    load_annotated_file,
    load_corpus,
    save_annotated_file,
    save_corpus,
)
from repro.io.cropping import crop_annotated_file, crop_table
from repro.io.ingest import (
    IngestPolicy,
    IngestReport,
    IngestResult,
    decode_bytes,
    decode_path,
    ingest_bytes,
    ingest_path,
    ingest_text,
)
from repro.io.reader import read_table, read_table_text
from repro.io.writer import write_csv_text, write_table
from repro.parsing import parse_csv_text, split_record

__all__ = [
    "IngestPolicy",
    "IngestReport",
    "IngestResult",
    "crop_annotated_file",
    "crop_table",
    "decode_bytes",
    "decode_path",
    "ingest_bytes",
    "ingest_path",
    "ingest_text",
    "load_annotated_file",
    "load_corpus",
    "parse_csv_text",
    "read_table",
    "read_table_text",
    "save_annotated_file",
    "save_corpus",
    "split_record",
    "write_csv_text",
    "write_table",
]
