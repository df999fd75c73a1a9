"""Record-stream adapters: NDJSON logs and XML dumps → rectangles.

Both adapters decode their bytes through :func:`decode_bytes`, so the
front door's BOM/encoding/size hardening applies before a single
record is parsed, then render a rectangular table and re-encode it as
UTF-8 CSV bytes for ``ingest_bytes``.  Rendering is deterministic:
column order is first-seen order, array-valued cells join with ``|``
in document order (the dblp-to-csv convention), nested objects
serialise as compact sorted JSON.

The XML mapping follows dblp-to-csv: the document's root children
group by tag into one table per element type
(``dump.xml!article``, ``dump.xml!book``…), columns are the union of
attribute names and child-element tags, and repeated child elements
become one ``|``-joined cell.

Malformed input — a line that is not JSON, records of mixed shape,
unparseable XML — raises :class:`~repro.errors.AdapterError`; raw
``json``/``xml`` exceptions never escape.
"""

from __future__ import annotations

import json
from typing import Iterator
from xml.etree import ElementTree

from repro.errors import AdapterError
from repro.io.adapters.base import (
    DEFAULT_POLICY,
    NDJSON_SUFFIXES,
    XML_SUFFIXES,
    IngestPolicy,
    SourcePayload,
    join_provenance,
    register_dispatcher,
)
from repro.io.ingest import decode_bytes
from repro.io.writer import write_csv_text
from repro.obs import get_metrics

#: Joins the items of an array-valued cell (dblp-to-csv style).
ARRAY_JOIN = "|"


def iter_ndjson_payloads(
    name: str,
    data: bytes,
    policy: IngestPolicy = DEFAULT_POLICY,
    depth: int = 0,
    wanted: str | None = None,
) -> Iterator[SourcePayload]:
    """The NDJSON stream ``data`` as one rectangular table payload
    (provenance ``name!records``); ``wanted`` changes nothing."""
    text, _report = decode_bytes(data, policy)
    records: list[object] = []
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except ValueError as exc:
            raise AdapterError(
                f"{name!r} line {number} is not valid JSON: {exc}"
            ) from exc
    rows = _rectangle(records, name)
    metrics = get_metrics()
    metrics.increment("adapter.records", len(records))
    metrics.increment("adapter.sources")
    yield SourcePayload(
        source_id="records",
        data=write_csv_text(rows).encode("utf-8"),
        provenance=join_provenance(name, "records"),
    )


def _rectangle(
    records: list[object], name: str
) -> list[list[str]]:
    """Records of one homogeneous shape → header row + value rows."""
    if not records:
        return []
    if all(isinstance(record, dict) for record in records):
        columns: list[str] = []
        for record in records:
            for key in record:  # type: ignore[union-attr]
                if key not in columns:
                    columns.append(key)
        rows = [list(columns)]
        for record in records:
            rows.append([
                _render(record[key]) if key in record else ""
                for key in columns
            ])
        return rows
    if all(isinstance(record, (list, tuple)) for record in records):
        width = max(len(record) for record in records)
        rows = [[f"col{index}" for index in range(width)]]
        for record in records:
            values = [_render(value) for value in record]
            values.extend([""] * (width - len(values)))
            rows.append(values)
        return rows
    if all(
        not isinstance(record, (dict, list, tuple))
        for record in records
    ):
        return [["value"]] + [[_render(record)] for record in records]
    raise AdapterError(
        f"{name!r} mixes JSON record shapes (objects, arrays and "
        f"scalars cannot share one table)"
    )


def _render(value: object) -> str:
    """One JSON value as a deterministic cell string."""
    if value is None:
        return ""
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        return value
    if isinstance(value, (int, float)):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        if all(
            not isinstance(item, (dict, list, tuple))
            for item in value
        ):
            return ARRAY_JOIN.join(_render(item) for item in value)
        return json.dumps(value, sort_keys=True, separators=(",", ":"))
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def iter_xml_payloads(
    name: str,
    data: bytes,
    policy: IngestPolicy = DEFAULT_POLICY,
    depth: int = 0,
    wanted: str | None = None,
) -> Iterator[SourcePayload]:
    """The XML document ``data`` as one table per root-child element
    tag (``name!article``, ``name!book``…), dblp-to-csv style;
    ``wanted`` changes nothing: the document is parsed whole."""
    text, _report = decode_bytes(data, policy)
    try:
        root = ElementTree.fromstring(text)
    except ElementTree.ParseError as exc:
        raise AdapterError(
            f"cannot parse XML {name!r}: {exc}"
        ) from exc
    order: list[str] = []
    groups: dict[str, list[ElementTree.Element]] = {}
    for element in root:
        if not isinstance(element.tag, str):
            continue  # comments and processing instructions
        if element.tag not in groups:
            order.append(element.tag)
            groups[element.tag] = []
        groups[element.tag].append(element)
    metrics = get_metrics()
    for tag in order:
        elements = groups[tag]
        rows = _element_table(elements)
        metrics.increment("adapter.records", len(elements))
        metrics.increment("adapter.sources")
        yield SourcePayload(
            source_id=tag,
            data=write_csv_text(rows).encode("utf-8"),
            provenance=join_provenance(name, tag),
        )


def _element_table(
    elements: "list[ElementTree.Element]",
) -> list[list[str]]:
    """One element group → header + rows: columns are the first-seen
    union of attribute names and child tags; repeated child tags join
    with ``|`` in document order."""
    columns: list[str] = []
    for element in elements:
        for key in element.attrib:
            if key not in columns:
                columns.append(key)
        for child in element:
            if isinstance(child.tag, str) and child.tag not in columns:
                columns.append(child.tag)
    if not columns:
        # Leaf-only records (<id>x</id> with no structure): one text
        # column keeps the group tabular instead of empty.
        return [["text"]] + [
            ["".join(element.itertext()).strip()]
            for element in elements
        ]
    rows = [list(columns)]
    for element in elements:
        row: list[str] = []
        for column in columns:
            if column in element.attrib:
                row.append(element.attrib[column])
                continue
            matches = [
                "".join(child.itertext()).strip()
                for child in element
                if child.tag == column
            ]
            row.append(ARRAY_JOIN.join(matches))
        rows.append(row)
    return rows


register_dispatcher(NDJSON_SUFFIXES, iter_ndjson_payloads)
register_dispatcher(XML_SUFFIXES, iter_xml_payloads)
