"""Source adapters: containers in, ingest-ready payloads out.

The paper's corpora are loose verbose-CSV files, but real data lakes
deliver the same content inside directories, zip/tar archives, NDJSON
logs and XML dumps.  An adapter's only job is *enumeration*: turn one
source location into a deterministic sequence of
:class:`SourcePayload` items — raw bytes plus a provenance string —
and hand every payload to the hardened :mod:`repro.io.ingest` front
door.  Adapters never decode bytes into a :class:`~repro.types.Table`
themselves, so the fuzz/strict/report guarantees of PR 4 carry over
to every container unchanged.

Provenance is a locator string: a loose file is its path, a container
member is ``container.zip!member.csv`` (nested containers chain the
``!`` separator; derived tables such as NDJSON records use the same
scheme, e.g. ``log.ndjson!records``).  The locator threads through
``CorpusEngine.process_payloads`` into ``FileResult.path`` and the
serve wire, and :func:`read_source` resolves it back to bytes.

Failure contract: a container that cannot be enumerated raises
:class:`~repro.errors.AdapterError` — a typed
:class:`~repro.errors.IngestError` — never a raw ``zipfile`` /
``tarfile`` / ``json`` / ``xml`` exception.  The adapter fuzz mode
(``repro fuzz --adapters``) locks this in.

Concrete adapters register themselves here at import time (the
package ``__init__`` imports them all), keyed by filename suffix;
:func:`payloads_from_bytes` is the shared dispatcher used by the
directory crawl, nested archive members and the fuzz harness alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Protocol, runtime_checkable

from repro.errors import AdapterError
from repro.io.ingest import DEFAULT_POLICY, IngestPolicy
from repro.obs import get_metrics

#: Separator between a container locator and a member name inside it.
PROVENANCE_SEPARATOR = "!"

#: How deep containers may nest (a zip inside a tar inside a zip is
#: depth 3).  Beyond this an enumeration raises AdapterError — the
#: typed answer to zip-bomb-style recursion.
MAX_CONTAINER_DEPTH = 3

#: Suffix groups, all matched case-insensitively.
TABLE_SUFFIXES: tuple[str, ...] = (".csv", ".tsv")
ZIP_SUFFIXES: tuple[str, ...] = (".zip",)
TAR_SUFFIXES: tuple[str, ...] = (
    ".tar", ".tgz", ".tar.gz", ".tar.bz2", ".tar.xz",
)
NDJSON_SUFFIXES: tuple[str, ...] = (".ndjson", ".jsonl")
XML_SUFFIXES: tuple[str, ...] = (".xml",)
CONTAINER_SUFFIXES: tuple[str, ...] = (
    ZIP_SUFFIXES + TAR_SUFFIXES + NDJSON_SUFFIXES + XML_SUFFIXES
)
#: Everything a lake crawl picks up.
SOURCE_SUFFIXES: tuple[str, ...] = TABLE_SUFFIXES + CONTAINER_SUFFIXES


@dataclass(frozen=True)
class SourcePayload:
    """One ingest-ready table source produced by an adapter.

    ``data`` is raw bytes destined for ``ingest_bytes`` (*not* text:
    encoding resolution belongs to the front door); ``provenance`` is
    the full locator (``lake/archive.zip!a/b.csv``) and ``source_id``
    its human-scale leaf name (``b.csv``).
    """

    source_id: str
    data: bytes
    provenance: str


@runtime_checkable
class SourceAdapter(Protocol):
    """The adapter protocol: one method, a deterministic enumeration."""

    def iterate(self) -> Iterator[SourcePayload]:
        """Yield every table source in this adapter's location."""
        ...


def join_provenance(container: str, member: str) -> str:
    """The locator of ``member`` inside ``container``."""
    return f"{container}{PROVENANCE_SEPARATOR}{member}"


def split_provenance(locator: str) -> tuple[str, str | None]:
    """Split a locator into ``(container_path, member_locator)``;
    the member part is ``None`` for a plain file path."""
    if PROVENANCE_SEPARATOR not in locator:
        return locator, None
    container, member = locator.split(PROVENANCE_SEPARATOR, 1)
    return container, member


def suffix_matches(name: str, suffixes: tuple[str, ...]) -> bool:
    """Case-insensitive suffix test (``data.CSV`` matches ``.csv``)."""
    lowered = name.lower()
    return any(lowered.endswith(suffix) for suffix in suffixes)


def is_container_name(name: str) -> bool:
    """Whether ``name`` names a container the adapters can open."""
    return suffix_matches(name, CONTAINER_SUFFIXES)


#: A dispatcher turns container bytes into payloads:
#: ``(name, data, policy, depth, wanted) -> Iterator[SourcePayload]``.
#: With a ``wanted`` locator, an archive dispatcher opens only the
#: members on the way to it (:func:`leads_to`); record streams parse
#: their whole document either way.
Dispatcher = Callable[
    [str, bytes, IngestPolicy, int, "str | None"], Iterator[SourcePayload]
]

#: Ordered suffix -> dispatcher registry; concrete adapter modules
#: append at import time, so the order is fixed by the package
#: ``__init__`` and enumeration stays deterministic.
_DISPATCHERS: list[tuple[tuple[str, ...], Dispatcher]] = []


def register_dispatcher(
    suffixes: tuple[str, ...], dispatcher: Dispatcher
) -> None:
    """Register a container dispatcher for a suffix group."""
    _DISPATCHERS.append((suffixes, dispatcher))


def leads_to(container: str, member: str, wanted: str | None) -> bool:
    """Whether ``member`` of ``container`` is the ``wanted`` source or
    a container on the way to it (always, when nothing in particular
    is wanted)."""
    if wanted is None:
        return True
    locator = join_provenance(container, member)
    return wanted == locator or wanted.startswith(
        locator + PROVENANCE_SEPARATOR
    )


def payloads_from_bytes(
    name: str,
    data: bytes,
    policy: IngestPolicy = DEFAULT_POLICY,
    depth: int = 0,
    wanted: str | None = None,
) -> Iterator[SourcePayload]:
    """Dispatch raw bytes named ``name`` to the matching adapter.

    Container suffixes fan out into their members (recursively, up to
    :data:`MAX_CONTAINER_DEPTH`); anything else is a table payload
    passed through as-is, with ``name`` as its provenance.  With a
    ``wanted`` locator, archives open only the members on the way to
    it.  Raises :class:`~repro.errors.AdapterError` when a container
    is damaged or nested too deeply.

    Each payload counts once in ``adapter.sources``, where it is
    produced: a table here, a record table in its stream's adapter.
    """
    metrics = get_metrics()
    if depth > MAX_CONTAINER_DEPTH:
        metrics.increment("adapter.errors")
        raise AdapterError(
            f"container nesting deeper than {MAX_CONTAINER_DEPTH} "
            f"at {name!r}"
        )
    for suffixes, dispatcher in _DISPATCHERS:
        if not suffix_matches(name, suffixes):
            continue
        metrics.increment("adapter.containers")
        try:
            yield from dispatcher(name, data, policy, depth, wanted)
        except AdapterError:
            metrics.increment("adapter.errors")
            raise
        return
    metrics.increment("adapter.sources")
    yield SourcePayload(
        source_id=_leaf_name(name), data=data, provenance=name
    )


def read_source(
    locator: str, policy: IngestPolicy = DEFAULT_POLICY
) -> bytes:
    """Resolve a path or provenance locator back to payload bytes.

    A plain path reads directly (``OSError`` propagates, as for any
    missing file); a ``container!member`` locator returns the payload
    the container's enumeration yields under it — so the serve wire
    can classify any source a sweep reported, by its provenance.  An
    archive opens only the member named (one level at a time for a
    nested locator), so a late member costs what an early one does; a
    record stream is parsed whole.  A container named without a
    member holds sources, not one table: it raises
    :class:`~repro.errors.AdapterError`.
    """
    container, member = split_provenance(locator)
    if member is None and is_container_name(container):
        raise AdapterError(
            f"{locator!r} is a container, not one table; name one of "
            f"its sources as '{locator}{PROVENANCE_SEPARATOR}<member>'"
        )
    data = Path(container).read_bytes()
    if member is None:
        return data
    for payload in payloads_from_bytes(
        container, data, policy, wanted=locator
    ):
        if payload.provenance == locator:
            return payload.data
    raise AdapterError(
        f"no source {locator!r} found in container {container!r}"
    )


def _leaf_name(name: str) -> str:
    """The human-scale leaf of a locator (``b.csv`` of
    ``lake/a.zip!sub/b.csv``)."""
    leaf = name.rsplit(PROVENANCE_SEPARATOR, 1)[-1]
    return leaf.replace("\\", "/").rsplit("/", 1)[-1]
