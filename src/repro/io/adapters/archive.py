"""Zip and tar adapters: archive bytes in, member payloads out.

Members are enumerated in sorted-name order (archives record
insertion order, which is a build artifact, not content), filtered to
the suffixes the lake crawl recognises (and, when one locator is
wanted, to the members on the way to it), and read with a per-member
budget of ``policy.max_bytes + 1`` bytes — one byte over, so the
ingest size guard still *sees* an oversize member (strict mode
rejects it, lenient mode truncates and reports) while a pathological
member cannot balloon memory.  Nested containers (a zip inside a
tar) recurse through the shared dispatcher up to the depth budget.

Any damage the stdlib surfaces — truncated central directory, bad
compressed stream, unsupported compression — is re-raised as a typed
:class:`~repro.errors.AdapterError`; raw ``zipfile``/``tarfile``
exceptions never escape.
"""

from __future__ import annotations

import io
import lzma
import tarfile
import zipfile
import zlib
from typing import Iterator

from repro.errors import AdapterError
from repro.io.adapters.base import (
    DEFAULT_POLICY,
    SOURCE_SUFFIXES,
    TAR_SUFFIXES,
    ZIP_SUFFIXES,
    IngestPolicy,
    SourcePayload,
    join_provenance,
    leads_to,
    payloads_from_bytes,
    register_dispatcher,
    suffix_matches,
)

#: What a damaged or unsupported archive raises inside the stdlib.
#: ``RuntimeError`` is zipfile's channel for encrypted members,
#: ``NotImplementedError`` its channel for unknown compression types,
#: and the compression codecs add their own error classes.
_ARCHIVE_DAMAGE: tuple[type[BaseException], ...] = (
    zipfile.BadZipFile,
    zipfile.LargeZipFile,
    tarfile.TarError,
    OSError,
    EOFError,
    ValueError,
    NotImplementedError,
    RuntimeError,
    zlib.error,
    lzma.LZMAError,
)


def iter_zip_payloads(
    name: str,
    data: bytes,
    policy: IngestPolicy = DEFAULT_POLICY,
    depth: int = 0,
    wanted: str | None = None,
) -> Iterator[SourcePayload]:
    """Every recognised member of the zip archive ``data`` (only those
    on the way to ``wanted``, when given)."""
    try:
        with zipfile.ZipFile(io.BytesIO(data)) as archive:
            members = sorted(
                info.filename
                for info in archive.infolist()
                if not info.is_dir()
                and suffix_matches(info.filename, SOURCE_SUFFIXES)
                and leads_to(name, info.filename, wanted)
            )
            for member in members:
                with archive.open(member) as handle:
                    payload = handle.read(policy.max_bytes + 1)
                yield from payloads_from_bytes(
                    join_provenance(name, member),
                    payload,
                    policy,
                    depth + 1,
                    wanted,
                )
    except AdapterError:
        raise
    except _ARCHIVE_DAMAGE as exc:
        raise AdapterError(
            f"cannot read zip {name!r}: "
            f"{type(exc).__name__}: {exc}"
        ) from exc


def iter_tar_payloads(
    name: str,
    data: bytes,
    policy: IngestPolicy = DEFAULT_POLICY,
    depth: int = 0,
    wanted: str | None = None,
) -> Iterator[SourcePayload]:
    """Every recognised member of the (possibly compressed) tar
    archive ``data`` (only those on the way to ``wanted``, when
    given); compression is auto-detected (``r:*``)."""
    try:
        with tarfile.open(fileobj=io.BytesIO(data), mode="r:*") as archive:
            members = sorted(
                member.name
                for member in archive.getmembers()
                if member.isfile()
                and suffix_matches(member.name, SOURCE_SUFFIXES)
                and leads_to(name, member.name, wanted)
            )
            for member_name in members:
                handle = archive.extractfile(member_name)
                if handle is None:
                    continue
                with handle:
                    payload = handle.read(policy.max_bytes + 1)
                yield from payloads_from_bytes(
                    join_provenance(name, member_name),
                    payload,
                    policy,
                    depth + 1,
                    wanted,
                )
    except AdapterError:
        raise
    except _ARCHIVE_DAMAGE as exc:
        raise AdapterError(
            f"cannot read tar {name!r}: "
            f"{type(exc).__name__}: {exc}"
        ) from exc


register_dispatcher(ZIP_SUFFIXES, iter_zip_payloads)
register_dispatcher(TAR_SUFFIXES, iter_tar_payloads)
