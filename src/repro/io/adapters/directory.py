"""Directory and single-file adapters — the lake-crawl entry points.

:class:`DirectoryAdapter` fixes the CLI sweep's old
``glob("*.csv")``: the crawl is recursive (``rglob``), matches
suffixes case-insensitively (``data.CSV``, ``ARCHIVE.Zip``), and
opens every recognised container it finds.  Enumeration is sorted,
so two crawls of the same tree yield the same payload order.

A container that cannot be opened (corrupt zip, malformed NDJSON) is
*skipped, not fatal*: the crawl records ``(provenance, reason)`` on
``DirectoryAdapter.skipped`` and moves on — a lake sweep must survive
one bad archive — while :class:`FileAdapter` (one explicit source)
propagates the :class:`~repro.errors.AdapterError` to the caller.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator

from repro.errors import AdapterError
from repro.io.adapters.base import (
    DEFAULT_POLICY,
    SOURCE_SUFFIXES,
    IngestPolicy,
    SourcePayload,
    payloads_from_bytes,
    suffix_matches,
)
from repro.obs import get_tracer


class FileAdapter:
    """One explicit source file: a loose table or a container."""

    def __init__(
        self,
        path: str | Path,
        policy: IngestPolicy = DEFAULT_POLICY,
    ):
        self.path = Path(path)
        self.policy = policy

    def candidates(self) -> list[Path]:
        """The single path (empty when it does not exist)."""
        return [self.path] if self.path.is_file() else []

    def iterate(self) -> Iterator[SourcePayload]:
        try:
            data = self.path.read_bytes()
        except OSError as exc:
            raise AdapterError(
                f"cannot read {self.path}: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        yield from payloads_from_bytes(
            str(self.path), data, self.policy
        )


class DirectoryAdapter:
    """Recursive, case-insensitive crawl over a directory tree."""

    def __init__(
        self,
        root: str | Path,
        policy: IngestPolicy = DEFAULT_POLICY,
        suffixes: tuple[str, ...] = SOURCE_SUFFIXES,
        recursive: bool = True,
    ):
        self.root = Path(root)
        self.policy = policy
        self.suffixes = tuple(s.lower() for s in suffixes)
        self.recursive = recursive
        #: ``(provenance, reason)`` for every entry the last
        #: :meth:`iterate` could not enumerate; reset per call.
        self.skipped: list[tuple[str, str]] = []

    def candidates(self) -> list[Path]:
        """Every file in the tree with a recognised suffix, sorted."""
        if not self.root.is_dir():
            raise AdapterError(
                f"not a directory: {self.root}"
            )
        with get_tracer().span("adapter_enumerate"):
            if self.recursive:
                walked = sorted(self.root.rglob("*"))
            else:
                walked = sorted(self.root.glob("*"))
            return [
                path for path in walked
                if path.is_file()
                and suffix_matches(path.name, self.suffixes)
            ]

    def iterate(self) -> Iterator[SourcePayload]:
        self.skipped = []
        for path in self.candidates():
            try:
                data = path.read_bytes()
            except OSError as exc:
                self.skipped.append(
                    (str(path), f"{type(exc).__name__}: {exc}")
                )
                continue
            try:
                yield from payloads_from_bytes(
                    str(path), data, self.policy
                )
            except AdapterError as exc:
                # Payloads already yielded from a container that dies
                # mid-enumeration stand; the container itself is
                # recorded as skipped.
                self.skipped.append((str(path), str(exc)))
                continue


def adapter_for(
    path: str | Path, policy: IngestPolicy = DEFAULT_POLICY
) -> "DirectoryAdapter | FileAdapter":
    """The right adapter for ``path``: a crawl for directories, a
    single-source adapter for files."""
    target = Path(path)
    if target.is_dir():
        return DirectoryAdapter(target, policy)
    return FileAdapter(target, policy)


def iter_source(
    path: str | Path, policy: IngestPolicy = DEFAULT_POLICY
) -> Iterator[SourcePayload]:
    """Enumerate every payload under ``path`` (file or directory)."""
    return adapter_for(path, policy).iterate()
