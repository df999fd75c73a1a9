"""Tests for the source-adapter layer (:mod:`repro.io.adapters`)."""

from __future__ import annotations

import io
import re
import tarfile
import zipfile

import numpy as np
import pytest

from repro.core.strudel import StrudelPipeline
from repro.errors import AdapterError, IngestError, ReproError
from repro.fuzz.mutations import CONTAINER_BUILDERS
from repro.io.adapters import (
    CONTAINER_SUFFIXES,
    MAX_CONTAINER_DEPTH,
    SOURCE_SUFFIXES,
    DirectoryAdapter,
    FileAdapter,
    SourceAdapter,
    SourcePayload,
    adapter_for,
    is_container_name,
    iter_ndjson_payloads,
    iter_source,
    iter_xml_payloads,
    iter_zip_payloads,
    join_provenance,
    payloads_from_bytes,
    read_source,
    split_provenance,
    suffix_matches,
)
from repro.io.ingest import IngestPolicy, ingest_bytes
from repro.io.writer import write_csv_text
from repro.obs import get_metrics
from repro.perf.engine import CorpusEngine, FileResult

ROWS = "Region,Q1,Q2\nNorth,5,7\nSouth,6,8\nTotal,11,15\n"


def _zip_bytes(members: dict[str, bytes]) -> bytes:
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w") as archive:
        for name, data in members.items():
            archive.writestr(zipfile.ZipInfo(name), data)
    return buffer.getvalue()


def _tar_bytes(members: dict[str, bytes]) -> bytes:
    buffer = io.BytesIO()
    with tarfile.open(fileobj=buffer, mode="w") as archive:
        for name, data in members.items():
            info = tarfile.TarInfo(name)
            info.size = len(data)
            archive.addfile(info, io.BytesIO(data))
    return buffer.getvalue()


class TestProvenanceHelpers:
    def test_join_and_split_roundtrip(self):
        locator = join_provenance("lake/arch.zip", "sub/a.csv")
        assert locator == "lake/arch.zip!sub/a.csv"
        assert split_provenance(locator) == ("lake/arch.zip", "sub/a.csv")

    def test_split_plain_path(self):
        assert split_provenance("lake/a.csv") == ("lake/a.csv", None)

    def test_split_keeps_nested_member_whole(self):
        # Only the first separator splits: the member part of a nested
        # locator is itself a locator.
        container, member = split_provenance("a.zip!inner.zip!b.csv")
        assert container == "a.zip"
        assert member == "inner.zip!b.csv"

    def test_suffix_matching_is_case_insensitive(self):
        assert suffix_matches("DATA.CSV", (".csv",))
        assert suffix_matches("dump.Tar.GZ", (".tar.gz",))
        assert not suffix_matches("notes.txt", SOURCE_SUFFIXES)

    def test_container_names(self):
        assert is_container_name("arch.zip")
        assert is_container_name("log.NDJSON")
        assert not is_container_name("table.csv")
        for suffix in CONTAINER_SUFFIXES:
            assert is_container_name(f"x{suffix}")


class TestDirectoryAdapter:
    def test_recursive_mixed_case_crawl(self, tmp_path):
        (tmp_path / "sub" / "deep").mkdir(parents=True)
        (tmp_path / "a.csv").write_text(ROWS, encoding="utf-8")
        (tmp_path / "sub" / "B.CSV").write_text(ROWS, encoding="utf-8")
        (tmp_path / "sub" / "deep" / "c.tsv").write_text(
            ROWS.replace(",", "\t"), encoding="utf-8"
        )
        (tmp_path / "sub" / "ignored.txt").write_text("x")
        adapter = DirectoryAdapter(tmp_path, IngestPolicy())
        payloads = list(adapter.iterate())
        names = [p.source_id for p in payloads]
        assert names == ["a.csv", "B.CSV", "c.tsv"]
        assert adapter.skipped == []

    def test_enumeration_is_deterministic(self, tmp_path):
        for name in ("z.csv", "a.csv", "m.csv"):
            (tmp_path / name).write_text(ROWS, encoding="utf-8")
        first = [p.provenance for p in iter_source(tmp_path)]
        second = [p.provenance for p in iter_source(tmp_path)]
        assert first == second == sorted(first)

    def test_damaged_container_is_skipped_not_fatal(self, tmp_path):
        (tmp_path / "good.csv").write_text(ROWS, encoding="utf-8")
        (tmp_path / "broken.zip").write_bytes(b"PK\x03\x04 not a zip")
        adapter = DirectoryAdapter(tmp_path, IngestPolicy())
        payloads = list(adapter.iterate())
        assert [p.source_id for p in payloads] == ["good.csv"]
        assert len(adapter.skipped) == 1
        assert "broken.zip" in adapter.skipped[0][0]

    def test_non_directory_raises_typed(self, tmp_path):
        adapter = DirectoryAdapter(tmp_path / "missing", IngestPolicy())
        with pytest.raises(AdapterError):
            list(adapter.iterate())

    def test_adapter_for_selects_by_path_kind(self, tmp_path):
        (tmp_path / "a.csv").write_text(ROWS, encoding="utf-8")
        assert isinstance(adapter_for(tmp_path), DirectoryAdapter)
        file_adapter = adapter_for(tmp_path / "a.csv")
        assert isinstance(file_adapter, FileAdapter)
        assert isinstance(file_adapter, SourceAdapter)

    def test_file_adapter_propagates_container_damage(self, tmp_path):
        # An explicitly named broken container is an error, unlike the
        # lake crawl which records it and moves on.
        broken = tmp_path / "broken.zip"
        broken.write_bytes(b"not a zip at all")
        with pytest.raises(AdapterError):
            list(FileAdapter(broken).iterate())


class TestArchiveAdapters:
    def test_zip_members_enumerate_sorted(self):
        data = _zip_bytes({
            "b.csv": ROWS.encode("utf-8"),
            "sub/a.csv": ROWS.encode("utf-8"),
            "notes.txt": b"ignored",
        })
        payloads = list(iter_zip_payloads("arch.zip", data))
        assert [p.provenance for p in payloads] == [
            "arch.zip!b.csv", "arch.zip!sub/a.csv"
        ]
        assert payloads[0].data == ROWS.encode("utf-8")
        assert payloads[0].source_id == "b.csv"

    def test_tar_members_enumerate(self, tmp_path):
        data = _tar_bytes({"one.csv": ROWS.encode("utf-8")})
        (tmp_path / "arch.tar").write_bytes(data)
        payloads = list(iter_source(tmp_path / "arch.tar"))
        assert len(payloads) == 1
        assert payloads[0].provenance.endswith("arch.tar!one.csv")
        assert payloads[0].data == ROWS.encode("utf-8")

    def test_nested_archive_recurses(self):
        inner = _zip_bytes({"deep.csv": ROWS.encode("utf-8")})
        outer = _zip_bytes({"inner.zip": inner})
        payloads = list(iter_zip_payloads("outer.zip", outer))
        assert [p.provenance for p in payloads] == [
            "outer.zip!inner.zip!deep.csv"
        ]
        assert payloads[0].source_id == "deep.csv"

    def test_nesting_bomb_hits_depth_budget(self):
        data = _zip_bytes({"leaf.csv": ROWS.encode("utf-8")})
        for level in range(MAX_CONTAINER_DEPTH + 1):
            data = _zip_bytes({f"level{level}.zip": data})
        with pytest.raises(AdapterError, match="nesting"):
            list(payloads_from_bytes("bomb.zip", data))

    def test_truncated_zip_raises_typed(self):
        data = _zip_bytes({"a.csv": ROWS.encode("utf-8")})
        with pytest.raises(AdapterError):
            list(iter_zip_payloads("cut.zip", data[: len(data) // 2]))

    def test_per_member_budget_defers_to_ingest_guard(self):
        # A member larger than max_bytes is read to max_bytes + 1 so
        # the ingest size guard still fires: strict rejects, lenient
        # truncates honestly — never unbounded memory.
        policy = IngestPolicy(max_bytes=16)
        big = ("a,b\n" * 100).encode("utf-8")
        data = _zip_bytes({"big.csv": big})
        payloads = list(iter_zip_payloads("arch.zip", data, policy))
        assert len(payloads[0].data) == policy.max_bytes + 1
        result = ingest_bytes(payloads[0].data, policy=policy)
        assert result.report.truncated_bytes > 0


class TestRecordAdapters:
    def test_ndjson_objects_become_one_table(self):
        data = (
            b'{"name": "North", "q1": 5}\n'
            b'{"name": "South", "q1": 6, "tags": ["a", "b"]}\n'
        )
        payloads = list(iter_ndjson_payloads("log.ndjson", data))
        assert len(payloads) == 1
        assert payloads[0].provenance == "log.ndjson!records"
        lines = payloads[0].data.decode("utf-8").splitlines()
        assert lines[0] == "name,q1,tags"
        assert lines[1] == "North,5,"
        assert lines[2] == "South,6,a|b"

    def test_ndjson_arrays_and_scalars(self):
        payloads = list(iter_ndjson_payloads(
            "x.jsonl", b"[1, 2]\n[3]\n"
        ))
        lines = payloads[0].data.decode("utf-8").splitlines()
        assert lines == ["col0,col1", "1,2", "3,"]
        payloads = list(iter_ndjson_payloads("y.jsonl", b"1\n2\n"))
        assert payloads[0].data.decode("utf-8").splitlines() == [
            "value", "1", "2"
        ]

    def test_ndjson_bad_json_raises_typed(self):
        with pytest.raises(AdapterError, match="line 2"):
            list(iter_ndjson_payloads(
                "bad.ndjson", b'{"a": 1}\n{broken\n'
            ))

    def test_ndjson_mixed_shapes_raise_typed(self):
        with pytest.raises(AdapterError, match="shapes"):
            list(iter_ndjson_payloads("mix.ndjson", b'{"a": 1}\n[1]\n'))

    def test_xml_one_table_per_element_tag(self):
        data = (
            b"<dblp>"
            b'<article key="a1"><author>A</author><author>B</author>'
            b"<title>T</title></article>"
            b'<book key="b1"><title>BT</title></book>'
            b'<article key="a2"><title>U</title></article>'
            b"</dblp>"
        )
        payloads = list(iter_xml_payloads("dump.xml", data))
        assert [p.provenance for p in payloads] == [
            "dump.xml!article", "dump.xml!book"
        ]
        articles = payloads[0].data.decode("utf-8").splitlines()
        assert articles[0] == "key,author,title"
        assert articles[1] == "a1,A|B,T"
        assert articles[2] == "a2,,U"
        books = payloads[1].data.decode("utf-8").splitlines()
        assert books == ["key,title", "b1,BT"]

    def test_xml_parse_error_raises_typed(self):
        with pytest.raises(AdapterError, match="XML"):
            list(iter_xml_payloads("bad.xml", b"<a><b></a>"))

    def test_record_errors_are_ingest_errors(self):
        # Callers already handling IngestError get container failures
        # for free; everything stays under ReproError.
        assert issubclass(AdapterError, IngestError)
        assert issubclass(AdapterError, ReproError)


class TestReadSource:
    def test_plain_path_roundtrip(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text(ROWS, encoding="utf-8")
        assert read_source(str(path)) == ROWS.encode("utf-8")

    def test_archive_member_roundtrip(self, tmp_path):
        archive = tmp_path / "arch.zip"
        archive.write_bytes(_zip_bytes({"m.csv": ROWS.encode("utf-8")}))
        locator = f"{archive}!m.csv"
        assert read_source(locator) == ROWS.encode("utf-8")

    def test_derived_table_roundtrip(self, tmp_path):
        log = tmp_path / "log.ndjson"
        log.write_text('{"a": 1}\n', encoding="utf-8")
        data = read_source(f"{log}!records")
        assert data.decode("utf-8").splitlines() == ["a", "1"]

    def test_missing_member_raises_typed(self, tmp_path):
        archive = tmp_path / "arch.zip"
        archive.write_bytes(_zip_bytes({"m.csv": ROWS.encode("utf-8")}))
        with pytest.raises(AdapterError, match="no source"):
            read_source(f"{archive}!absent.csv")

    def test_missing_container_propagates_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_source(str(tmp_path / "gone.zip") + "!m.csv")

    @pytest.mark.parametrize("name", ["arch.zip", "arch.tar", "log.ndjson"])
    def test_container_without_member_raises_typed(self, tmp_path, name):
        """A container holds sources, not one table: its raw bytes are
        never returned as a payload, and the error shows the locator
        form that names one of its sources."""
        container = tmp_path / name
        container.write_bytes(
            _zip_bytes({"a.csv": b"a,b\n", "b.csv": b"c,d\n"})
            if name.endswith(".zip")
            else _tar_bytes({"a.csv": b"a,b\n"})
            if name.endswith(".tar")
            else b'{"a": 1}\n'
        )
        with pytest.raises(
            AdapterError, match=re.escape(f"{container}!<member>")
        ):
            read_source(str(container))


class TestReadSourceOpensOneMember:
    """``read_source`` gives a member's bytes as enumeration does, and
    an archive opens only the member named."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize(
        "kind", [kind for kind, _build in CONTAINER_BUILDERS]
    )
    def test_every_member_reads_as_enumerated(self, tmp_path, kind, seed):
        build = dict(CONTAINER_BUILDERS)[kind]
        rng = np.random.default_rng(seed)
        texts = [ROWS, ROWS.replace("North", "East"), "a;b\n1;2\n"]
        name, data = build(texts, rng)
        container = tmp_path / name
        container.write_bytes(data)
        payloads = list(payloads_from_bytes(str(container), data))
        assert payloads
        for payload in payloads:
            assert read_source(payload.provenance) == payload.data
        with pytest.raises(AdapterError, match="no source"):
            read_source(f"{container}!absent.csv")

    def test_a_damaged_neighbour_does_not_stop_the_member(self, tmp_path):
        """The member before the one named has a bad CRC: enumerating
        the archive fails on it, reading the named member does not."""
        archive = tmp_path / "arch.zip"
        data = bytearray(
            _zip_bytes({"a.csv": b"x,y\n1,2\n", "b.csv": ROWS.encode()})
        )
        with zipfile.ZipFile(io.BytesIO(bytes(data))) as opened:
            info = opened.getinfo("a.csv")
        data[info.header_offset + 30 + len("a.csv")] ^= 0xFF
        archive.write_bytes(bytes(data))
        with pytest.raises(AdapterError, match="cannot read zip"):
            list(iter_source(archive))
        assert read_source(f"{archive}!b.csv") == ROWS.encode()
        with pytest.raises(AdapterError, match="cannot read zip"):
            read_source(f"{archive}!a.csv")

    def test_a_nested_member_reads_one_level_at_a_time(self, tmp_path):
        inner = _zip_bytes({"deep.csv": ROWS.encode(), "other.csv": b"q\n"})
        archive = tmp_path / "outer.tar"
        archive.write_bytes(_tar_bytes({"inner.zip": inner, "z.csv": b"z\n"}))
        assert read_source(f"{archive}!inner.zip!deep.csv") == ROWS.encode()
        with pytest.raises(AdapterError, match="no source"):
            read_source(f"{archive}!inner.zip!absent.csv")
        with pytest.raises(AdapterError, match="no source"):
            read_source(f"{archive}!inner.zip")


class TestSourceCounter:
    """``adapter.sources`` counts each payload once, where it is
    produced."""

    @staticmethod
    def _moved(action) -> int:
        metrics = get_metrics()
        before = metrics.counter("adapter.sources")
        action()
        return metrics.counter("adapter.sources") - before

    def test_a_loose_file_counts_one(self):
        assert self._moved(
            lambda: list(payloads_from_bytes("a.csv", ROWS.encode()))
        ) == 1

    def test_a_two_member_zip_counts_two(self):
        data = _zip_bytes({"a.csv": b"1\n", "b.csv": b"2\n"})
        assert self._moved(
            lambda: list(payloads_from_bytes("arch.zip", data))
        ) == 2

    def test_an_ndjson_log_counts_one(self):
        data = b'{"a": 1}\n{"a": 2}\n'
        assert self._moved(
            lambda: list(payloads_from_bytes("log.ndjson", data))
        ) == 1

    def test_an_xml_dump_counts_its_tables(self):
        data = b"<r><article><t>a</t></article><book><t>b</t></book></r>"
        assert self._moved(
            lambda: list(payloads_from_bytes("dump.xml", data))
        ) == 2

    def test_a_zip_in_a_zip_counts_its_members(self):
        inner = _zip_bytes({"a.csv": b"1\n", "b.csv": b"2\n"})
        outer = _zip_bytes({"inner.zip": inner, "c.csv": b"3\n"})
        assert self._moved(
            lambda: list(payloads_from_bytes("outer.zip", outer))
        ) == 3

    def test_reading_the_last_of_fifty_members_counts_one(self, tmp_path):
        archive = tmp_path / "big.zip"
        archive.write_bytes(
            _zip_bytes({f"m{i}.csv": f"{i}\n".encode() for i in range(50)})
        )
        assert self._moved(lambda: read_source(f"{archive}!m49.csv")) == 1


@pytest.fixture(scope="module")
def fitted_pipeline(tiny_corpus) -> StrudelPipeline:
    pipeline = StrudelPipeline(n_estimators=4, random_state=0)
    pipeline.fit(tiny_corpus.files)
    return pipeline


class TestSweepParity:
    """The acceptance property: a loose file, the same file inside a
    zip, and the same file inside a tar classify byte-identically."""

    def test_loose_zip_tar_results_identical(
        self, tmp_path, tiny_corpus, fitted_pipeline
    ):
        lake = tmp_path / "lake"
        (lake / "loose").mkdir(parents=True)
        members: dict[str, bytes] = {}
        for file in tiny_corpus.files[:4]:
            data = write_csv_text(file.table.rows()).encode("utf-8")
            (lake / "loose" / f"{file.name}.csv").write_bytes(data)
            members[f"{file.name}.csv"] = data
        (lake / "lake.zip").write_bytes(_zip_bytes(members))
        (lake / "lake.tar").write_bytes(_tar_bytes(members))

        payloads = list(iter_source(lake))
        assert len(payloads) == 3 * len(members)
        with CorpusEngine(
            fitted_pipeline, n_jobs=1, policy=IngestPolicy()
        ) as engine:
            results, report = engine.process_payloads(
                [(p.provenance, p.data) for p in payloads]
            )
        assert report.skipped == []

        by_member: dict[str, dict[str, FileResult]] = {}
        for payload, result in zip(payloads, results):
            container, member = split_provenance(payload.provenance)
            variant = container.rsplit("/", 1)[-1] if member else "loose"
            by_member.setdefault(payload.source_id, {})[variant] = result
        assert len(by_member) == len(members)
        for variants in by_member.values():
            assert set(variants) == {"loose", "lake.zip", "lake.tar"}
            loose = variants["loose"]
            for archived in ("lake.zip", "lake.tar"):
                other = variants[archived]
                assert (
                    loose.line_codes.tobytes()
                    == other.line_codes.tobytes()
                )
                assert (
                    loose.cell_positions.tobytes()
                    == other.cell_positions.tobytes()
                )
                assert (
                    loose.cell_codes.tobytes()
                    == other.cell_codes.tobytes()
                )

    def test_provenance_threads_into_results(
        self, tmp_path, tiny_corpus, fitted_pipeline
    ):
        file = tiny_corpus.files[0]
        data = write_csv_text(file.table.rows()).encode("utf-8")
        archive = tmp_path / "arch.zip"
        archive.write_bytes(_zip_bytes({"m.csv": data}))
        payloads = list(iter_source(archive))
        with CorpusEngine(
            fitted_pipeline, n_jobs=1, policy=IngestPolicy()
        ) as engine:
            results, _report = engine.process_payloads(
                [(p.provenance, p.data) for p in payloads]
            )
        assert results[0].provenance == f"{archive}!m.csv"
        # read_source resolves the reported provenance back to the
        # exact bytes the engine classified.
        assert read_source(results[0].provenance) == data
