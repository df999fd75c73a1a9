"""The serve layer: protocol, dead-letter queue, service, replay.

The contract under test is the sweep parity contract extended across
the service boundary: a payload classified through the asyncio front
end — in-process or over the ``repro-serve/1`` wire — produces the
same prediction bytes as a direct engine sweep.  The failure half
mirrors the engine's loud-degradation promise: every failed request
resolves to a :class:`SkipEntry`, lands durably in the DLQ, and is
recoverable by ``replay`` once the cause (here: a strict policy) is
fixed.
"""

from __future__ import annotations

import asyncio
import hashlib
import io
import json
import zipfile

import pytest

from repro.core.strudel import StrudelPipeline
from repro.errors import ProtocolError, ServeError
from repro.io.ingest import IngestPolicy
from repro.io.writer import write_csv_text
from repro.obs import get_metrics
from repro.perf.engine import CorpusEngine, FileResult, SkipEntry
from repro.serve import service as service_mod
from repro.serve import (
    DLQ_SCHEMA,
    ClassificationService,
    DeadLetter,
    DeadLetterQueue,
    connect,
    decode_request,
    decode_response,
    encode_request,
    replay_dead_letters,
    result_from_payload,
)

#: Bytes the lenient ingest policy repairs but the strict one rejects.
DAMAGED = b"Region,Q1\nNorth,\x005\nSouth,6\n"

#: A deterministic clock for byte-exact dead-letter records.
T0 = "2026-01-01T00:00:00+00:00"

#: A well-formed wire result: two lines, three non-empty cells.
RESULT = {
    "path": "a.csv",
    "n_rows": 2,
    "n_cols": 2,
    "dialect": {"delimiter": ",", "quotechar": '"', "escapechar": ""},
    "line_classes": ["header", "data"],
    "cells": [[0, 0, "header"], [1, 0, "data"], [1, 1, "data"]],
}


# ----------------------------------------------------------------------
# Fixtures
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fitted_pipeline(tiny_corpus) -> StrudelPipeline:
    pipeline = StrudelPipeline(n_estimators=4, random_state=0)
    pipeline.fit(tiny_corpus.files)
    return pipeline


@pytest.fixture(scope="module")
def corpus_dir(tiny_corpus, tmp_path_factory):
    directory = tmp_path_factory.mktemp("serve_corpus")
    paths = []
    for file in tiny_corpus.files[:4]:
        path = directory / f"{file.name}.csv"
        path.write_text(
            write_csv_text(file.table.rows()), encoding="utf-8"
        )
        paths.append(path)
    return paths


def _zip(path, members: dict[str, bytes]) -> None:
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w") as archive:
        for name, data in members.items():
            archive.writestr(name, data)
    path.write_bytes(buffer.getvalue())


def _arrays(result: FileResult):
    return (
        result.dialect,
        result.line_codes.tobytes(),
        result.cell_positions.tobytes(),
        result.cell_codes.tobytes(),
    )


# ----------------------------------------------------------------------
# Protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_request_roundtrip_path(self):
        line = encode_request("r1", path="/data/a.csv")
        request = decode_request(line)
        assert request.id == "r1"
        assert request.op == "classify"
        assert request.path == "/data/a.csv"
        assert request.data is None
        assert request.display_name == "/data/a.csv"

    def test_request_roundtrip_bytes_with_name(self):
        line = encode_request("r2", data=b"a,b\n1,2\n", name="upload")
        request = decode_request(line)
        assert request.data == b"a,b\n1,2\n"
        assert request.path is None
        assert request.display_name == "upload"

    def test_request_without_name_labels_by_id(self):
        request = decode_request(encode_request("r9", data=b"x,y\n"))
        assert request.display_name == "<bytes:r9>"

    def test_op_defaults_to_classify(self):
        request = decode_request(b'{"id": "r1", "path": "a.csv"}\n')
        assert request.op == "classify"

    @pytest.mark.parametrize(
        "line",
        [
            b"\xff\xfe not utf-8",
            b"this is not json\n",
            b"[1, 2, 3]\n",
            b'{"op": "classify", "path": "a.csv"}\n',  # no id
            b'{"id": "", "path": "a.csv"}\n',  # empty id
            b'{"id": 7, "path": "a.csv"}\n',  # non-string id
            b'{"id": "r1", "op": "explode", "path": "a.csv"}\n',
            b'{"id": "r1"}\n',  # classify with no payload
            b'{"id": "r1", "path": "a", "data_b64": "YQ=="}\n',  # both
            b'{"id": "r1", "path": 4}\n',
            b'{"id": "r1", "data_b64": "!!!not base64!!!"}\n',
            b'{"id": "r1", "data_b64": 4}\n',
            b'{"id": "r1", "path": "a.csv", "name": 4}\n',
        ],
    )
    def test_violations_raise_protocol_error(self, line):
        with pytest.raises(ProtocolError):
            decode_request(line)

    def test_ping_and_stats_need_no_payload(self):
        assert decode_request(b'{"id": "r1", "op": "ping"}\n').op == "ping"
        assert (
            decode_request(b'{"id": "r2", "op": "stats"}\n').op
            == "stats"
        )

    @pytest.mark.parametrize(
        "payload",
        [
            {k: v for k, v in RESULT.items() if k != "cells"},
            {**RESULT, "cells": [[0, 0, "header"], [1, 0, "bogus"]]},
            {**RESULT, "cells": [[0, 0, "header"], [1, 0]]},
            list(RESULT.items()),
        ],
        ids=["missing-key", "unknown-class", "two-element-cell", "not-dict"],
    )
    def test_malformed_results_raise_protocol_error(self, payload):
        assert result_from_payload(RESULT).cell_codes.tolist() == [1, 3, 3]
        with pytest.raises(ProtocolError):
            result_from_payload(payload)

    @pytest.mark.parametrize(
        "line", [b"\xff\xfe not utf-8\n", b"not json\n", b"[1, 2]\n"]
    )
    def test_malformed_response_lines_raise_protocol_error(self, line):
        with pytest.raises(ProtocolError):
            decode_response(line)


# ----------------------------------------------------------------------
# DeadLetterQueue
# ----------------------------------------------------------------------
class TestDeadLetterQueue:
    def test_append_is_durable_and_deterministic(self, tmp_path):
        metrics = get_metrics()
        before = metrics.counter("serve.dead_letters")
        queue = DeadLetterQueue(tmp_path / "dlq", clock=lambda: T0)
        record = queue.append(
            "r1", "upload.csv", "classify", "boom", payload=DAMAGED
        )
        assert record.timestamp == T0
        assert record.payload_sha256 == hashlib.sha256(
            DAMAGED
        ).hexdigest()
        assert record.replays == 0
        assert metrics.counter("serve.dead_letters") == before + 1
        # Round-trips through the journal, payload included.
        reloaded = DeadLetterQueue(tmp_path / "dlq")
        assert reloaded.records() == [record]
        assert reloaded.payload(record) == DAMAGED
        assert len(reloaded) == 1
        # The journal line is the documented repro-dlq/1 shape.
        (line,) = (
            (tmp_path / "dlq" / "records.ndjson")
            .read_text(encoding="utf-8")
            .splitlines()
        )
        assert json.loads(line)["schema"] == DLQ_SCHEMA

    def test_append_rewrites_a_torn_payload(self, tmp_path):
        """A parked file cut short by a crash is written again by the
        next append of the same bytes, so replay reads them whole."""
        sha = hashlib.sha256(DAMAGED).hexdigest()
        parked = tmp_path / "payloads" / f"{sha}.bin"
        parked.parent.mkdir()
        parked.write_bytes(DAMAGED[:5])
        queue = DeadLetterQueue(tmp_path, clock=lambda: T0)
        record = queue.append(
            "r1", "damaged", "classify", "x", payload=DAMAGED
        )
        assert queue.payload(record) == DAMAGED
        assert sorted(parked.parent.iterdir()) == [parked]

    def test_read_failures_park_no_payload(self, tmp_path):
        queue = DeadLetterQueue(tmp_path, clock=lambda: T0)
        record = queue.append("r1", "gone.csv", "read", "ENOENT")
        assert record.payload_sha256 is None
        assert queue.payload(record) is None
        assert not (tmp_path / "payloads").exists()

    def test_corrupt_journal_lines_are_skipped(self, tmp_path):
        queue = DeadLetterQueue(tmp_path, clock=lambda: T0)
        queue.append("r1", "a.csv", "classify", "x", payload=b"a")
        queue.append("r2", "b.csv", "classify", "y", payload=b"b")
        with open(
            tmp_path / "records.ndjson", "a", encoding="utf-8"
        ) as handle:
            handle.write("definitely not json\n")
            handle.write('{"schema": "wrong/1", "request_id": "r3"}\n')
            handle.write('{"schema": "repro-dlq/1", "request_id": 7}\n')
        assert [r.request_id for r in queue.records()] == ["r1", "r2"]

    def test_replace_prunes_unreferenced_payloads(self, tmp_path):
        queue = DeadLetterQueue(tmp_path, clock=lambda: T0)
        keep = queue.append("r1", "a.csv", "classify", "x", payload=b"a")
        drop = queue.append("r2", "b.csv", "classify", "y", payload=b"b")
        queue.replace([keep])
        assert queue.records() == [keep]
        assert queue.payload(keep) == b"a"
        assert queue.payload(drop) is None

    def test_purge_empties_everything(self, tmp_path):
        queue = DeadLetterQueue(tmp_path, clock=lambda: T0)
        queue.append("r1", "a.csv", "classify", "x", payload=b"a")
        queue.append("r2", "b.csv", "read", "y")
        assert queue.purge() == 2
        assert len(queue) == 0
        assert list((tmp_path / "payloads").glob("*.bin")) == []

    def test_missing_directory_reads_as_empty(self, tmp_path):
        assert DeadLetterQueue(tmp_path / "never").records() == []

    def test_from_dict_rejects_malformed_records(self):
        assert DeadLetter.from_dict("not a dict") is None
        assert DeadLetter.from_dict({"schema": "other/1"}) is None


# ----------------------------------------------------------------------
# ClassificationService: in-process end to end
# ----------------------------------------------------------------------
class TestServiceRoundtrip:
    def test_serves_paths_and_bytes_byte_identical(
        self, fitted_pipeline, corpus_dir
    ):
        """The parity contract across the service boundary: served
        results match a direct engine sweep array-byte for array-byte,
        and the same payload as raw bytes matches its path twin."""

        async def drive():
            service = ClassificationService(fitted_pipeline, n_jobs=1)
            await service.start()
            served = await asyncio.gather(
                *[service.submit_path(p) for p in corpus_dir]
            )
            raw = await service.submit_bytes(
                corpus_dir[0].read_bytes(), name=str(corpus_dir[0])
            )
            summary = await service.drain()
            return served, raw, summary

        served, raw, summary = asyncio.run(drive())
        with CorpusEngine(fitted_pipeline, n_jobs=1) as engine:
            direct, report = engine.sweep_paths(corpus_dir)
        assert report.skipped == []
        assert [_arrays(r) for r in served] == [
            _arrays(result) for _path, result in direct
        ]
        assert _arrays(raw) == _arrays(served[0])
        assert summary["requests"] == len(corpus_dir) + 1
        assert summary["results"] == len(corpus_dir) + 1
        assert summary["dead_letters"] == 0
        assert summary["inflight"] == 0
        assert summary["accepting"] is False

    def test_drain_under_load_answers_everything(
        self, fitted_pipeline, corpus_dir, monkeypatch
    ):
        """Drain while requests are queued: every accepted request is
        still answered (queue.join semantics), then admission stops."""
        payloads = [p.read_bytes() for p in corpus_dir] * 5
        # Smaller batches than requests, so the drain spans several.
        monkeypatch.setattr(service_mod, "_BATCH_FILES", 8)

        async def drive():
            service = ClassificationService(fitted_pipeline, n_jobs=1)
            await service.start()
            tasks = [
                asyncio.ensure_future(
                    service.submit_bytes(data, name=f"p{i}")
                )
                for i, data in enumerate(payloads)
            ]
            # One tick: every submit passes admission and enqueues.
            await asyncio.sleep(0)
            summary = await service.drain()
            outcomes = await asyncio.gather(*tasks)
            with pytest.raises(ServeError):
                await service.submit_bytes(b"a,b\n", name="late")
            return outcomes, summary

        outcomes, summary = asyncio.run(drive())
        assert len(outcomes) == len(payloads)
        assert all(isinstance(o, FileResult) for o in outcomes)
        assert summary["requests"] == len(payloads)
        assert summary["results"] == len(payloads)
        assert summary["inflight"] == 0

    def test_a_container_path_is_a_read_failure(
        self, fitted_pipeline, corpus_dir, tmp_path
    ):
        """A path naming a whole archive is not one table: it fails at
        the read stage, naming the ``container!member`` form, while a
        member locator classifies like the loose file."""
        archive = tmp_path / "two.zip"
        _zip(archive, {
            "a.csv": corpus_dir[0].read_bytes(),
            "b.csv": corpus_dir[1].read_bytes(),
        })
        member = f"{archive}!a.csv"

        async def drive():
            service = ClassificationService(fitted_pipeline, n_jobs=1)
            await service.start()
            outcomes = await asyncio.gather(
                service.submit_path(archive),
                service.submit_path(member),
                service.submit_path(corpus_dir[0]),
            )
            await service.drain()
            return outcomes

        whole, by_member, loose = asyncio.run(drive())
        assert isinstance(whole, SkipEntry) and whole.stage == "read"
        assert "AdapterError" in whole.reason
        assert f"{archive}!" in whole.reason
        assert isinstance(by_member, FileResult)
        assert by_member.provenance == member
        assert _arrays(by_member) == _arrays(loose)

    def test_served_read_failures_count_like_a_sweeps(
        self, fitted_pipeline, corpus_dir, tmp_path
    ):
        """Sweeping ``[good, missing]`` and serving the same two paths
        add the same ``sweep.files`` and ``sweep.skipped``."""
        metrics = get_metrics()
        paths = [corpus_dir[0], tmp_path / "missing.csv"]
        names = ("sweep.files", "sweep.skipped")

        def added(run) -> dict[str, int]:
            before = {name: metrics.counter(name) for name in names}
            run()
            return {name: metrics.counter(name) - before[name] for name in names}

        def sweep():
            with CorpusEngine(fitted_pipeline, n_jobs=1) as engine:
                engine.sweep(paths).collect()

        async def serve():
            service = ClassificationService(fitted_pipeline, n_jobs=1)
            await service.start()
            for path in paths:
                await service.submit_path(path)
            await service.drain()

        swept = added(sweep)
        served = added(lambda: asyncio.run(serve()))
        assert swept == served == {"sweep.files": 2, "sweep.skipped": 1}

    def test_lifecycle_is_single_use(self, fitted_pipeline):
        async def drive():
            service = ClassificationService(fitted_pipeline)
            await service.start()
            with pytest.raises(ServeError):
                await service.start()
            await service.drain()
            with pytest.raises(ServeError):
                await service.submit_bytes(b"a,b\n")
            with pytest.raises(ServeError):
                await service.start()

        asyncio.run(drive())

    def test_rejects_degenerate_bounds(self, fitted_pipeline):
        with pytest.raises(ServeError):
            ClassificationService(fitted_pipeline, queue_size=0)

    def test_failures_dead_letter_durably(
        self, fitted_pipeline, tmp_path
    ):
        """A strict-policy rejection and an unreadable path both
        resolve to skips and land in the DLQ with the right stages."""
        dlq = DeadLetterQueue(tmp_path / "dlq", clock=lambda: T0)
        missing = tmp_path / "missing.csv"

        async def drive():
            service = ClassificationService(
                fitted_pipeline,
                policy=IngestPolicy(strict=True),
                dlq=dlq,
            )
            await service.start()
            bad = await service.submit_bytes(DAMAGED, name="damaged")
            gone = await service.submit_path(missing)
            summary = await service.drain()
            return bad, gone, summary

        bad, gone, summary = asyncio.run(drive())
        assert isinstance(bad, SkipEntry) and bad.stage == "classify"
        assert isinstance(gone, SkipEntry) and gone.stage == "read"
        assert summary["dead_letters"] == 2
        by_stage = {r.stage: r for r in dlq.records()}
        assert set(by_stage) == {"classify", "read"}
        assert by_stage["classify"].source == "damaged"
        assert dlq.payload(by_stage["classify"]) == DAMAGED
        assert by_stage["read"].payload_sha256 is None
        assert by_stage["read"].source == str(missing)


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------
class TestReplay:
    def _dead_letter_strictly(self, fitted_pipeline, dlq, missing):
        """Serve one strict-rejected payload and one missing path."""

        async def drive():
            service = ClassificationService(
                fitted_pipeline,
                policy=IngestPolicy(strict=True),
                dlq=dlq,
            )
            await service.start()
            await service.submit_bytes(DAMAGED, name="damaged")
            await service.submit_path(missing)
            await service.drain()

        asyncio.run(drive())

    def test_lenient_replay_recovers_strict_rejections(
        self, fitted_pipeline, tmp_path
    ):
        """The fixed-the-cause story: strict dead-letters the damaged
        payload, a default-lenient replay recovers it; the missing
        path stays unreplayable until the file appears."""
        dlq = DeadLetterQueue(tmp_path / "dlq", clock=lambda: T0)
        missing = tmp_path / "missing.csv"
        self._dead_letter_strictly(fitted_pipeline, dlq, missing)
        assert len(dlq) == 2

        with CorpusEngine(fitted_pipeline, n_jobs=1) as engine:
            report = replay_dead_letters(dlq, engine)
        assert report.total == 2
        assert report.recovered == 1
        assert report.unreplayable == 1
        assert report.still_dead == 0
        (left,) = dlq.records()
        assert left.stage == "read" and left.replays == 0

        # The operator restores the file: the next replay drains it.
        missing.write_text("a,b\n1,2\n3,4\n", encoding="utf-8")
        with CorpusEngine(fitted_pipeline, n_jobs=1) as engine:
            report = replay_dead_letters(dlq, engine)
        assert report.recovered == 1
        assert len(dlq) == 0
        assert list((tmp_path / "dlq" / "payloads").glob("*.bin")) == []

    def test_replay_reads_an_archive_member_once_it_exists(
        self, fitted_pipeline, corpus_dir, tmp_path
    ):
        """A ``container!member`` request whose archive is missing is
        dead-lettered under its locator, stays unreplayable while the
        archive is missing, and recovers once it exists."""
        dlq = DeadLetterQueue(tmp_path / "dlq", clock=lambda: T0)
        archive = tmp_path / "lake.zip"
        member = f"{archive}!a.csv"

        async def drive():
            service = ClassificationService(fitted_pipeline, dlq=dlq)
            await service.start()
            outcome = await service.submit_path(member)
            await service.drain()
            return outcome

        outcome = asyncio.run(drive())
        assert isinstance(outcome, SkipEntry) and outcome.stage == "read"
        (record,) = dlq.records()
        assert record.source == member

        with CorpusEngine(fitted_pipeline, n_jobs=1) as engine:
            report = replay_dead_letters(dlq, engine)
        assert (report.unreplayable, report.replayed) == (1, 0)
        assert dlq.records() == [record]

        _zip(archive, {"a.csv": corpus_dir[0].read_bytes()})
        with CorpusEngine(fitted_pipeline, n_jobs=1) as engine:
            report = replay_dead_letters(dlq, engine)
        assert report.recovered == 1 and report.unreplayable == 0
        assert len(dlq) == 0

    def test_still_strict_replay_bumps_not_drops(
        self, fitted_pipeline, tmp_path
    ):
        """Replaying under the same strict policy keeps the record,
        bumps ``replays``, and re-stamps it from the queue clock."""
        dlq = DeadLetterQueue(tmp_path / "dlq", clock=lambda: T0)
        dlq.append("r1", "damaged", "classify", "old", payload=DAMAGED)
        with CorpusEngine(
            fitted_pipeline, n_jobs=1, policy=IngestPolicy(strict=True)
        ) as engine:
            report = replay_dead_letters(dlq, engine)
        assert report.still_dead == 1 and report.recovered == 0
        (record,) = dlq.records()
        assert record.replays == 1
        assert record.timestamp == T0
        assert "old" not in record.reason

    def test_protocol_records_are_unreplayable(
        self, fitted_pipeline, tmp_path
    ):
        """A dead-lettered wire line is not CSV; replay must keep it
        untouched instead of 'recovering' garbage."""
        dlq = DeadLetterQueue(tmp_path / "dlq", clock=lambda: T0)
        dlq.append(
            "?", "<wire>", "protocol", "not json", payload=b"not json\n"
        )
        with CorpusEngine(fitted_pipeline, n_jobs=1) as engine:
            report = replay_dead_letters(dlq, engine)
        assert report.unreplayable == 1
        assert report.replayed == 0
        (record,) = dlq.records()
        assert record.stage == "protocol" and record.replays == 0

    def test_replay_summary_line(self):
        from repro.serve import ReplayReport

        report = ReplayReport(
            total=4, replayed=3, recovered=2, still_dead=1,
            unreplayable=1,
        )
        assert report.summary() == (
            "replayed 3/4 dead letters: 2 recovered, 1 still dead, "
            "1 unreplayable"
        )


# ----------------------------------------------------------------------
# The TCP front end
# ----------------------------------------------------------------------
class TestTcpFrontEnd:
    def test_wire_roundtrip_ping_classify_stats_and_garbage(
        self, fitted_pipeline, corpus_dir, tmp_path
    ):
        """One connection exercises the whole wire protocol: ping,
        classify by path and by bytes (byte-identical to a direct
        sweep after :func:`result_from_payload`), stats, and a
        malformed line that is answered — not a dropped connection —
        and dead-lettered."""
        dlq = DeadLetterQueue(tmp_path / "dlq", clock=lambda: T0)
        target = corpus_dir[0]

        async def drive():
            service = ClassificationService(
                fitted_pipeline, n_jobs=1, dlq=dlq
            )
            await service.start(host="127.0.0.1", port=0)
            client = await connect("127.0.0.1", service.port)
            pong = await client.ping()
            by_path = await client.classify_path(target)
            by_bytes = await client.classify_bytes(
                target.read_bytes(), name=str(target)
            )
            garbage = await client.request(b"this is not json\n")
            bad_path = await client.classify_path(
                tmp_path / "missing.csv"
            )
            stats = await client.stats()
            await client.close()
            summary = await service.drain()
            return pong, by_path, by_bytes, garbage, bad_path, stats, \
                summary

        pong, by_path, by_bytes, garbage, bad_path, stats, summary = (
            asyncio.run(drive())
        )
        assert pong == {"id": "c1", "ok": True, "result": "pong"}
        assert by_path["ok"] and by_bytes["ok"]

        with CorpusEngine(fitted_pipeline, n_jobs=1) as engine:
            ((_, direct),), _report = engine.sweep_paths([target])
        assert _arrays(result_from_payload(by_path["result"])) == \
            _arrays(direct)
        assert by_bytes["result"]["cells"] == by_path["result"]["cells"]

        assert garbage["ok"] is False
        assert garbage["stage"] == "protocol"
        assert garbage["id"] == "?"
        # The raw line was parked; the response names its hash.
        assert garbage["dead_letter"] == hashlib.sha256(
            b"this is not json\n"
        ).hexdigest()
        assert bad_path["ok"] is False and bad_path["stage"] == "read"
        assert stats["result"]["requests"] == 3  # classify ops only
        assert summary["dead_letters"] == 2
        stages = sorted(r.stage for r in dlq.records())
        assert stages == ["protocol", "read"]

    def test_a_named_path_request_dead_letters_its_path(
        self, fitted_pipeline, corpus_dir, tmp_path
    ):
        """A path request that also carries a display ``name`` keeps
        the name on the wire but records its path in the DLQ, so
        replay recovers it once the file exists."""
        dlq = DeadLetterQueue(tmp_path / "dlq", clock=lambda: T0)
        missing = tmp_path / "later.csv"

        async def drive():
            service = ClassificationService(
                fitted_pipeline, n_jobs=1, dlq=dlq
            )
            await service.start(host="127.0.0.1", port=0)
            client = await connect("127.0.0.1", service.port)
            named = await client.request(
                encode_request("r1", path=missing, name="upload")
            )
            found = await client.request(
                encode_request("r2", path=corpus_dir[0], name="upload")
            )
            await client.close()
            await service.drain()
            return named, found

        named, found = asyncio.run(drive())
        assert named["ok"] is False and named["stage"] == "read"
        assert found["ok"] and found["result"]["path"] == "upload"
        (record,) = dlq.records()
        assert (record.request_id, record.source) == ("r1", str(missing))

        missing.write_bytes(corpus_dir[0].read_bytes())
        with CorpusEngine(fitted_pipeline, n_jobs=1) as engine:
            report = replay_dead_letters(dlq, engine)
        assert report.recovered == 1 and report.unreplayable == 0
        assert len(dlq) == 0
