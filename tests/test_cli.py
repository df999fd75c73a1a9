"""Tests for the command-line interface."""

from __future__ import annotations

import io
import re
import tarfile
import zipfile

import pytest

import repro.cli as cli
from repro.cli import main
from repro.core.strudel import StrudelPipeline
from repro.io.adapters import DirectoryAdapter
from repro.io.annotations import load_corpus
from repro.obs import get_metrics


@pytest.fixture
def csv_file(tmp_path):
    path = tmp_path / "input.csv"
    path.write_text(
        "Annual Report\n"
        ",,,\n"
        "Region;Q1;Q2\n".replace(";", ",")
        + "North,5,7\nSouth,6,8\nTotal,11,15\n",
        encoding="utf-8",
    )
    return path


class TestDetect:
    def test_detect_comma(self, csv_file):
        out = io.StringIO()
        assert main(["detect", str(csv_file)], out=out) == 0
        assert "delimiter=','" in out.getvalue()

    def test_detect_semicolon(self, tmp_path):
        path = tmp_path / "semi.csv"
        path.write_text("a;1\nb;2\nc;3\n", encoding="utf-8")
        out = io.StringIO()
        main(["detect", str(path)], out=out)
        assert "delimiter=';'" in out.getvalue()


class TestIngestFlags:
    """The detect/classify commands share the hardened ingestion path:
    lenient repairs warn on stderr, ``--strict`` refuses with exit 2."""

    def test_detect_latin1_file_no_longer_crashes(self, tmp_path):
        path = tmp_path / "latin.csv"
        path.write_bytes(
            "name,city\nRené,Köln\nJosé,Málaga\n".encode("latin-1")
        )
        out = io.StringIO()
        assert main(["detect", str(path)], out=out) == 0
        assert "delimiter=','" in out.getvalue()

    def test_detect_lenient_warns_on_stderr(self, tmp_path, capsys):
        path = tmp_path / "nul.csv"
        path.write_bytes(b"a,\x00b\n1,2\n3,4\n")
        out = io.StringIO()
        assert main(["detect", str(path)], out=out) == 0
        err = capsys.readouterr().err
        assert str(path) in err
        assert "NUL" in err

    def test_detect_strict_rejects_with_exit_two(self, tmp_path, capsys):
        path = tmp_path / "nul.csv"
        path.write_bytes(b"a,\x00b\n1,2\n")
        out = io.StringIO()
        assert main(["detect", str(path), "--strict"], out=out) == 2
        assert "NUL" in capsys.readouterr().err

    def test_detect_encoding_flag(self, tmp_path):
        path = tmp_path / "cp.csv"
        path.write_bytes("a,ä\nb,ö\nc,ü\n".encode("cp1252"))
        out = io.StringIO()
        code = main(
            ["detect", str(path), "--encoding", "cp1252"], out=out
        )
        assert code == 0

    def test_clean_file_stays_quiet(self, csv_file, capsys):
        out = io.StringIO()
        assert main(["detect", str(csv_file)], out=out) == 0
        assert capsys.readouterr().err == ""

    def test_classify_strict_rejects_lying_bom(self, tmp_path):
        import codecs

        path = tmp_path / "bom.csv"
        path.write_bytes(codecs.BOM_UTF16_LE + b"abc")
        out = io.StringIO()
        code = main(
            ["classify", str(path), "--strict",
             "--scale", "0.05", "--trees", "8"],
            out=out,
        )
        assert code == 2

    def test_classify_utf8_sig_file(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text(
            "Region,Q1,Q2\nNorth,5,7\nSouth,6,8\nTotal,11,15\n",
            encoding="utf-8-sig",
        )
        out = io.StringIO()
        code = main(
            ["classify", str(path), "--scale", "0.05", "--trees", "8"],
            out=out,
        )
        assert code == 0
        assert "data" in out.getvalue()


class TestClassify:
    def test_classify_prints_line_classes(self, csv_file):
        out = io.StringIO()
        code = main(
            [
                "classify", str(csv_file),
                "--scale", "0.05", "--trees", "8", "--cells",
            ],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "dialect:" in text
        assert "data" in text
        assert "header" in text or "metadata" in text

    def test_classify_directory_sweeps_with_cache(self, tmp_path, capsys):
        """A directory argument sweeps every *.csv through the engine;
        a second run against the same sweep cache is all hits."""
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for name in ("a", "b", "c"):
            (corpus / f"{name}.csv").write_text(
                "Region,Q1,Q2\nNorth,5,7\nSouth,6,8\nTotal,11,15\n",
                encoding="utf-8",
            )
        args = [
            "classify", str(corpus), "--scale", "0.05", "--trees", "8",
            "--jobs", "2", "--sweep-cache", str(tmp_path / "cache"),
        ]
        out = io.StringIO()
        assert main(args, out=out) == 0
        text = out.getvalue()
        assert "a.csv" in text and "c.csv" in text
        assert "swept 3/3 sources (0 cached" in text

        out = io.StringIO()
        assert main(args, out=out) == 0
        assert "swept 3/3 sources (3 cached" in out.getvalue()

    def test_classify_empty_directory_exits_two(self, tmp_path):
        empty = tmp_path / "nothing"
        empty.mkdir()
        out = io.StringIO()
        code = main(
            ["classify", str(empty), "--scale", "0.05", "--trees", "8"],
            out=out,
        )
        assert code == 2

    def test_unknown_encoding_exits_two(self, csv_file, capsys):
        # Regression: ``--encoding uft-8`` used to be silently dropped
        # by the fallback chain; it is now a usage error.
        code = main(
            ["classify", str(csv_file), "--encoding", "uft-8",
             "--scale", "0.05", "--trees", "8"],
            out=io.StringIO(),
        )
        assert code == 2
        assert "uft-8" in capsys.readouterr().err

    def test_classify_lake_sweeps_every_container(self, tmp_path):
        """Acceptance: loose CSVs + a zip + a tar + NDJSON in one
        directory all classify through io.ingest, each line labelled
        with its provenance locator."""
        import tarfile
        import zipfile

        rows = "Region,Q1,Q2\nNorth,5,7\nSouth,6,8\nTotal,11,15\n"
        lake = tmp_path / "lake"
        (lake / "sub").mkdir(parents=True)
        (lake / "loose.csv").write_text(rows, encoding="utf-8")
        (lake / "sub" / "upper.CSV").write_text(rows, encoding="utf-8")
        with zipfile.ZipFile(lake / "arch.zip", "w") as archive:
            archive.writestr("member.csv", rows)
        with tarfile.open(lake / "arch.tar", "w") as archive:
            csv_path = lake / "loose.csv"
            archive.add(csv_path, arcname="tarred.csv")
        (lake / "log.ndjson").write_text(
            '{"region": "North", "q1": 5}\n{"region": "South", "q1": 6}\n',
            encoding="utf-8",
        )
        out = io.StringIO()
        code = main(
            ["classify", str(lake), "--scale", "0.05", "--trees", "8"],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "swept 5/5 sources" in text
        assert "arch.zip!member.csv" in text
        assert "arch.tar!tarred.csv" in text
        assert "log.ndjson!records" in text
        assert "upper.CSV" in text

    def test_classify_single_archive_sweeps_members(self, tmp_path):
        import zipfile

        rows = "Region,Q1\nNorth,5\nSouth,6\n"
        archive_path = tmp_path / "only.zip"
        with zipfile.ZipFile(archive_path, "w") as archive:
            archive.writestr("one.csv", rows)
            archive.writestr("two.csv", rows)
        out = io.StringIO()
        code = main(
            ["classify", str(archive_path), "--scale", "0.05",
             "--trees", "8"],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "swept 2/2 sources" in text
        assert "only.zip!one.csv" in text


@pytest.fixture(scope="module")
def fitted_pipeline(tiny_corpus) -> StrudelPipeline:
    return StrudelPipeline(n_estimators=4, random_state=0).fit(
        tiny_corpus.files
    )


class TestLakeSweep:
    """``classify <lake|archive> --jobs 2``: one engine sweep over
    every source, past the 64 files of a single micro-batch."""

    @staticmethod
    def _csv(i: int) -> str:
        return (
            f"Report {i}\nRegion,Q1,Q2\nNorth,{i},7\nSouth,6,{i + 2}\n"
            f"Total,{i + 6},{i + 9}\n"
        )

    def _lake(self, tmp_path):
        """70 loose CSVs with a zip, a tar and a damaged zip sorted in
        between them."""
        lake = tmp_path / "lake"
        lake.mkdir()
        for i in range(70):
            (lake / f"{i:03d}.csv").write_text(self._csv(i), encoding="utf-8")
        with zipfile.ZipFile(lake / "020a.zip", "w") as archive:
            for i in range(3):
                archive.writestr(f"z{i}.csv", self._csv(100 + i))
        with tarfile.open(lake / "040a.tar", "w") as archive:
            archive.add(lake / "001.csv", arcname="t0.csv")
            archive.add(lake / "002.csv", arcname="t1.csv")
        (lake / "060a.zip").write_bytes(b"PK\x03\x04 not really a zip")
        return lake

    def _sweep(self, monkeypatch, pipeline, target, *extra):
        monkeypatch.setattr(cli, "_train_pipeline", lambda args, out: pipeline)
        out = io.StringIO()
        code = main(["classify", str(target), "--jobs", "2", *extra], out=out)
        return code, out.getvalue().splitlines()

    def test_lake_prints_every_source_once_in_order(
        self, tmp_path, monkeypatch, capsys, fitted_pipeline
    ):
        lake = self._lake(tmp_path)
        prefix = f"{lake}/"
        expected = [
            payload.provenance[len(prefix):]
            for payload in DirectoryAdapter(lake).iterate()
        ]
        assert len(expected) == 75
        code, lines = self._sweep(monkeypatch, fitted_pipeline, lake)
        assert code == 0
        *results, summary = lines
        assert [line.split(": ", 1)[0] for line in results] == expected
        match = re.fullmatch(
            r"swept (\d+)/(\d+) sources \((\d+) cached, (\d+) skipped, "
            r"(\d+) batches\)",
            summary,
        )
        assert match, summary
        completed, files, _cached, skipped, batches = map(
            int, match.groups()
        )
        assert (completed, files, skipped) == (75, 76, 1)
        assert completed + skipped == files
        assert batches > 1
        skip_lines = [
            line for line in capsys.readouterr().err.splitlines()
            if line.startswith("repro: skipped")
        ]
        assert len(skip_lines) == 1
        assert skip_lines[0].startswith(f"repro: skipped {lake}/060a.zip [read]")

    def test_lake_fail_on_skip_exits_one(
        self, tmp_path, monkeypatch, fitted_pipeline
    ):
        lake = self._lake(tmp_path)
        code, lines = self._sweep(
            monkeypatch, fitted_pipeline, lake, "--fail-on-skip"
        )
        assert code == 1
        assert lines[-1].startswith("swept 75/76 sources")

    def test_single_archive_of_many_batches_spawns_the_pool(
        self, tmp_path, monkeypatch, fitted_pipeline
    ):
        archive_path = tmp_path / "one.zip"
        with zipfile.ZipFile(archive_path, "w") as archive:
            for i in range(6):
                archive.writestr(f"m{i}.csv", self._csv(i))
        spawns = get_metrics().counter("worker_pool.spawns")
        code, lines = self._sweep(monkeypatch, fitted_pipeline, archive_path)
        assert code == 0
        assert lines[-1].startswith("swept 6/6 sources")
        batches = int(re.search(r"(\d+) batches", lines[-1]).group(1))
        assert batches > 1
        assert get_metrics().counter("worker_pool.spawns") == spawns + 1


class TestLint:
    def test_clean_file_exits_zero(self, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text("def f(x=None):\n    return x\n",
                         encoding="utf-8")
        out = io.StringIO()
        assert main(["lint", str(clean)], out=out) == 0
        assert "no findings" in out.getvalue()

    def test_findings_exit_one_with_json(self, tmp_path):
        import json

        bad = tmp_path / "bad.py"
        bad.write_text(
            "import random\n"
            "def f(x={}):\n"
            "    return random.random()\n",
            encoding="utf-8",
        )
        out = io.StringIO()
        code = main(["lint", str(bad), "--format", "json"], out=out)
        assert code == 1
        payload = json.loads(out.getvalue())
        assert payload["count"] == 2
        assert payload["by_rule"] == {"R001": 1, "R005": 1}

    def test_select_limits_rules(self, tmp_path):
        import json

        bad = tmp_path / "bad.py"
        bad.write_text(
            "import random\n"
            "def f(x={}):\n"
            "    return random.random()\n",
            encoding="utf-8",
        )
        out = io.StringIO()
        code = main(
            ["lint", str(bad), "--format", "json",
             "--select", "R005"],
            out=out,
        )
        assert code == 1
        assert json.loads(out.getvalue())["by_rule"] == {"R005": 1}

    @staticmethod
    def _ingest_bypass_tree(tmp_path):
        """A mini repro-shaped tree where a module decodes bytes into a
        Table outside io.ingest (triggers the project rule R101)."""
        pkg = tmp_path / "repro"
        (pkg / "io").mkdir(parents=True)
        (pkg / "types.py").write_text(
            "class Table:\n    pass\n", encoding="utf-8"
        )
        (pkg / "io" / "ingest.py").write_text(
            "from repro.types import Table\n"
            "\n"
            "def ingest_bytes(raw):\n"
            "    return Table()\n",
            encoding="utf-8",
        )
        (pkg / "sneaky.py").write_text(
            "from repro.types import Table\n"
            "\n"
            "def shortcut(raw):\n"
            "    return Table(raw.decode('utf-8'))\n",
            encoding="utf-8",
        )
        return pkg

    def test_select_accepts_commas_and_repeats(self, tmp_path):
        import json

        pkg = self._ingest_bypass_tree(tmp_path)
        out = io.StringIO()
        code = main(
            ["lint", str(pkg), "--format", "json",
             "--select", "R002,R101", "--select", "R005"],
            out=out,
        )
        assert code == 1
        assert json.loads(out.getvalue())["by_rule"] == {"R101": 1}

    def test_no_graph_skips_project_rules(self, tmp_path):
        pkg = self._ingest_bypass_tree(tmp_path)
        out = io.StringIO()
        assert main(["lint", str(pkg)], out=out) == 1
        assert "R101" in out.getvalue()
        out = io.StringIO()
        assert main(["lint", str(pkg), "--no-graph"], out=out) == 0

    def test_shipped_package_is_clean(self):
        out = io.StringIO()
        assert main(["lint"], out=out) == 0

    def test_unknown_rule_is_usage_error(self, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n", encoding="utf-8")
        out = io.StringIO()
        assert main(
            ["lint", str(clean), "--select", "R999"], out=out
        ) == 2

    def test_unknown_rule_in_comma_list_is_usage_error(self, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n", encoding="utf-8")
        out = io.StringIO()
        assert main(
            ["lint", str(clean), "--select", "R005,R999"], out=out
        ) == 2

    def test_missing_path_is_usage_error(self, tmp_path):
        out = io.StringIO()
        code = main(["lint", str(tmp_path / "absent.py")], out=out)
        assert code == 2

    def test_unparseable_file_reported_as_r000(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def broken(:\n", encoding="utf-8")
        out = io.StringIO()
        assert main(["lint", str(bad)], out=out) == 1
        assert "R000" in out.getvalue()


class TestGenerate:
    def test_generate_writes_corpus(self, tmp_path):
        out = io.StringIO()
        code = main(
            [
                "generate", "troy", str(tmp_path / "corpus"),
                "--scale", "0.02", "--seed", "1",
            ],
            out=out,
        )
        assert code == 0
        csv_files = list((tmp_path / "corpus" / "csv").glob("*.csv"))
        assert len(csv_files) >= 2
        corpus = load_corpus(tmp_path / "corpus" / "annotations")
        assert len(corpus) == len(csv_files)

    def test_bad_corpus_name_rejected(self):
        with pytest.raises(SystemExit):
            main(["generate", "nope", "/tmp/x"])


class TestFailOnSkip:
    """``classify <dir> --fail-on-skip``: skips flip the exit code."""

    @staticmethod
    def _mixed_dir(tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "good.csv").write_text(
            "Region,Q1,Q2\nNorth,5,7\nSouth,6,8\n", encoding="utf-8"
        )
        (corpus / "damaged.csv").write_bytes(b"a,\x00b\n1,2\n3,4\n")
        return corpus

    def _sweep(self, corpus, *extra):
        out = io.StringIO()
        code = main(
            [
                "classify", str(corpus), "--scale", "0.05",
                "--trees", "8", "--strict", *extra,
            ],
            out=out,
        )
        return code, out.getvalue()

    def test_skips_exit_zero_by_default(self, tmp_path, capsys):
        corpus = self._mixed_dir(tmp_path)
        code, text = self._sweep(corpus)
        assert code == 0
        assert "1 skipped" in text
        assert "damaged.csv" in capsys.readouterr().err

    def test_fail_on_skip_exits_one(self, tmp_path, capsys):
        corpus = self._mixed_dir(tmp_path)
        code, text = self._sweep(corpus, "--fail-on-skip")
        assert code == 1
        assert "swept 1/2 sources" in text

    def test_clean_sweep_passes_with_the_flag(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "good.csv").write_text(
            "Region,Q1,Q2\nNorth,5,7\nSouth,6,8\n", encoding="utf-8"
        )
        code, text = self._sweep(corpus, "--fail-on-skip")
        assert code == 0
        assert "0 skipped" in text


class TestDlqCommand:
    """``repro dlq list|replay|purge`` over a queue on disk."""

    DAMAGED = b"Region,Q1\nNorth,\x005\nSouth,6\n"

    @staticmethod
    def _queue(tmp_path):
        from repro.serve import DeadLetterQueue

        return DeadLetterQueue(
            tmp_path / "dlq", clock=lambda: "2026-01-01T00:00:00+00:00"
        )

    def test_list_names_records_and_count(self, tmp_path):
        queue = self._queue(tmp_path)
        queue.append(
            "r1", "damaged.csv", "classify", "NUL byte",
            payload=self.DAMAGED,
        )
        out = io.StringIO()
        assert main(
            ["dlq", "list", "--dlq", str(tmp_path / "dlq")], out=out
        ) == 0
        text = out.getvalue()
        assert "r1\tclassify\tdamaged.csv" in text
        assert "1 dead letter(s)" in text

    def test_replay_empty_queue_is_a_cheap_noop(self, tmp_path):
        out = io.StringIO()
        assert main(
            ["dlq", "replay", "--dlq", str(tmp_path / "dlq")], out=out
        ) == 0
        assert "nothing to replay" in out.getvalue()

    def test_lenient_replay_recovers_and_exits_zero(self, tmp_path):
        queue = self._queue(tmp_path)
        queue.append(
            "r1", "damaged.csv", "classify", "NUL byte",
            payload=self.DAMAGED,
        )
        out = io.StringIO()
        code = main(
            [
                "dlq", "replay", "--dlq", str(tmp_path / "dlq"),
                "--scale", "0.05", "--trees", "8",
            ],
            out=out,
        )
        assert code == 0
        assert "1 recovered" in out.getvalue()
        assert len(queue) == 0

    def test_strict_replay_keeps_the_record_and_exits_one(
        self, tmp_path
    ):
        queue = self._queue(tmp_path)
        queue.append(
            "r1", "damaged.csv", "classify", "NUL byte",
            payload=self.DAMAGED,
        )
        out = io.StringIO()
        code = main(
            [
                "dlq", "replay", "--dlq", str(tmp_path / "dlq"),
                "--scale", "0.05", "--trees", "8", "--strict",
            ],
            out=out,
        )
        assert code == 1
        assert "1 still dead" in out.getvalue()
        (record,) = queue.records()
        assert record.replays == 1

    def test_purge_empties_the_queue(self, tmp_path):
        queue = self._queue(tmp_path)
        queue.append("r1", "a.csv", "read", "gone")
        out = io.StringIO()
        assert main(
            ["dlq", "purge", "--dlq", str(tmp_path / "dlq")], out=out
        ) == 0
        assert "purged 1 dead letter(s)" in out.getvalue()
        assert len(queue) == 0


class TestServeCommand:
    def test_bad_queue_size_exits_two(self, capsys):
        out = io.StringIO()
        code = main(
            [
                "serve", "--scale", "0.02", "--trees", "4",
                "--queue-size", "0",
            ],
            out=out,
        )
        assert code == 2
        assert "queue_size" in capsys.readouterr().err

    def test_sigint_under_load_drains_cleanly(self, tmp_path):
        """The lifecycle acceptance story end to end: a served process
        answers TCP requests, takes SIGINT mid-conversation, drains,
        and exits 0 with the final counts on stdout."""
        import json
        import os
        import re
        import signal
        import socket
        import subprocess
        import sys
        import time
        from pathlib import Path

        good = tmp_path / "good.csv"
        good.write_text(
            "Region,Q1,Q2\nNorth,5,7\nSouth,6,8\n", encoding="utf-8"
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = f"{src}:{existing}" if existing else src
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--scale", "0.02", "--trees", "4", "--port", "0",
                "--dlq", str(tmp_path / "dlq"),
            ],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=env,
        )
        try:
            banner = proc.stdout.readline()
            while banner and "listening on" not in banner:
                banner = proc.stdout.readline()
            match = re.search(r"listening on [^:]+:(\d+)", banner)
            assert match, banner
            port = int(match.group(1))
            with socket.create_connection(
                ("127.0.0.1", port), timeout=30
            ) as sock:
                handle = sock.makefile("rwb")
                for request_id in ("r1", "r2"):
                    handle.write(
                        json.dumps(
                            {
                                "id": request_id,
                                "op": "classify",
                                "path": str(good),
                            }
                        ).encode("utf-8") + b"\n"
                    )
                    handle.flush()
                    response = json.loads(handle.readline())
                    assert response["id"] == request_id
                    assert response["ok"] is True
                proc.send_signal(signal.SIGINT)
                time.sleep(0.1)
            stdout, stderr = proc.communicate(timeout=120)
        except BaseException:
            proc.kill()
            raise
        assert proc.returncode == 0, stderr
        assert "served 2/2 requests (0 dead-lettered)" in stdout
