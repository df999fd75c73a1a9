"""The persistent-worker corpus engine: pools, sweeps, and the cache.

The contract mirrors ``test_perf``'s: the engine may change *when*
work happens (warm workers, micro-batches, cache hits), never *what*
it computes — the parity tests here compare prediction bytes across
every execution mode.  The failure-path tests pin the loud-degradation
promises: one bad file costs one skip entry, a dead worker costs one
metric + warning + the batch's casualties, and nothing ever silently
aborts a sweep.
"""

from __future__ import annotations

import hashlib
import io
import os
import struct
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

import repro.perf.engine as engine_mod
from repro.core.strudel import StrudelPipeline
from repro.dialect.dialect import Dialect
from repro.errors import InvalidParameterError, NotFittedError
from repro.io.ingest import IngestPolicy
from repro.io.writer import write_csv_text
from repro.ml.forest import RandomForestClassifier
from repro.obs import get_metrics
from repro.perf.engine import (
    CorpusEngine,
    FileResult,
    SweepCache,
    model_fingerprint,
    policy_fingerprint,
)
from repro.perf.pool import WorkerPool


# ----------------------------------------------------------------------
# Module-level work functions: picklable by reference in fork children.
# ----------------------------------------------------------------------
def _double(x: int) -> int:
    return 2 * x


_REAL_SWEEP_BATCH = engine_mod._sweep_batch


def _crash_on_marker(batch):
    """Test double for ``_sweep_batch``: kill the worker outright when
    the batch contains the marker file, else do the real work."""
    if any("crashme" in name for name, _ in batch):
        os._exit(13)
    return _REAL_SWEEP_BATCH(batch)


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
    """Six corpus files materialized to disk, in a fixed order."""
    directory = tmp_path_factory.mktemp("sweep_corpus")
    paths = []
    for file in tiny_corpus.files[:6]:
        path = directory / f"{file.name}.csv"
        path.write_text(
            write_csv_text(file.table.rows()), encoding="utf-8"
        )
        paths.append(path)
    return paths


def _result_bytes(results):
    """Canonical byte view of a sweep's outputs, for parity asserts."""
    return [
        (
            path.name,
            result.dialect,
            result.line_codes.tobytes(),
            result.cell_positions.tobytes(),
            result.cell_codes.tobytes(),
        )
        for path, result in results
    ]


# ----------------------------------------------------------------------
# WorkerPool
# ----------------------------------------------------------------------
def test_worker_pool_rejects_nonpositive_workers():
    with pytest.raises(InvalidParameterError):
        WorkerPool(0)


def test_worker_pool_spawns_once_and_reuses():
    metrics = get_metrics()
    spawns = metrics.counter("worker_pool.spawns")
    reuses = metrics.counter("worker_pool.reuses")
    with WorkerPool(2) as pool:
        assert pool.map(_double, [1, 2, 3]) == [2, 4, 6]
        assert pool.map(_double, [4, 5]) == [8, 10]
    assert metrics.counter("worker_pool.spawns") == spawns + 1
    assert metrics.counter("worker_pool.reuses") == reuses + 1


def test_worker_pool_discard_broken_respawns():
    metrics = get_metrics()
    with WorkerPool(1) as pool:
        assert pool.map(_double, [1]) == [2]
        broken = metrics.counter("worker_pool.broken")
        spawns = metrics.counter("worker_pool.spawns")
        executor = pool.executor()
        assert pool.discard(executor)
        assert not pool.discard(executor)  # idempotent per executor
        assert metrics.counter("worker_pool.broken") == broken + 1
        # The next call transparently respawns the workers.
        assert pool.map(_double, [21]) == [42]
        assert metrics.counter("worker_pool.spawns") == spawns + 1


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------
def test_model_fingerprint_stable_and_model_sensitive(
    tiny_corpus, fitted_pipeline
):
    assert model_fingerprint(fitted_pipeline) == model_fingerprint(
        fitted_pipeline
    )
    other = StrudelPipeline(n_estimators=4, random_state=1)
    other.fit(tiny_corpus.files)
    assert model_fingerprint(other) != model_fingerprint(fitted_pipeline)


def _listed_tensor_fingerprint(pipeline) -> str:
    """Oracle: the model fingerprint with each of the nine compiled
    arrays named, in the order existing sweep-cache keys hash them."""
    digest = hashlib.sha256()
    digest.update(f"crop={int(pipeline.crop)};".encode("ascii"))
    for clf in (pipeline.line_classifier, pipeline.cell_classifier):
        digest.update(clf.extractor.cache_key.encode("utf-8"))
        digest.update(b";")
        compiled = clf._model.compile()
        for tensor in (
            compiled.classes_, compiled._tree_classes,
            compiled._feature, compiled._threshold, compiled._left,
            compiled._right, compiled._proba, compiled._roots,
            compiled._tree_class_offsets,
        ):
            array = np.ascontiguousarray(tensor)
            digest.update(str(array.dtype).encode("ascii"))
            digest.update(str(array.shape).encode("ascii"))
            digest.update(array.tobytes())
    return digest.hexdigest()


def test_model_fingerprint_matches_the_listed_tensors(
    tiny_corpus, fitted_pipeline
):
    # Equal digests keep existing sweep-cache entries addressable.
    one_tree = StrudelPipeline(n_estimators=1, random_state=0)
    one_tree.fit(tiny_corpus.files)
    for pipeline in (fitted_pipeline, one_tree):
        assert model_fingerprint(pipeline) == (
            _listed_tensor_fingerprint(pipeline)
        )


def test_model_fingerprint_requires_a_fitted_pipeline():
    with pytest.raises(NotFittedError):
        model_fingerprint(StrudelPipeline(n_estimators=4))


def test_policy_fingerprint_distinguishes_policies():
    assert policy_fingerprint(IngestPolicy()) != policy_fingerprint(
        IngestPolicy(strict=True)
    )


# ----------------------------------------------------------------------
# SweepCache
# ----------------------------------------------------------------------
def _fake_entry(seed: int) -> FileResult:
    return FileResult(
        path=Path("f.csv"),
        dialect=Dialect(","),
        n_rows=2,
        n_cols=2,
        line_codes=np.array([seed % 7, 3], dtype=np.int8),
        cell_positions=np.zeros((0, 2), dtype=np.int64),
        cell_codes=np.zeros(0, dtype=np.int8),
    )


#: The sweep-cache entry layout, spelled out apart from
#: ``FileResult.save``: a tag, then rows, columns, line count and cell
#: count (little-endian ``int64``) and the byte length of each dialect
#: character.
_ENTRY_TAG = b"STRUDEL\x01"
_ENTRY_HEADER = "<8s4q3B"


def _entry_bytes(counts, chars, body, tag=_ENTRY_TAG) -> bytes:
    """A hand-built entry: the header for ``counts`` (rows, columns,
    lines, cells) and ``chars`` (the dialect's UTF-8 characters),
    then ``chars`` and ``body`` (codes and positions)."""
    header = struct.pack(_ENTRY_HEADER, tag, *counts, *map(len, chars))
    return header + b"".join(chars) + body


def _cells_entry() -> FileResult:
    """A result with cells and every dialect character set."""
    return FileResult(
        path=Path("f.csv"),
        dialect=Dialect(";", "'", "\\"),
        n_rows=3,
        n_cols=2,
        line_codes=np.array([1, 6, 2], dtype=np.int8),
        cell_positions=np.array([[0, 0], [2, 1]], dtype=np.int64),
        cell_codes=np.array([1, 2], dtype=np.int8),
    )


def _saved(result: FileResult) -> bytes:
    buffer = io.BytesIO()
    result.save(buffer)
    return buffer.getvalue()


def test_an_entry_is_the_flat_little_endian_buffer():
    """Header, dialect characters, line codes, row-major ``int64``
    position pairs, cell codes: nothing else, in that order."""
    body = (
        bytes([1, 6, 2])
        + struct.pack("<4q", 0, 0, 2, 1)
        + bytes([1, 2])
    )
    assert _saved(_cells_entry()) == _entry_bytes(
        (3, 2, 3, 2), (b";", b"'", b"\\"), body
    )


def _assert_removed_miss(tmp_path, data: bytes) -> None:
    """``data`` at an entry's place is a miss that is removed, and
    never raises."""
    cache = SweepCache(tmp_path)
    key = SweepCache.entry_key("content", "model", "policy")
    entry = tmp_path / f"{key}.result"
    entry.write_bytes(data)
    assert cache.load(key, Path("f.csv")) is None, data
    assert not entry.exists(), data
    assert cache.stats()["misses"] == 1


def test_every_truncation_of_an_entry_is_a_removed_miss(tmp_path):
    data = _saved(_cells_entry())
    for end in range(len(data)):
        _assert_removed_miss(tmp_path, data[:end])


#: Entries whose bytes do not hold up, by what is wrong with them.
_DAMAGED_ENTRIES = {
    "wrong-tag": _entry_bytes((1, 1, 1, 0), (b",", b"", b""), b"\x00",
                              tag=b"STRUDEL\x02"),
    "foreign-file": b"PK\x03\x04" + bytes(60),
    "trailing-byte": _entry_bytes((1, 1, 1, 0), (b",", b"", b""), b"\x00\x00"),
    "line-count-over-length": _entry_bytes(
        (1, 1, 2, 0), (b",", b"", b""), b"\x00"
    ),
    "cell-count-over-length": _entry_bytes(
        (1, 1, 1, 1), (b",", b"", b""), b"\x00"
    ),
    "absurd-cell-count": _entry_bytes(
        (1, 1, 1, 2**62), (b",", b"", b""), b"\x00"
    ),
    # A negative cell count the length check alone would accept:
    # header + 3 + 18 - 17 bytes is exactly what is there.
    "negative-cell-count": _entry_bytes(
        (1, 1, 18, -1), (b",", b"", b""), b"\x00"
    ),
    "negative-rows": _entry_bytes((-1, 1, 1, 0), (b",", b"", b""), b"\x00"),
    "dialect-not-utf8": _entry_bytes((1, 1, 1, 0), (b"\xff", b"", b""), b"\x00"),
    "dialect-width-past-end": _entry_bytes(
        (1, 1, 0, 0), (b",", b"", b""), b""
    )[:-1],
    "dialect-two-characters": _entry_bytes(
        (1, 1, 1, 0), (b";,", b"", b""), b"\x00"
    ),
    "dialect-quote-is-delimiter": _entry_bytes(
        (1, 1, 1, 0), (b",", b",", b""), b"\x00"
    ),
}


@pytest.mark.parametrize("damage", sorted(_DAMAGED_ENTRIES))
def test_a_damaged_entry_is_a_removed_miss(tmp_path, damage):
    _assert_removed_miss(tmp_path, _DAMAGED_ENTRIES[damage])


def test_sweep_cache_entry_key_covers_all_three_parts():
    keys = {
        SweepCache.entry_key("c1", "m1", "p1"),
        SweepCache.entry_key("c2", "m1", "p1"),
        SweepCache.entry_key("c1", "m2", "p1"),
        SweepCache.entry_key("c1", "m1", "p2"),
    }
    assert len(keys) == 4


def test_sweep_cache_roundtrip_and_corrupt_entry_quarantine(tmp_path):
    cache = SweepCache(tmp_path)
    key = SweepCache.entry_key("content", "model", "policy")
    assert cache.load(key, tmp_path / "f.csv") is None  # miss
    cache.store(key, _fake_entry(0))
    result = cache.load(key, tmp_path / "f.csv")
    assert result is not None
    assert result.dialect.delimiter == ","
    assert list(result.line_codes) == [0, 3]

    # Torn write on disk: the entry is dropped and costs one miss,
    # never an exception, and the next store repopulates it.
    (tmp_path / f"{key}.result").write_bytes(b"definitely not an entry")
    assert cache.load(key, tmp_path / "f.csv") is None
    assert not (tmp_path / f"{key}.result").exists()
    cache.store(key, _fake_entry(0))
    assert cache.load(key, tmp_path / "f.csv") is not None
    stats = cache.stats()
    assert stats["hits"] == 2 and stats["misses"] == 2


def test_sweep_cache_quarantines_an_entry_with_a_damaged_dialect(tmp_path):
    """An entry whose dialect characters make no dialect is a miss
    that is removed, like any other corrupt entry, never an error."""
    cache = SweepCache(tmp_path)
    key = SweepCache.entry_key("content", "model", "policy")
    entry = tmp_path / f"{key}.result"
    # One row, one column, one line code, no cell; delimiter "",
    # quote '"', escape "".
    entry.write_bytes(_entry_bytes((1, 1, 1, 0), (b"", b'"', b""), b"\x00"))
    assert cache.load(key, tmp_path / "f.csv") is None
    assert not entry.exists()
    assert cache.stats()["misses"] == 1


def test_sweep_cache_evicts_oldest_past_the_bound(tmp_path):
    cache = SweepCache(tmp_path, max_entries=2)
    keys = [SweepCache.entry_key(f"c{i}", "m", "p") for i in range(3)]
    for i, key in enumerate(keys):
        cache.store(key, _fake_entry(i))
        os.utime(  # make write order unambiguous for the mtime LRU
            tmp_path / f"{key}.result", ns=(i * 1_000_000, i * 1_000_000)
        )
        if i == 2:
            break
    stats = cache.stats()
    assert stats["size"] == 2 and stats["evictions"] == 1
    assert not (tmp_path / f"{keys[0]}.result").exists()
    assert cache.load(keys[2], tmp_path / "f.csv") is not None


def test_sweep_cache_scans_the_directory_once_per_eighth_of_the_bound(
    tmp_path, monkeypatch
):
    """Stores past the bound evict oldest first and never leave more
    than the bound, but scan the directory only once per about
    ``max_entries // 8`` stores (once per store before)."""
    bound, past = 32, 40
    cache = SweepCache(tmp_path, max_entries=bound)
    scans = 0
    real_glob = Path.glob

    def counting_glob(self, pattern):
        nonlocal scans
        scans += 1
        return real_glob(self, pattern)

    monkeypatch.setattr(Path, "glob", counting_glob)
    keys = [SweepCache.entry_key(f"c{i}", "m", "p") for i in range(bound + past)]
    for i, key in enumerate(keys):
        cache.store(key, _fake_entry(i))
        os.utime(
            tmp_path / f"{key}.result", ns=(i * 1_000_000, i * 1_000_000)
        )
        assert cache.stats()["size"] <= bound
    assert scans <= past // (bound // 8)
    stats = cache.stats()
    survivors = {p.stem for p in real_glob(tmp_path, "*.result")}
    assert survivors == set(keys[-stats["size"]:])
    assert stats["evictions"] == len(keys) - stats["size"]


def test_sweep_cache_rejects_nonpositive_bound(tmp_path):
    with pytest.raises(InvalidParameterError):
        SweepCache(tmp_path, max_entries=0)


# ----------------------------------------------------------------------
# CorpusEngine: parity across execution modes (the pinned contract)
# ----------------------------------------------------------------------
def test_sweep_parity_across_jobs_and_cache(
    fitted_pipeline, corpus_dir, tmp_path
):
    with CorpusEngine(fitted_pipeline, n_jobs=1) as engine:
        sequential, report = engine.sweep_paths(corpus_dir)
    assert report.completed == len(corpus_dir)
    assert report.skipped == []
    assert engine._pool is None  # inline mode never spawns workers

    with CorpusEngine(fitted_pipeline, n_jobs=2) as engine:
        parallel, _ = engine.sweep_paths(corpus_dir)

    with CorpusEngine(
        fitted_pipeline, n_jobs=2, cache_dir=tmp_path / "cache"
    ) as engine:
        cold, cold_report = engine.sweep_paths(corpus_dir)
        warm, warm_report = engine.sweep_paths(corpus_dir)
    assert cold_report.cache_hits == 0
    assert warm_report.cache_hits == len(corpus_dir)
    assert warm_report.batches == 0  # all hits: nothing fanned out

    expected = _result_bytes(sequential)
    assert _result_bytes(parallel) == expected
    assert _result_bytes(cold) == expected
    assert _result_bytes(warm) == expected


def test_sweep_streams_results_in_input_order(
    fitted_pipeline, corpus_dir
):
    reversed_paths = list(reversed(corpus_dir))
    with CorpusEngine(fitted_pipeline, n_jobs=2) as engine:
        emitted = [path for path, _ in engine.sweep(reversed_paths)]
    assert emitted == reversed_paths


@pytest.mark.parametrize("n_jobs", [1, 2])
def test_partly_cached_runs_keep_input_order(
    fitted_pipeline, corpus_dir, tmp_path, n_jobs
):
    """Cache hits interleaved with misses keep their place: a sweep
    still streams in input order and payload outcomes stay aligned
    with their items."""
    items = [(str(path), path.read_bytes()) for path in corpus_dir]
    with CorpusEngine(fitted_pipeline, n_jobs=1) as engine:
        expected = _result_bytes(engine.sweep_paths(corpus_dir)[0])
    with CorpusEngine(
        fitted_pipeline, n_jobs=n_jobs, cache_dir=tmp_path / "swept"
    ) as engine:
        engine.sweep_paths(corpus_dir[1::2])  # warm every other file
        swept, sweep_report = engine.sweep_paths(corpus_dir)
    with CorpusEngine(
        fitted_pipeline, n_jobs=n_jobs, cache_dir=tmp_path / "served"
    ) as engine:
        engine.process_payloads(items[1::2])
        outcomes, payload_report = engine.process_payloads(items)
    assert sweep_report.cache_hits == payload_report.cache_hits == 3
    assert _result_bytes(swept) == expected
    assert _result_bytes(
        [(Path(name), o) for (name, _), o in zip(items, outcomes)]
    ) == expected


def test_sweep_results_decode_to_cell_classes(
    fitted_pipeline, corpus_dir
):
    with CorpusEngine(fitted_pipeline, n_jobs=1) as engine:
        results, _ = engine.sweep_paths(corpus_dir[:1])
    (_, result), = results
    assert len(result.line_classes()) == result.n_rows
    for (row, col), cls in result.cell_classes().items():
        assert 0 <= row < result.n_rows
        assert 0 <= col < result.n_cols
        assert cls.name  # decoded back to a CellClass member


# ----------------------------------------------------------------------
# CorpusEngine: failure paths
# ----------------------------------------------------------------------
def test_sweep_skips_unreadable_files(fitted_pipeline, corpus_dir):
    paths = [corpus_dir[0], corpus_dir[0].parent / "missing.csv",
             corpus_dir[1]]
    with CorpusEngine(fitted_pipeline, n_jobs=1) as engine:
        results, report = engine.sweep_paths(paths)
    assert [path.name for path, _ in results] == [
        corpus_dir[0].name, corpus_dir[1].name
    ]
    assert report.completed == 2
    (skip,) = report.skipped
    assert skip.path.name == "missing.csv"
    assert skip.stage == "read"


def test_sweep_poison_file_skips_without_aborting(
    fitted_pipeline, corpus_dir, tmp_path
):
    """One unclassifiable file costs one skip entry, nothing else."""
    # Strict mode turns the size guard into a typed rejection; the
    # limit is set so exactly the files at least as big as the first
    # one are poison.
    small_limit = corpus_dir[0].stat().st_size - 1
    policy = IngestPolicy(strict=True, max_bytes=small_limit)
    cache_dir = tmp_path / "cache"
    with CorpusEngine(
        fitted_pipeline, n_jobs=2, policy=policy, cache_dir=cache_dir
    ) as engine:
        results, report = engine.sweep_paths(corpus_dir[:3])
    skipped_names = {skip.path.name for skip in report.skipped}
    completed_names = {path.name for path, _ in results}
    assert corpus_dir[0].name in skipped_names
    assert completed_names | skipped_names == {
        p.name for p in corpus_dir[:3]
    }
    assert report.completed + len(report.skipped) == 3
    for skip in report.skipped:
        assert skip.stage == "classify"
        assert "SizeLimitError" in skip.reason
    # Failures are never admitted into the sweep cache.
    assert len(list(cache_dir.glob("*.result"))) == report.completed


def test_sweep_worker_crash_is_loud_and_survivable(
    fitted_pipeline, corpus_dir, tmp_path, monkeypatch
):
    """A worker killed mid-batch: metric + warning, the casualties are
    named in the skip report, and the sweep finishes the rest on a
    respawned pool."""
    crash_path = tmp_path / "crashme.csv"
    crash_path.write_text(
        corpus_dir[0].read_text(encoding="utf-8"), encoding="utf-8"
    )
    paths = [crash_path, corpus_dir[0], corpus_dir[1]]
    monkeypatch.setattr(engine_mod, "_sweep_batch", _crash_on_marker)
    metrics = get_metrics()
    crashes = metrics.counter("sweep.worker_crashes")
    # window=1 keeps one batch in flight, so the crash is handled
    # before later files are submitted — they must land on the
    # respawned pool, not die as cancelled futures.
    with CorpusEngine(fitted_pipeline, n_jobs=2, window=1) as engine:
        with pytest.warns(RuntimeWarning, match="worker crashed"):
            results, report = engine.sweep_paths(paths)
    assert metrics.counter("sweep.worker_crashes") == crashes + 1
    assert report.worker_crashes == 1
    casualties = {skip.path.name for skip in report.skipped}
    assert "crashme.csv" in casualties
    for skip in report.skipped:
        assert skip.stage == "worker"
        assert "worker crashed" in skip.reason
    # Files batched after the crash completed on the respawned pool.
    survivors = {path.name for path, _ in results}
    assert corpus_dir[1].name in survivors
    assert report.completed + len(report.skipped) == len(paths)


def test_sweep_resubmits_what_a_dead_executor_never_ran(
    fitted_pipeline, corpus_dir
):
    """Workers that die between sweeps leave a broken executor that
    refuses the next submit: that is the executor's one crash, and
    the refused batch runs on a fresh executor — no casualties."""
    metrics = get_metrics()
    with CorpusEngine(fitted_pipeline, n_jobs=2) as engine:
        engine.sweep_paths(corpus_dir)  # spawn the pool
        executor = engine._pool.executor()
        for proc in list(executor._processes.values()):
            proc.kill()
            proc.join(timeout=30)
        deadline = time.monotonic() + 30
        while not executor._broken and time.monotonic() < deadline:
            time.sleep(0.01)
        assert executor._broken
        spawns = metrics.counter("worker_pool.spawns")
        with pytest.warns(RuntimeWarning, match="worker crashed"):
            results, report = engine.sweep_paths(corpus_dir)
    assert report.worker_crashes == 1
    assert report.skipped == []
    assert [path for path, _ in results] == list(corpus_dir)
    assert metrics.counter("worker_pool.spawns") == spawns + 1


def test_sweep_report_as_dict_names_casualties(
    fitted_pipeline, corpus_dir
):
    missing = corpus_dir[0].parent / "gone.csv"
    with CorpusEngine(fitted_pipeline, n_jobs=1) as engine:
        _, report = engine.sweep_paths([corpus_dir[0], missing])
    payload = report.as_dict()
    assert payload["files"] == 2
    assert payload["completed"] == 1
    (skip,) = payload["skipped"]
    assert skip["path"].endswith("gone.csv")
    assert skip["stage"] == "read"


def test_sweep_interrupt_cancels_window_and_engine_survives(
    fitted_pipeline, corpus_dir
):
    """Ctrl-C mid-sweep must not leave the engine wedged: the
    in-flight futures are cancelled, the pool is discarded, the
    interrupt propagates — and the *same* engine's next sweep runs on
    a fresh pool and completes."""
    with CorpusEngine(fitted_pipeline, n_jobs=2, window=2) as engine:
        real_resolve = engine._resolve
        calls = {"n": 0}

        def interrupt_first(token):
            calls["n"] += 1
            if calls["n"] == 1:
                raise KeyboardInterrupt
            return real_resolve(token)

        engine._resolve = interrupt_first
        try:
            with pytest.raises(KeyboardInterrupt):
                engine.sweep_paths(corpus_dir)
        finally:
            del engine._resolve  # back to the class implementation
        assert engine._pool is None  # the window was discarded

        results, report = engine.sweep_paths(corpus_dir)
    assert report.completed == len(corpus_dir)
    assert report.skipped == []
    assert [path for path, _ in results] == list(corpus_dir)


def test_abandoned_sweep_iterator_releases_the_window(
    fitted_pipeline, corpus_dir
):
    """A consumer that walks away from the streaming iterator
    (GeneratorExit) gets the same cleanup as an interrupt."""
    with CorpusEngine(fitted_pipeline, n_jobs=2, window=2) as engine:
        run = iter(engine.sweep(corpus_dir))
        next(run)
        run.close()
        assert engine._pool is None
        _, report = engine.sweep_paths(corpus_dir)
    assert report.completed == len(corpus_dir)


def test_atexit_teardown_tolerates_dead_executors():
    """Interpreter exit with two pools left open, one whose workers
    were killed and one whose workers are alive: ``concurrent.futures``'
    own exit hook must exit 0 with a quiet stderr and join the live
    workers, so none outlives its parent."""
    script = textwrap.dedent(
        """
        from repro.perf.pool import WorkerPool

        dead = WorkerPool(1)
        assert dead.map(abs, [-3]) == [3]
        live = WorkerPool(2)
        assert live.map(abs, [-5, -6]) == [5, 6]
        # Kill one pool's workers behind its back, then exit without
        # shutting either pool down.
        for proc in list(dead._executor._processes.values()):
            proc.kill()
            proc.join()
        print(*live._executor._processes)
        """
    )
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}:{existing}" if existing else src
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    live_pids = [int(pid) for pid in proc.stdout.split()]
    assert live_pids
    for pid in live_pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


# ----------------------------------------------------------------------
# CorpusEngine.process_payloads (the serve substrate)
# ----------------------------------------------------------------------
def test_process_payloads_parity_with_sweep(
    fitted_pipeline, corpus_dir
):
    items = [
        (str(path), path.read_bytes()) for path in corpus_dir
    ]
    with CorpusEngine(fitted_pipeline, n_jobs=1) as engine:
        swept, _ = engine.sweep_paths(corpus_dir)
        payloads, report = engine.process_payloads(items)
    assert report.completed == len(items)
    assert report.skipped == []
    assert _result_bytes(swept) == _result_bytes(
        [(Path(name), result) for (name, _), result in
         zip(items, payloads)]
    )


def test_process_payloads_aligns_skips_in_place(
    fitted_pipeline, corpus_dir
):
    """The aligned-list contract: a failure occupies its input slot
    as a SkipEntry, successes keep theirs."""
    policy = IngestPolicy(strict=True)
    items = [
        (str(corpus_dir[0]), corpus_dir[0].read_bytes()),
        ("damaged.csv", b"a,\x00b\n1,2\n"),
        (str(corpus_dir[1]), corpus_dir[1].read_bytes()),
    ]
    with CorpusEngine(
        fitted_pipeline, n_jobs=1, policy=policy
    ) as engine:
        outcomes, report = engine.process_payloads(items)
    assert len(outcomes) == 3
    assert outcomes[0].path.name == corpus_dir[0].name
    assert outcomes[1].stage == "classify"
    assert "damaged.csv" in str(outcomes[1].path)
    assert outcomes[2].path.name == corpus_dir[1].name
    assert report.completed == 2
    assert [skip.path.name for skip in report.skipped] == [
        "damaged.csv"
    ]


def test_process_payloads_shares_the_sweep_cache(
    fitted_pipeline, corpus_dir, tmp_path
):
    """A swept file and a served payload with the same bytes hit one
    cache entry — and a cached payload never fans out a batch."""
    items = [(str(path), path.read_bytes()) for path in corpus_dir]
    with CorpusEngine(
        fitted_pipeline, n_jobs=1, cache_dir=tmp_path / "cache"
    ) as engine:
        engine.sweep_paths(corpus_dir)
        outcomes, report = engine.process_payloads(items)
    assert report.cache_hits == len(items)
    assert report.batches == 0
    assert all(hasattr(o, "line_codes") for o in outcomes)


def test_process_payloads_worker_crash_names_aligned_casualties(
    fitted_pipeline, corpus_dir, monkeypatch
):
    """A worker killed mid-call: every slot still settles (FileResult
    or SkipEntry), the marker file is named a worker-stage casualty,
    and the engine's next call runs on a respawned pool.  Sibling
    batches in flight on the dead executor may die with it — loudly,
    never silently."""
    monkeypatch.setattr(engine_mod, "_sweep_batch", _crash_on_marker)
    data = corpus_dir[0].read_bytes()
    items = [("crashme.csv", data)] + [
        (str(path), path.read_bytes()) for path in corpus_dir
    ]
    metrics = get_metrics()
    crashes = metrics.counter("sweep.worker_crashes")
    with CorpusEngine(fitted_pipeline, n_jobs=2) as engine:
        with pytest.warns(RuntimeWarning, match="worker crashed"):
            outcomes, report = engine.process_payloads(items)
        assert metrics.counter("sweep.worker_crashes") >= crashes + 1
        assert len(outcomes) == len(items)
        casualties = [
            o for o in outcomes
            if not hasattr(o, "line_codes") and o.stage == "worker"
        ]
        assert any("crashme" in str(o.path) for o in casualties)
        assert report.completed + len(report.skipped) == len(items)
        # The dead letters are replayable: the same engine serves the
        # clean payloads on a respawned pool.
        monkeypatch.setattr(engine_mod, "_sweep_batch", _REAL_SWEEP_BATCH)
        retried, retry_report = engine.process_payloads(items[1:])
        assert retry_report.completed == len(items) - 1
        assert all(hasattr(o, "line_codes") for o in retried)


@pytest.mark.parametrize("entry", ["sweep_paths", "process_payloads"])
def test_one_worker_death_is_one_crash_and_spares_the_respawned_pool(
    fitted_pipeline, corpus_dir, tmp_path, monkeypatch, entry
):
    """One worker death is one crash, one warning and one broken
    executor, at the default window with more batches than the
    window.  Eight same-size files cut into eight one-file batches
    (the budget is a quarter of the bytes per worker); two workers
    keep four in flight, so the dead executor can claim only those,
    and every batch submitted to the respawned pool completes."""
    data = corpus_dir[0].read_bytes()
    paths = [tmp_path / "crashme.csv"] + [
        tmp_path / f"copy{i}.csv" for i in range(1, 8)
    ]
    for path in paths:
        path.write_bytes(data)
    monkeypatch.setattr(engine_mod, "_sweep_batch", _crash_on_marker)
    metrics = get_metrics()
    names = ("sweep.worker_crashes", "worker_pool.broken",
             "worker_pool.spawns")
    before = {name: metrics.counter(name) for name in names}
    with CorpusEngine(fitted_pipeline, n_jobs=2) as engine:
        with pytest.warns(RuntimeWarning, match="worker crashed") as caught:
            if entry == "sweep_paths":
                results, report = engine.sweep_paths(paths)
                completed = [path for path, _ in results]
            else:
                outcomes, report = engine.process_payloads(
                    [(str(path), data) for path in paths]
                )
                completed = [
                    o.path for o in outcomes if isinstance(o, FileResult)
                ]
    window = 4  # the default: 2 * workers
    assert report.batches == len(paths) > window
    assert report.worker_crashes == 1
    crash_warnings = [
        w for w in caught if "worker crashed" in str(w.message)
    ]
    assert len(crash_warnings) == 1
    delta = {name: metrics.counter(name) - before[name] for name in names}
    assert delta == {
        "sweep.worker_crashes": 1,
        "worker_pool.broken": 1,
        "worker_pool.spawns": 2,
    }
    casualties = {skip.path for skip in report.skipped}
    assert paths[0] in casualties
    assert casualties <= set(paths[:window])
    assert {skip.stage for skip in report.skipped} == {"worker"}
    assert completed[-(len(paths) - window):] == paths[window:]
    assert report.completed + len(report.skipped) == len(paths)


def test_engine_rejects_nonpositive_window(fitted_pipeline):
    with pytest.raises(InvalidParameterError):
        CorpusEngine(fitted_pipeline, window=0)


def test_engine_pool_persists_across_sweeps(
    fitted_pipeline, corpus_dir
):
    metrics = get_metrics()
    with CorpusEngine(fitted_pipeline, n_jobs=2) as engine:
        engine.sweep_paths(corpus_dir[:2])
        spawns = metrics.counter("worker_pool.spawns")
        engine.sweep_paths(corpus_dir[:2])
        assert metrics.counter("worker_pool.spawns") == spawns
    assert engine._pool is None  # close() released the workers


def _child_pids() -> set[int]:
    """PIDs of this process's children, read from ``/proc``."""
    children = set()
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            # After the parenthesised command name: state, then ppid.
            fields = stat.read_text().rpartition(")")[2].split()
        except OSError:
            continue  # the process exited while we looked
        if int(fields[1]) == os.getpid():
            children.add(int(stat.parent.name))
    return children


@pytest.mark.skipif(
    not Path("/proc/self/stat").exists(), reason="reads /proc"
)
def test_only_a_running_engine_holds_workers(fitted_pipeline, corpus_dir):
    """One pool per process: a forest fit's workers end with the fit,
    and a pooled sweep runs on exactly the engine's workers.  Child
    PIDs are compared against a baseline, so pools other tests left
    open do not count."""
    metrics = get_metrics()
    before = _child_pids()
    spawns = metrics.counter("worker_pool.spawns")
    X = np.arange(40.0).reshape(20, 2)
    RandomForestClassifier(n_estimators=4, n_jobs=2, random_state=0).fit(
        X, np.arange(20) % 2
    )
    assert metrics.counter("worker_pool.spawns") == spawns + 1
    assert _child_pids() - before == set()
    with CorpusEngine(fitted_pipeline, n_jobs=2) as engine:
        run = iter(engine.sweep(corpus_dir))
        next(run)
        assert len(_child_pids() - before) == 2
        assert len(list(run)) == len(corpus_dir) - 1
    assert _child_pids() - before == set()
