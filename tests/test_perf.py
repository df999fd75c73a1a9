"""The perf subsystem: cache, fan-out helpers and parity.

The contract under test everywhere here: performance machinery may
change *when* work happens (cache lookups, worker pools), never *what*
it computes — parity tests compare byte-for-byte.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.strudel import StrudelLineClassifier, StrudelPipeline
from repro.errors import InvalidParameterError
from repro.eval.runner import cross_validate_lines
from repro.ml.forest import RandomForestClassifier
from repro.ml.model_selection import attach_feature_cache
from repro.obs import get_metrics
from repro.perf.cache import FeatureCache, array_hash, table_content_hash
from repro.perf.parallel import effective_jobs, parallel_map
from repro.types import Table


# ----------------------------------------------------------------------
# Content and array hashing
# ----------------------------------------------------------------------
def test_table_content_hash_changes_with_any_cell():
    base = Table([["a", "b"], ["c", "d"]])
    edited = Table([["a", "b"], ["c", "e"]])
    assert table_content_hash(base) != table_content_hash(edited)
    assert table_content_hash(base) == table_content_hash(
        Table([["a", "b"], ["c", "d"]])
    )


def test_table_content_hash_separators_are_injective():
    # Same characters, different grid: must not collide.
    merged = Table([["ab"]])
    split = Table([["a", "b"]])
    stacked = Table([["a"], ["b"]])
    hashes = {
        table_content_hash(merged),
        table_content_hash(split),
        table_content_hash(stacked),
    }
    assert len(hashes) == 3


def test_array_hash_sensitive_to_dtype_shape_and_values():
    a = np.arange(6, dtype=np.float64)
    assert array_hash(a) == array_hash(a.copy())
    assert array_hash(a) != array_hash(a.astype(np.float32))
    assert array_hash(a) != array_hash(a.reshape(2, 3))
    b = a.copy()
    b[0] = -1.0
    assert array_hash(a) != array_hash(b)


# ----------------------------------------------------------------------
# FeatureCache
# ----------------------------------------------------------------------
def test_cache_roundtrip_and_stats():
    cache = FeatureCache(max_entries=4)
    value = (np.arange(4.0), np.ones((2, 2)))
    assert cache.get("k") is None
    cache.put("k", value)
    got = cache.get("k")
    assert got is not None
    for stored, original in zip(got, value):
        np.testing.assert_array_equal(stored, original)
    assert cache.hits == 1
    assert cache.misses == 1
    assert len(cache) == 1


def test_cache_get_or_compute_computes_once():
    cache = FeatureCache(max_entries=4)
    calls = []

    def compute():
        calls.append(1)
        return (np.zeros(3),)

    first = cache.get_or_compute("k", compute)
    second = cache.get_or_compute("k", compute)
    assert len(calls) == 1
    np.testing.assert_array_equal(first[0], second[0])


def test_cache_lru_eviction_order():
    cache = FeatureCache(max_entries=2)
    cache.put("a", (np.zeros(1),))
    cache.put("b", (np.ones(1),))
    cache.get("a")  # refresh "a": now "b" is least recently used
    cache.put("c", (np.full(1, 2.0),))
    assert cache.get("b") is None
    assert cache.get("a") is not None
    assert cache.get("c") is not None


def test_cache_stats_is_a_locked_snapshot_with_evictions():
    cache = FeatureCache(max_entries=2)
    cache.put("a", (np.zeros(1),))
    cache.put("b", (np.ones(1),))
    cache.put("c", (np.full(1, 2.0),))  # evicts "a"
    cache.get("b")
    cache.get("a")  # miss: evicted
    stats = cache.stats()
    assert stats == {
        "hits": 1, "misses": 1, "evictions": 1, "size": 2
    }
    # The snapshot mirrors into the process-local metrics registry.
    assert get_metrics().counter("feature_cache.evictions") >= 1


def test_cache_rejects_nonpositive_bound():
    with pytest.raises(InvalidParameterError):
        FeatureCache(max_entries=0)


def test_cache_clear_empties_memory():
    cache = FeatureCache(max_entries=4)
    cache.put("k", (np.zeros(2),))
    cache.clear()
    assert len(cache) == 0


def test_make_key_joins_parts():
    assert FeatureCache.make_key("line", "cfg", "hash") == "line|cfg|hash"


# ----------------------------------------------------------------------
# Fan-out helpers
# ----------------------------------------------------------------------
def test_effective_jobs_semantics():
    assert effective_jobs(None, 10) == 1
    assert effective_jobs(1, 10) == 1
    assert effective_jobs(4, 10) == 4
    assert effective_jobs(4, 2) == 2  # clamped to the task count
    assert effective_jobs(4, 1) == 1
    assert effective_jobs(0, 10) >= 1  # "all cores" resolves positive


def test_parallel_map_preserves_order():
    items = list(range(20))
    sequential = parallel_map(lambda x: x * x, items, n_jobs=1)
    threaded = parallel_map(lambda x: x * x, items, n_jobs=4)
    assert sequential == threaded == [x * x for x in items]


def test_parallel_map_processes_fall_back_on_unpicklable_work():
    # Lambdas cannot be shipped to a process pool; the helper must
    # degrade to the (equivalent) sequential path instead of raising —
    # and must say so, not degrade silently.
    items = list(range(8))
    with pytest.warns(RuntimeWarning, match="degrading to sequential"):
        result = parallel_map(
            lambda x: x + 1, items, n_jobs=4, prefer="processes"
        )
    assert result == [x + 1 for x in items]


class _Unpicklable:
    """A payload the pool machinery can never ship to a worker."""

    def __reduce__(self):
        raise pickle.PicklingError("not shippable")


def _type_name(item) -> str:
    return type(item).__name__


def test_parallel_map_pool_degradation_is_recorded():
    # Infrastructure failure (unpicklable *payload*, not a work
    # error): correct results via the sequential path, plus a warning
    # and a metrics counter so the degradation is observable.
    items = [_Unpicklable(), _Unpicklable()]
    before = get_metrics().counter("parallel.pool_degraded")
    with pytest.warns(RuntimeWarning, match="PicklingError"):
        result = parallel_map(
            _type_name, items, n_jobs=2, prefer="processes"
        )
    assert result == ["_Unpicklable", "_Unpicklable"]
    assert get_metrics().counter("parallel.pool_degraded") == before + 1


def _record_and_maybe_fail(arg: tuple[str, int]) -> int:
    """Append a marker per invocation (visible across processes),
    then fail on the designated item."""
    path, item = arg
    with open(path, "a") as handle:
        handle.write(f"{item}\n")
    if item == 3:
        raise ValueError(f"work error on item {item}")
    return item


@pytest.mark.parametrize("prefer", ["threads", "processes"])
def test_parallel_map_work_error_propagates_exactly_once(
    tmp_path, prefer
):
    # A work-function exception is NOT pool infrastructure: it must
    # surface with its original type, and the failing item must have
    # run exactly once — never re-run sequentially after the pool
    # already executed it (the old bare-except masked the error and
    # doubled the work).
    marker = tmp_path / f"calls-{prefer}.txt"
    work = [(str(marker), item) for item in range(6)]
    with pytest.raises(ValueError, match="work error on item 3"):
        parallel_map(
            _record_and_maybe_fail, work, n_jobs=2, prefer=prefer
        )
    calls = marker.read_text().splitlines()
    assert calls.count("3") == 1


def test_parallel_map_rejects_unknown_preference():
    with pytest.raises(InvalidParameterError):
        parallel_map(int, [1], n_jobs=2, prefer="greenlets")


# ----------------------------------------------------------------------
# Determinism parity: parallelism and caching never change results
# ----------------------------------------------------------------------
def _toy_classification(seed: int = 7, n: int = 120, d: int = 6):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = (X[:, 0] + X[:, 1] > 0).astype(int) + (X[:, 2] > 1).astype(int)
    return X, y


def test_forest_parallel_fit_is_byte_identical():
    X, y = _toy_classification()
    sequential = RandomForestClassifier(
        n_estimators=12, random_state=3, oob_score=True, n_jobs=1
    ).fit(X, y)
    parallel = RandomForestClassifier(
        n_estimators=12, random_state=3, oob_score=True, n_jobs=3
    ).fit(X, y)

    np.testing.assert_array_equal(
        sequential.predict_proba(X), parallel.predict_proba(X)
    )
    np.testing.assert_array_equal(
        sequential.feature_importances_, parallel.feature_importances_
    )
    np.testing.assert_array_equal(
        sequential.oob_decision_function_,
        parallel.oob_decision_function_,
    )
    assert sequential.oob_score_ == parallel.oob_score_


def test_pipeline_jobs_and_cache_are_byte_identical(tiny_corpus):
    files = tiny_corpus.files
    text = "\n".join(
        ",".join(row) for row in files[0].table.rows()
    )

    baseline = StrudelPipeline(n_estimators=8, random_state=0)
    baseline.fit(files)
    expected = baseline.analyze(text)

    tuned = StrudelPipeline(
        n_estimators=8, random_state=0, n_jobs=2,
        feature_cache=FeatureCache(max_entries=64),
    )
    tuned.fit(files)
    result = tuned.analyze(text)

    assert result.line_classes == expected.line_classes
    assert result.cell_classes == expected.cell_classes
    np.testing.assert_array_equal(
        baseline.line_classifier._model.feature_importances_,
        tuned.line_classifier._model.feature_importances_,
    )
    np.testing.assert_array_equal(
        baseline.cell_classifier._model.feature_importances_,
        tuned.cell_classifier._model.feature_importances_,
    )


def test_cache_hit_serves_identical_matrices(tiny_corpus):
    table = tiny_corpus.files[0].table
    cold = StrudelLineClassifier(n_estimators=4, random_state=0)
    cold_matrix = cold.extractor.extract(table)

    cache = FeatureCache(max_entries=8)
    cached = StrudelLineClassifier(n_estimators=4, random_state=0)
    cached.set_feature_cache(cache)
    first = cached._extract(table)
    second = cached._extract(table)

    assert cache.hits >= 1
    np.testing.assert_array_equal(first, cold_matrix)
    np.testing.assert_array_equal(second, cold_matrix)


def test_cross_validation_cache_parity(tiny_corpus):
    def factory():
        return StrudelLineClassifier(n_estimators=4, random_state=0)

    uncached = cross_validate_lines(
        tiny_corpus, factory, n_splits=3, n_repeats=1, seed=0
    )
    cache = FeatureCache(max_entries=64)
    cached = cross_validate_lines(
        tiny_corpus, factory, n_splits=3, n_repeats=1, seed=0,
        feature_cache=cache,
    )

    assert cached.scores.macro_f1 == uncached.scores.macro_f1
    assert cached.scores.accuracy == uncached.scores.accuracy
    np.testing.assert_array_equal(cached.confusion, uncached.confusion)
    # Three folds over the same files: each file's matrix is extracted
    # once, and every fold after the first is all lookups.
    n_files = len(tiny_corpus.files)
    stats = cache.stats()
    assert stats["misses"] == n_files
    assert stats["hits"] == (3 - 1) * n_files


def test_attach_feature_cache_protocol(tiny_corpus):
    cache = FeatureCache(max_entries=4)
    strudel = StrudelLineClassifier(n_estimators=4)
    assert attach_feature_cache(strudel, cache) is True
    assert strudel._feature_cache is cache
    assert attach_feature_cache(object(), cache) is False
