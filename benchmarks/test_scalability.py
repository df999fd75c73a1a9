"""Section 6.3.4 — scalability: runtime linear in file size.

The paper measures the end-to-end per-file runtime (dialect detection,
feature creation, prediction) on growing Mendeley files and reports
linear scaling.  We time the same pipeline stages on generated files
of increasing length and fit a linear model; the fit must explain the
variance well and clearly beat a quadratic-only explanation.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.strudel import StrudelPipeline
from repro.datagen.filegen import generate_file
from repro.datagen.spec import FileSpec, TableSpec
from repro.io.writer import write_csv_text

#: Data rows per timed file (geometric-ish growth).
SIZES = (50, 100, 200, 400, 800)


def _make_file(n_rows: int, seed: int):
    spec = FileSpec(
        domain="science",
        metadata_lines=2,
        notes_lines=2,
        tables=[
            TableSpec(
                n_numeric_cols=6,
                n_groups=0,
                rows_per_group=n_rows,
                grand_total=True,
            )
        ],
    )
    return generate_file(spec, np.random.default_rng(seed), f"s{n_rows}")


def test_scalability_is_linear(benchmark, config, report):
    train = config.corpus("saus")
    pipeline = StrudelPipeline(
        n_estimators=config.n_estimators, random_state=config.seed
    )
    pipeline.fit(train.files)

    texts = {
        n: write_csv_text(_make_file(n, seed=n).table.rows())
        for n in SIZES
    }

    def timed_runs():
        # Median of three runs per size resists scheduler noise.
        timings = {}
        for n, text in texts.items():
            samples = []
            for _ in range(3):
                start = time.perf_counter()
                pipeline.analyze(text)
                samples.append(time.perf_counter() - start)
            timings[n] = sorted(samples)[1]
        return timings

    # Warm up (first call pays numpy/JIT-ish caches), then measure.
    timed_runs()
    timings = benchmark.pedantic(timed_runs, rounds=1, iterations=1)

    sizes = np.array(sorted(timings))
    seconds = np.array([timings[n] for n in sizes])
    # Least-squares linear fit through the measurements.
    coefficients = np.polyfit(sizes, seconds, 1)
    predicted = np.polyval(coefficients, sizes)
    residual = seconds - predicted
    r_squared = 1.0 - residual.var() / seconds.var()

    lines = [f"{'rows':>6} {'seconds':>9} {'sec/row (x1e3)':>15}"]
    for n, s in zip(sizes, seconds):
        lines.append(f"{n:>6} {s:>9.3f} {1000 * s / n:>15.3f}")
    lines.append(f"linear fit R^2 = {r_squared:.3f}")
    lines.append("paper: overall runtime is linear in the file size")
    report("Scalability (Section 6.3.4)", "\n".join(lines))

    assert r_squared > 0.85
    # Doubling the input must not quadruple the cost (sub-quadratic):
    ratio = seconds[-1] / seconds[-2]
    assert ratio < 3.0


def test_runtime_breakdown(benchmark, config, report):
    """Section 6.3.4: 'Most of the time is spent on creating the
    feature vectors' — measured by timing the pipeline stages
    separately on one large file.

    The staged flow mirrors the single-pass plan of
    ``StrudelPipeline.analyze``: the line feature matrix is extracted
    once and both line probabilities and cell features derive from it,
    so the stage timings add up to one real analyze.
    """
    from repro.dialect.detector import detect_dialect
    from repro.io.reader import read_table_text

    train = config.corpus("saus")
    pipeline = StrudelPipeline(
        n_estimators=config.n_estimators, random_state=config.seed
    )
    pipeline.fit(train.files)
    text = write_csv_text(_make_file(600, seed=0).table.rows())

    def staged():
        timings = {}
        start = time.perf_counter()
        dialect = detect_dialect(text)
        timings["dialect_detection"] = time.perf_counter() - start

        start = time.perf_counter()
        table = read_table_text(text, dialect)
        timings["parsing"] = time.perf_counter() - start

        start = time.perf_counter()
        line_features = pipeline.line_classifier.extractor.extract(table)
        probabilities = (
            pipeline.line_classifier.predict_proba_from_features(
                line_features
            )
        )
        positions, cell_features = pipeline.cell_classifier.extractor.extract(
            table, probabilities
        )
        timings["feature_creation"] = time.perf_counter() - start

        start = time.perf_counter()
        pipeline.cell_classifier.predict_from_features(
            positions, cell_features
        )
        timings["prediction"] = time.perf_counter() - start
        return timings

    staged()  # warm-up
    timings = benchmark.pedantic(staged, rounds=1, iterations=1)
    total = sum(timings.values())
    lines = [f"{'stage':<20} {'seconds':>9} {'share':>7}"]
    for stage, seconds in timings.items():
        lines.append(
            f"{stage:<20} {seconds:>9.3f} {seconds / total:>7.1%}"
        )
    lines.append(
        "paper: most of the time is spent on creating the feature "
        "vectors"
    )
    report("Runtime breakdown (Section 6.3.4)", "\n".join(lines))

    # Feature creation dominates dialect detection and raw parsing.
    assert timings["feature_creation"] > timings["dialect_detection"]
    assert timings["feature_creation"] > timings["parsing"]


def test_analyze_extracts_each_feature_matrix_once(config):
    """The single-pass plan: one ``analyze`` call runs the line
    feature extractor exactly once and the cell feature extractor
    exactly once (before the plan, line features were extracted twice
    — once for line labels, once for the probability features).  The
    cell pass builds its matrix alone, with ``matrix``."""
    train = config.corpus("saus")
    pipeline = StrudelPipeline(
        n_estimators=config.n_estimators, random_state=config.seed
    )
    pipeline.fit(train.files)
    text = write_csv_text(_make_file(60, seed=0).table.rows())

    calls = {"line": 0, "cell": 0}
    line_extract = pipeline.line_classifier.extractor.extract
    cell_matrix = pipeline.cell_classifier.extractor.matrix

    def counting_line_extract(table):
        calls["line"] += 1
        return line_extract(table)

    def counting_cell_matrix(table, probabilities):
        calls["cell"] += 1
        return cell_matrix(table, probabilities)

    pipeline.line_classifier.extractor.extract = counting_line_extract
    pipeline.cell_classifier.extractor.matrix = counting_cell_matrix
    try:
        pipeline.analyze(text)
    finally:
        pipeline.line_classifier.extractor.extract = line_extract
        pipeline.cell_classifier.extractor.matrix = cell_matrix

    assert calls == {"line": 1, "cell": 1}
