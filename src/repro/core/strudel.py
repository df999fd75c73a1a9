"""Strudel classifiers: line level, cell level, and the full pipeline.

* :class:`StrudelLineClassifier` — Strudel-L, a multi-class random
  forest over the Table 1 line features.
* :class:`StrudelCellClassifier` — Strudel-C, a multi-class random
  forest over the Table 2 cell features; runs Strudel-L first and
  feeds its per-line probability vectors in as features (Section 5.4).
* :class:`LineToCellBaseline` — the Line-C baseline, which "simply
  extends the predicted class of a line ... to each non-empty cell in
  this line".
* :class:`StrudelPipeline` — the end-to-end flow of Figure 2: dialect
  detection, parsing, cropping, line classification, cell
  classification.

Feature matrices are the hot path (Section 6.3.4: "most of the time
is spent on creating the feature vectors"), so the flow is organized
as a **single-pass plan**: each line feature matrix is extracted
exactly once per table and shared — :meth:`StrudelLineClassifier.infer`
returns a :class:`LineInference` carrying both the matrix and the
aligned class probabilities, and every downstream consumer (line
labels, the ``LineClassProbability`` cell features, cell prediction)
derives from that one object.  Cross-validation folds touch the same
``Table`` objects, so every fold after the first reuses each table's
memoized :class:`~repro.core.profile.TableProfile`.  ``n_jobs`` only
sizes the forest backbone and never changes a result.

:class:`StrudelPipeline` classifies a *list* of tables on one path:
features are extracted table by table, and each forest is called once
over the row-stack of every table's matrix.  A forest's fixed cost
per call is the largest single cost on a small file, so
:meth:`StrudelPipeline.analyze_batch` (the corpus engine's entry)
pays it once per micro-batch; ``analyze``/``analyze_bytes``/
``analyze_table`` are batches of one, never stacked or copied.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.core.cell_features import CellFeatureExtractor
from repro.core.line_features import LineFeatureExtractor
from repro.core.profile import table_profile
from repro.dialect.dialect import Dialect
from repro.errors import InvalidParameterError, NotFittedError
from repro.io.cropping import crop_table
from repro.io.ingest import (
    IngestPolicy,
    IngestReport,
    ingest_bytes,
    ingest_text,
)
from repro.ml.forest import RandomForestClassifier
from repro.obs import get_tracer
from repro.types import (
    CLASS_CODES,
    CLASS_TO_INDEX,
    CODE_TO_CLASS,
    CONTENT_CLASSES,
    AnnotatedFile,
    CellClass,
    Table,
)

#: Forest size used by default.  The paper uses scikit-learn defaults
#: (100 trees); experiments may pass a smaller budget for speed.
DEFAULT_N_ESTIMATORS = 100


def align_class_probabilities(
    raw: np.ndarray, classes: np.ndarray, n_rows: int
) -> np.ndarray:
    """Spread a model's raw probability columns onto the canonical
    six-class axis.

    A model trained on data missing a rare class emits fewer columns
    than :data:`~repro.types.CONTENT_CLASSES`; absent classes get
    probability zero.  Shared by the line and cell classifiers so the
    alignment convention lives in exactly one place.
    """
    aligned = np.zeros((n_rows, len(CONTENT_CLASSES)))
    for column, klass in enumerate(classes):
        aligned[:, int(klass)] = raw[:, column]
    return aligned


def _codes_from(aligned: np.ndarray) -> np.ndarray:
    """Most probable class code (``int8``) per row of an aligned
    probability matrix."""
    return np.argmax(aligned, axis=1).astype(np.int8)


def _classes_of(codes: np.ndarray) -> list[CellClass]:
    """The :class:`CellClass` of each code, decoded in one ``take``
    (a Python loop here showed up in the cell-prediction profile)."""
    return CODE_TO_CLASS.take(codes).tolist()


def _apply_columns(
    features: np.ndarray, columns: np.ndarray
) -> np.ndarray:
    """Apply a fitted feature-subset selection.

    When the selection is the identity (no ``feature_subset``
    configured — the common case) the matrix is returned as-is: a
    fancy column slice would copy the whole matrix on every predict
    call for nothing.
    """
    if columns.size == features.shape[1] and np.array_equal(
        columns, np.arange(features.shape[1])
    ):
        return features
    return features[:, columns]


def _attempt(fn: Callable[..., Any], values: tuple) -> Any:
    """``fn(*values)``, or the exception it raises; the first exception
    among ``values`` (an earlier stage's failure) instead of calling.

    Kept apart from :func:`_each` so a caught exception's traceback
    holds this frame, not the batch's lists."""
    for value in values:
        if isinstance(value, Exception):
            return value
    try:
        return fn(*values)
    except Exception as exc:
        return exc


def _each(fn: Callable[..., Any], *columns: Sequence) -> list:
    """One stage of a batch, table by table: ``fn`` over the zipped
    per-table ``columns``.

    This is the batch's failure isolation.  A table that failed in an
    earlier stage keeps that exception, and an exception ``fn`` raises
    on a table becomes that table's value, so each table ends with the
    exception a batch of it alone would raise and the others never see
    it.
    """
    return [_attempt(fn, values) for values in zip(*columns)]


def _stacked(predict: Callable[..., Any], matrices: list) -> list:
    """``predict`` over a batch's per-table matrices in one call, split
    back per table by row count.

    Byte-identical to one call per matrix because a forest prediction
    is row-independent: each row's leaves, and their tree-order sum,
    depend on that row alone.  A lone live matrix is predicted as it
    is, never stacked or copied.  If the stacked call raises, each
    matrix is predicted alone, so only a table whose own call raises
    fails.
    """
    live = [m for m in matrices if not isinstance(m, Exception)]
    if len(live) > 1:
        try:
            stacked = predict(np.concatenate(live))
        except Exception:
            return _each(predict, matrices)
        offsets = np.cumsum([len(m) for m in live[:-1]])
        parts = iter(np.split(stacked, offsets))
        return [m if isinstance(m, Exception) else next(parts) for m in matrices]
    return _each(predict, matrices)


def _or_raise(outcome: Any) -> Any:
    """A batch-of-one outcome as an entry point returns it: raised if
    it is the exception the table failed with."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


@dataclass
class LineInference:
    """One table's line-level inference, computed in a single pass.

    Attributes
    ----------
    features:
        The full ``(n_rows, n_features)`` line feature matrix (before
        any feature-subset column selection).
    probabilities:
        The aligned ``(n_rows, 6)`` class probability matrix derived
        from ``features``.
    """

    features: np.ndarray
    probabilities: np.ndarray


class _StrudelForest:
    """What Strudel-L and Strudel-C share: the forest configuration,
    the feature-subset selection and the fitted model.

    The model is a :class:`~repro.ml.forest.RandomForestClassifier`
    with the classifier's ``n_estimators``, ``random_state`` and
    ``n_jobs`` and every other setting at its default (scikit-learn's,
    as in the paper), unless a ``classifier_factory`` was passed: then
    it is ``classifier_factory()``.
    """

    #: ``line`` or ``cell``: which features an unknown name is among.
    _granularity = ""

    def __init__(
        self,
        n_estimators: int,
        random_state: int | None,
        feature_subset: tuple[str, ...] | None,
        classifier_factory,
        n_jobs: int | None,
    ):
        self.n_estimators = n_estimators
        self.random_state = random_state
        self.feature_subset = feature_subset
        self.n_jobs = n_jobs
        self._classifier_factory = classifier_factory
        self._model = None
        self._columns: np.ndarray | None = None

    def _make_model(self):
        if self._classifier_factory is not None:
            return self._classifier_factory()
        return RandomForestClassifier(
            n_estimators=self.n_estimators,
            random_state=self.random_state,
            n_jobs=self.n_jobs,
        )

    def _select_columns(self) -> np.ndarray:
        names = self.extractor.feature_names
        if self.feature_subset is None:
            return np.arange(len(names))
        index = {name: i for i, name in enumerate(names)}
        missing = [n for n in self.feature_subset if n not in index]
        if missing:
            raise InvalidParameterError(
                f"unknown {self._granularity} features: {missing}"
            )
        return np.array([index[n] for n in self.feature_subset])

    def _require_fitted(self) -> None:
        if self._model is None:
            raise NotFittedError(
                f"{type(self).__name__} must be fitted first"
            )


class StrudelLineClassifier(_StrudelForest):
    """Strudel-L: random-forest line classification.

    Parameters
    ----------
    extractor:
        Line feature extractor; defaults to the paper's Table 1 set.
    n_estimators, random_state:
        Forest configuration.
    feature_subset:
        Optional tuple of feature names to keep (feature-group
        ablations); ``None`` keeps all.
    n_jobs:
        Worker count for the default forest backbone; results are
        independent of the value (deterministic parallelism).
    """

    _granularity = "line"

    def __init__(
        self,
        extractor: LineFeatureExtractor | None = None,
        n_estimators: int = DEFAULT_N_ESTIMATORS,
        random_state: int | None = None,
        feature_subset: tuple[str, ...] | None = None,
        classifier_factory=None,
        n_jobs: int | None = 1,
    ):
        super().__init__(
            n_estimators, random_state, feature_subset,
            classifier_factory, n_jobs,
        )
        self.extractor = extractor or LineFeatureExtractor()

    # ------------------------------------------------------------------
    # Feature extraction
    # ------------------------------------------------------------------
    def _extract(self, table: Table) -> np.ndarray:
        """The full (pre-column-selection) line feature matrix for one
        table; ``_columns`` is applied by the consumers."""
        with get_tracer().span("line_features"):
            return self.extractor.extract(table)

    def extract_features(
        self, tables: list[Table]
    ) -> list[np.ndarray]:
        """Per-table full feature matrices, in input order."""
        return [self._extract(table) for table in tables]

    # ------------------------------------------------------------------
    def fit(
        self,
        files: list[AnnotatedFile],
        features: list[np.ndarray] | None = None,
    ) -> "StrudelLineClassifier":
        """Train on the non-empty lines of ``files``.

        ``features`` may carry the per-file matrices from
        :meth:`extract_features` when the caller already has them (the
        cell classifier shares one extraction pass between the line
        fit and its probability features).
        """
        self._columns = self._select_columns()
        if features is None:
            features = self.extract_features(
                [annotated.table for annotated in files]
            )
        matrices: list[np.ndarray] = []
        labels: list[np.ndarray] = []
        for annotated, matrix in zip(files, features):
            indices = annotated.non_empty_line_indices()
            if not indices:
                continue
            matrices.append(matrix[indices])
            labels.append(
                np.array(
                    [
                        CLASS_TO_INDEX[annotated.line_labels[i]]
                        for i in indices
                    ]
                )
            )
        X = np.vstack(matrices)[:, self._columns]
        y = np.concatenate(labels)
        self._model = self._make_model().fit(X, y)
        return self

    # ------------------------------------------------------------------
    def predict_proba_from_features(
        self, features: np.ndarray
    ) -> np.ndarray:
        """Aligned ``(n_rows, 6)`` probabilities from a pre-extracted
        full feature matrix (no re-extraction)."""
        self._require_fitted()
        with get_tracer().span("line_prediction"):
            raw = self._model.predict_proba(
                _apply_columns(features, self._columns)
            )
            return align_class_probabilities(
                raw, self._model.classes_, features.shape[0]
            )

    def infer(self, table: Table) -> LineInference:
        """Extract the feature matrix once and derive the aligned
        probabilities from it — the single-pass entry point shared by
        every consumer of line-level inference."""
        self._require_fitted()
        features = self._extract(table)
        return LineInference(
            features=features,
            probabilities=self.predict_proba_from_features(features),
        )

    def predict_proba(self, table: Table) -> np.ndarray:
        """``(n_rows, 6)`` class probability matrix over all lines.

        Probabilities are produced for every line (including empty
        ones, whose rows are only consumed as features downstream);
        columns follow :data:`~repro.types.CONTENT_CLASSES` order.
        """
        return self.infer(table).probabilities

    def predict_codes(
        self, table: Table, inference: LineInference | None = None
    ) -> np.ndarray:
        """Predicted class code per line (``int8``,
        :data:`~repro.types.CLASS_CODES`): the most probable class, and
        ``EMPTY`` for lines without a non-empty cell.

        Passing an existing :class:`LineInference` skips extraction
        entirely.
        """
        if inference is None:
            inference = self.infer(table)
        codes = _codes_from(inference.probabilities)
        codes[table_profile(table).empty_row] = CLASS_CODES[CellClass.EMPTY]
        return codes

    def predict(
        self, table: Table, inference: LineInference | None = None
    ) -> list[CellClass]:
        """Predicted class per line; empty lines get ``CellClass.EMPTY``.

        Passing an existing :class:`LineInference` skips extraction
        entirely.
        """
        return _classes_of(self.predict_codes(table, inference))


class StrudelCellClassifier(_StrudelForest):
    """Strudel-C: random-forest cell classification on Table 2 features.

    Owns (or shares) a :class:`StrudelLineClassifier`, which is fitted
    first so its probability vectors become cell features.
    """

    _granularity = "cell"

    def __init__(
        self,
        line_classifier: StrudelLineClassifier | None = None,
        extractor: CellFeatureExtractor | None = None,
        n_estimators: int = DEFAULT_N_ESTIMATORS,
        random_state: int | None = None,
        feature_subset: tuple[str, ...] | None = None,
        classifier_factory=None,
        n_jobs: int | None = 1,
    ):
        super().__init__(
            n_estimators, random_state, feature_subset,
            classifier_factory, n_jobs,
        )
        self.line_classifier = line_classifier or StrudelLineClassifier(
            n_estimators=n_estimators, random_state=random_state,
            n_jobs=n_jobs,
        )
        self.extractor = extractor or CellFeatureExtractor()
        self._line_fitted_here = False

    # ------------------------------------------------------------------
    def extract_cells(
        self, table: Table, probabilities: np.ndarray
    ) -> tuple[list[tuple[int, int]], np.ndarray]:
        """The cell feature pass: positions and the full feature matrix
        for every non-empty cell.

        Callers that want to time or batch prediction separately from
        extraction (the benchmark's per-layer timings in
        ``bench/layers.py``) pair this with
        :meth:`predict_from_features`.
        """
        with get_tracer().span("cell_features"):
            return self.extractor.extract(table, probabilities)

    def cell_matrix(
        self, table: Table, probabilities: np.ndarray
    ) -> np.ndarray:
        """The cell feature pass without positions: the full feature
        matrix of the non-empty cells in row-major order, what
        :meth:`codes_from_features` takes."""
        with get_tracer().span("cell_features"):
            return self.extractor.matrix(table, probabilities)

    # ------------------------------------------------------------------
    def fit(self, files: list[AnnotatedFile]) -> "StrudelCellClassifier":
        """Train on the non-empty cells of ``files``.

        Fits the line classifier on the same files first (unless the
        caller passed one that is already fitted), then uses its
        probabilities as the ``LineClassProbability`` features.  The
        line feature matrices are extracted exactly once and shared
        between the line fit and the probability computation.
        """
        line_features = self.line_classifier.extract_features(
            [annotated.table for annotated in files]
        )
        if self.line_classifier._model is None:
            self.line_classifier.fit(files, features=line_features)
            self._line_fitted_here = True
        self._columns = self._select_columns()

        matrices: list[np.ndarray] = []
        labels: list[np.ndarray] = []
        for annotated, matrix in zip(files, line_features):
            probabilities = (
                self.line_classifier.predict_proba_from_features(matrix)
            )
            positions, features = self.extract_cells(
                annotated.table, probabilities
            )
            if not positions:
                continue
            matrices.append(features)
            labels.append(
                np.array(
                    [
                        CLASS_TO_INDEX[annotated.cell_labels[i][j]]
                        for i, j in positions
                    ]
                )
            )
        X = np.vstack(matrices)[:, self._columns]
        y = np.concatenate(labels)
        self._model = self._make_model().fit(X, y)
        return self

    # ------------------------------------------------------------------
    def codes_from_features(self, features: np.ndarray) -> np.ndarray:
        """Predicted class code (``int8``,
        :data:`~repro.types.CLASS_CODES`) per row of a pre-extracted
        cell feature matrix.

        The codes are the model's ``predict``.  That is the argmax of
        the probabilities aligned onto the six classes: the model's
        ``classes_`` are sorted content-class codes, and a row's
        largest probability is positive, so no absent class (aligned
        to zero) can win and ties break the same way.
        """
        self._require_fitted()
        with get_tracer().span("cell_prediction"):
            if not len(features):
                return np.zeros(0, dtype=np.int8)
            return self._model.predict(
                _apply_columns(features, self._columns)
            ).astype(np.int8)

    def predict_from_features(
        self,
        positions: list[tuple[int, int]],
        features: np.ndarray,
    ) -> tuple[list[tuple[int, int]], list[CellClass]]:
        """Predicted classes for pre-extracted cell features."""
        return positions, _classes_of(self.codes_from_features(features))

    def predict_with_positions(
        self,
        table: Table,
        line_inference: LineInference | None = None,
    ) -> tuple[list[tuple[int, int]], list[CellClass]]:
        """Positions and predicted classes of all non-empty cells.

        ``line_inference`` carries an already-computed line pass (see
        :meth:`StrudelLineClassifier.infer`); when omitted, one is
        computed here — either way line features are extracted at most
        once.
        """
        self._require_fitted()
        if line_inference is None:
            probabilities = self.line_classifier.predict_proba(table)
        else:
            probabilities = line_inference.probabilities
        positions, features = self.extract_cells(table, probabilities)
        return self.predict_from_features(positions, features)

    def predict(
        self,
        table: Table,
        line_inference: LineInference | None = None,
    ) -> dict[tuple[int, int], CellClass]:
        """Mapping from non-empty cell positions to predicted classes."""
        positions, labels = self.predict_with_positions(
            table, line_inference=line_inference
        )
        return dict(zip(positions, labels))


class LineToCellBaseline:
    """Line-C: extend each line's predicted class to its non-empty cells."""

    def __init__(self, line_classifier: StrudelLineClassifier):
        self.line_classifier = line_classifier

    def fit(self, files: list[AnnotatedFile]) -> "LineToCellBaseline":
        """Fit the underlying line classifier if necessary."""
        if self.line_classifier._model is None:
            self.line_classifier.fit(files)
        return self

    def predict_with_positions(
        self, table: Table
    ) -> tuple[list[tuple[int, int]], list[CellClass]]:
        """Positions and classes of all non-empty cells."""
        line_labels = self.line_classifier.predict(table)
        positions: list[tuple[int, int]] = []
        labels: list[CellClass] = []
        for cell in table.non_empty_cells():
            positions.append((cell.row, cell.col))
            labels.append(line_labels[cell.row])
        return positions, labels

    def predict(self, table: Table) -> dict[tuple[int, int], CellClass]:
        """Mapping from non-empty cell positions to predicted classes."""
        positions, labels = self.predict_with_positions(table)
        return dict(zip(positions, labels))


class StructureResult:
    """Output of the end-to-end pipeline for one input text.

    ``ingest`` carries the ingestion stage's repair report when the
    result came from :meth:`StrudelPipeline.analyze` (``None`` for
    :meth:`~StrudelPipeline.analyze_table`, which skips ingestion).

    The pipeline classifies in class codes
    (:data:`~repro.types.CLASS_CODES`) and keeps them on the result:
    ``line_codes`` (``int8``, one per row), ``cell_positions``
    (``int64``, ``(n, 2)``, the non-empty cells in row-major order)
    and ``cell_codes`` (``int8``, aligned with the positions).  A
    result built by :meth:`from_codes` decodes ``line_classes`` and
    ``cell_classes`` from them on first read, so the corpus engine and
    the wire, which take the arrays as they are, never build a
    :class:`~repro.types.CellClass` per cell.  A result built from
    classes alone, by keyword, has no codes (``None``); classes passed
    as ``None`` are decoded from the codes.  Equality compares the
    dialect, the table, the classes and the ingest report, never the
    codes.
    """

    def __init__(
        self,
        dialect: Dialect,
        table: Table,
        line_classes: list[CellClass] | None,
        cell_classes: dict[tuple[int, int], CellClass] | None,
        ingest: IngestReport | None = None,
        line_codes: np.ndarray | None = None,
        cell_positions: np.ndarray | None = None,
        cell_codes: np.ndarray | None = None,
    ):
        self.dialect = dialect
        self.table = table
        self._line_classes = line_classes
        self._cell_classes = cell_classes
        self.ingest = ingest
        self.line_codes = line_codes
        self.cell_positions = cell_positions
        self.cell_codes = cell_codes

    @classmethod
    def from_codes(
        cls,
        dialect: Dialect,
        table: Table,
        line_codes: np.ndarray,
        cell_positions: np.ndarray,
        cell_codes: np.ndarray,
        ingest: IngestReport | None = None,
    ) -> "StructureResult":
        """A result that keeps its codes and decodes its class
        objects from them when they are first read."""
        return cls(
            dialect, table, None, None, ingest,
            line_codes, cell_positions, cell_codes,
        )

    @property
    def line_classes(self) -> list[CellClass]:
        """Per-line classes, one per table row."""
        if self._line_classes is None:
            self._line_classes = _classes_of(self.line_codes)
        return self._line_classes

    @property
    def cell_classes(self) -> dict[tuple[int, int], CellClass]:
        """Non-empty cell positions mapped to their classes, in
        row-major order."""
        if self._cell_classes is None:
            rows, cols = self.cell_positions.T.tolist()
            self._cell_classes = dict(
                zip(zip(rows, cols), _classes_of(self.cell_codes))
            )
        return self._cell_classes

    def _compared(self) -> tuple:
        return (
            self.dialect, self.table, self.line_classes,
            self.cell_classes, self.ingest,
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._compared() == other._compared()

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(dialect={self.dialect!r}, "
            f"table={self.table!r}, line_classes={self.line_classes!r}, "
            f"cell_classes={self.cell_classes!r}, ingest={self.ingest!r})"
        )


class StrudelPipeline:
    """The full Figure 2 flow: text in, classified structure out.

    The pipeline owns one Strudel-L and one Strudel-C model; call
    :meth:`fit` with annotated files, then :meth:`analyze` with raw
    CSV text (dialect is detected automatically) or :meth:`analyze_table`
    with an already-parsed table.

    Parameters
    ----------
    n_estimators, random_state, crop:
        Model size, seed, and whether to crop parsed tables.
    n_jobs:
        Worker count threaded through to the forest backbone; never
        changes predictions.
    """

    def __init__(
        self,
        n_estimators: int = DEFAULT_N_ESTIMATORS,
        random_state: int | None = None,
        crop: bool = True,
        n_jobs: int | None = 1,
    ):
        self.line_classifier = StrudelLineClassifier(
            n_estimators=n_estimators, random_state=random_state,
            n_jobs=n_jobs,
        )
        self.cell_classifier = StrudelCellClassifier(
            line_classifier=self.line_classifier,
            n_estimators=n_estimators,
            random_state=random_state,
            n_jobs=n_jobs,
        )
        self.crop = crop
        self.n_jobs = n_jobs

    def fit(self, files: list[AnnotatedFile]) -> "StrudelPipeline":
        """Train both classifiers on annotated files."""
        with get_tracer().span("fit", n_files=len(files)):
            self.cell_classifier.fit(files)
        return self

    def _classify(self, tables: list) -> list:
        """The one classification path: ``(line_codes, cell_positions,
        cell_codes)`` per table, or the exception the table failed
        with (an exception in ``tables`` is carried through).

        One shared line pass feeds both output granularities.  The
        line features are extracted table by table, then one line
        forest call covers the whole batch; per table, the line codes
        and the cell features (which take the line probabilities)
        follow, then one cell forest call (:func:`_stacked`).  The
        cells come in the row-major order the cell features are
        extracted in.
        """
        line, cells = self.line_classifier, self.cell_classifier
        features = _each(line._extract, tables)
        probabilities = _stacked(line.predict_proba_from_features, features)
        line_codes = _each(
            lambda table, matrix, proba: line.predict_codes(
                table, LineInference(matrix, proba)
            ),
            tables, features, probabilities,
        )
        # ``line_codes`` only carries a table's failure forward.
        cell_features = _each(
            lambda table, proba, _codes: cells.cell_matrix(table, proba),
            tables, probabilities, line_codes,
        )
        cell_codes = _stacked(cells.codes_from_features, cell_features)
        return _each(
            lambda table, codes, cell: (
                codes,
                np.column_stack(np.nonzero(table_profile(table).non_empty)),
                cell,
            ),
            tables, line_codes, cell_codes,
        )

    def _analyze(
        self,
        ingest: Callable[..., Any],
        sources: Sequence,
        dialect: Dialect | None,
        policy: IngestPolicy | None,
    ) -> list:
        """Shared tail of the ``analyze*`` entry points: each source
        through the hardened ingestion stage and the crop, then all of
        them through :meth:`_classify`.  One
        :class:`StructureResult` or exception per source."""
        policy = policy or IngestPolicy()

        def prepare(source) -> tuple[Dialect, Table, IngestReport]:
            ingested = ingest(source, dialect=dialect, policy=policy)
            table = ingested.table
            if self.crop:
                table = crop_table(table)
            return ingested.dialect, table, ingested.report

        prepared = _each(prepare, sources)
        tables = [p if isinstance(p, Exception) else p[1] for p in prepared]
        return _each(
            lambda ingested, codes: StructureResult.from_codes(
                ingested[0], ingested[1], *codes, ingest=ingested[2]
            ),
            prepared, self._classify(tables),
        )

    def analyze(
        self,
        text: str,
        dialect: Dialect | None = None,
        policy: IngestPolicy | None = None,
    ) -> StructureResult:
        """Classify the structure of raw CSV ``text``.

        The text is routed through the hardened ingestion stage
        (:mod:`repro.io.ingest`), so a stray byte-order mark or NUL
        never reaches dialect detection or feature extraction; the
        stage's report rides along on the result.
        """
        with get_tracer().span("analyze"):
            (outcome,) = self._analyze(ingest_text, [text], dialect, policy)
            return _or_raise(outcome)

    def analyze_bytes(
        self,
        data: bytes,
        dialect: Dialect | None = None,
        policy: IngestPolicy | None = None,
    ) -> StructureResult:
        """Classify the structure of raw CSV ``data`` (undecoded bytes).

        Identical to :meth:`analyze` but entering the hardened
        ingestion stage one step earlier, at encoding resolution.  A
        batch of one through the path :meth:`analyze_batch` takes.
        """
        with get_tracer().span("analyze"):
            (outcome,) = self._analyze(ingest_bytes, [data], dialect, policy)
            return _or_raise(outcome)

    def analyze_batch(
        self,
        payloads: Sequence[bytes],
        policy: IngestPolicy | None = None,
    ) -> list[StructureResult | Exception]:
        """Classify many raw CSV payloads with one call per forest.

        The corpus engine's entry, once per micro-batch.  Returns, per
        payload and in order, the :class:`StructureResult`
        :meth:`analyze_bytes` gives it, or the exception
        :meth:`analyze_bytes` would raise on it, so one bad file never
        fails the others.  Results are byte-identical to
        :meth:`analyze_bytes` (see :func:`_stacked`); the forests'
        fixed cost per call is paid once for the batch.
        """
        with get_tracer().span("analyze_batch", n_files=len(payloads)):
            return self._analyze(ingest_bytes, payloads, None, policy)

    def analyze_table(self, table: Table) -> StructureResult:
        """Classify the structure of an already-parsed table."""
        (codes,) = self._classify([table])
        return StructureResult.from_codes(
            Dialect.standard(), table, *_or_raise(codes)
        )
