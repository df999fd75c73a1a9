"""Model persistence without pickle.

Trained Strudel models are cheap to retrain but a downstream user
shipping a classifier wants a stable, auditable on-disk format.  This
module serializes the random-forest family to a directory containing
a JSON manifest plus one compressed ``.npz`` with all arrays — no
arbitrary code execution on load, unlike pickle.

The stored arrays are the forest's *compiled* inference tensors
(:class:`~repro.ml.compiled.CompiledForest`), so a loaded model
predicts through the packed fast path immediately.  Only the current
:data:`FORMAT_VERSION` loads; models are cheap to regenerate, so an
older bundle is rejected rather than converted.

Supported objects:

* :class:`~repro.ml.forest.RandomForestClassifier`
* :class:`~repro.core.strudel.StrudelLineClassifier`
* :class:`~repro.core.strudel.StrudelCellClassifier`
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.core.cell_features import CellFeatureExtractor
from repro.core.derived import DerivedDetector
from repro.core.line_features import LineFeatureExtractor
from repro.core.strudel import StrudelCellClassifier, StrudelLineClassifier
from repro.errors import NotFittedError, ReproError
from repro.io.ingest import IngestPolicy, decode_path
from repro.ml.compiled import CompiledForest
from repro.ml.forest import RandomForestClassifier

#: Version 2 stores the forest as its *compiled* tensors (one array
#: set for the whole forest, probabilities pre-aligned to the global
#: class order) instead of version 1's per-tree ``tree{i}_*`` arrays —
#: a load is then predict-ready without a compile pass.
FORMAT_VERSION = 2

#: Manifests are UTF-8 JSON we wrote ourselves: tolerate a BOM (some
#: transports add one) but reject undecodable bytes outright rather
#: than repairing a model description.
_MANIFEST_POLICY = IngestPolicy.strict_policy()


class PersistenceError(ReproError):
    """Raised when a model directory is missing or malformed."""


# ----------------------------------------------------------------------
# Forests
# ----------------------------------------------------------------------
def save_forest(forest: RandomForestClassifier, directory: str | Path) -> None:
    """Write a fitted forest as ``manifest.json`` + ``arrays.npz``.

    The arrays are the compiled inference tensors: nine forest-wide
    arrays whatever the tree count, instead of six arrays per tree.
    """
    if forest.estimators_ is None:
        raise NotFittedError("cannot save an unfitted forest")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(
        directory / "arrays.npz", **forest.compile().tensors
    )
    manifest = {
        "format_version": FORMAT_VERSION,
        "kind": "random_forest",
        "n_estimators": len(forest.estimators_),
        "n_features": forest.n_features_,
        "params": {
            "max_depth": forest.max_depth,
            "min_samples_split": forest.min_samples_split,
            "min_samples_leaf": forest.min_samples_leaf,
            "max_features": forest.max_features,
            "bootstrap": forest.bootstrap,
        },
    }
    (directory / "manifest.json").write_text(
        json.dumps(manifest, indent=1), encoding="utf-8"
    )


def _read_manifest(directory: Path, expected_kind: str) -> dict:
    manifest_path = directory / "manifest.json"
    if not manifest_path.exists():
        raise PersistenceError(f"no manifest.json in {directory}")
    # decode_path, not read_text(): manifests written on another
    # machine may carry a BOM, and the platform-default codec of a
    # non-UTF-8 locale must never decide how JSON is read.
    text, _ = decode_path(manifest_path, _MANIFEST_POLICY)
    try:
        manifest = json.loads(text)
    except ValueError as exc:
        raise PersistenceError(
            f"malformed manifest.json in {directory}: {exc}"
        ) from exc
    if manifest.get("format_version") != FORMAT_VERSION:
        raise PersistenceError(
            f"unsupported format version {manifest.get('format_version')}"
        )
    if manifest.get("kind") != expected_kind:
        raise PersistenceError(
            f"expected a {expected_kind} model, found "
            f"{manifest.get('kind')!r}"
        )
    return manifest


def load_forest(directory: str | Path) -> RandomForestClassifier:
    """Load a forest saved by :func:`save_forest`.

    The tensors go straight to :class:`CompiledForest` (the loaded
    model is predict-ready, no compile pass), and ``estimators_`` is
    reconstructed by decompiling them.
    """
    directory = Path(directory)
    manifest = _read_manifest(directory, "random_forest")
    arrays = dict(np.load(directory / "arrays.npz", allow_pickle=False))
    params = manifest["params"]
    max_features = params["max_features"]
    forest = RandomForestClassifier(
        n_estimators=manifest["n_estimators"],
        max_depth=params["max_depth"],
        min_samples_split=params["min_samples_split"],
        min_samples_leaf=params["min_samples_leaf"],
        max_features=max_features,
        bootstrap=params["bootstrap"],
    )
    try:
        compiled = CompiledForest(
            n_features=manifest["n_features"], **arrays
        )
    except TypeError as exc:
        # A missing, extra or misnamed array: the bundle's arrays are
        # not the ones ``CompiledForest.tensors`` names.
        raise PersistenceError(
            f"version-2 bundle in {directory} does not hold the "
            f"compiled arrays: {exc}"
        ) from exc
    forest.classes_ = compiled.classes_
    forest.n_features_ = manifest["n_features"]
    if compiled.n_trees != manifest["n_estimators"]:
        raise PersistenceError(
            f"manifest declares {manifest['n_estimators']} trees "
            f"but the tensors pack {compiled.n_trees}"
        )
    forest._compiled = compiled
    forest.estimators_ = compiled.decompile()
    return forest


# ----------------------------------------------------------------------
# Strudel classifiers
# ----------------------------------------------------------------------
def _detector_config(detector: DerivedDetector) -> dict:
    return {
        "delta": detector.delta,
        "coverage": detector.coverage,
        "functions": list(detector.functions),
        "anchor_mode": detector.anchor_mode,
        "relative": detector.relative,
    }


def _detector_from_config(config: dict) -> DerivedDetector:
    return DerivedDetector(
        delta=config["delta"],
        coverage=config["coverage"],
        functions=tuple(config["functions"]),
        anchor_mode=config["anchor_mode"],
        relative=config["relative"],
    )


def save_line_classifier(
    model: StrudelLineClassifier, directory: str | Path
) -> None:
    """Persist a fitted Strudel-L model."""
    if model._model is None:
        raise NotFittedError("cannot save an unfitted line classifier")
    if not isinstance(model._model, RandomForestClassifier):
        raise PersistenceError(
            "only random-forest-backed classifiers can be persisted"
        )
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_forest(model._model, directory / "forest")
    manifest = {
        "format_version": FORMAT_VERSION,
        "kind": "strudel_line",
        "feature_subset": (
            list(model.feature_subset) if model.feature_subset else None
        ),
        "include_global_features": model.extractor.include_global_features,
        "detector": _detector_config(model.extractor.detector),
        "columns": model._columns.tolist(),
    }
    (directory / "manifest.json").write_text(
        json.dumps(manifest, indent=1), encoding="utf-8"
    )


def load_line_classifier(directory: str | Path) -> StrudelLineClassifier:
    """Load a Strudel-L model saved by :func:`save_line_classifier`."""
    directory = Path(directory)
    manifest = _read_manifest(directory, "strudel_line")
    extractor = LineFeatureExtractor(
        detector=_detector_from_config(manifest["detector"]),
        include_global_features=manifest["include_global_features"],
    )
    subset = manifest["feature_subset"]
    model = StrudelLineClassifier(
        extractor=extractor,
        feature_subset=tuple(subset) if subset else None,
    )
    model._model = load_forest(directory / "forest")
    model._columns = np.asarray(manifest["columns"], dtype=np.int64)
    return model


def save_cell_classifier(
    model: StrudelCellClassifier, directory: str | Path
) -> None:
    """Persist a fitted Strudel-C model (including its Strudel-L)."""
    if model._model is None:
        raise NotFittedError("cannot save an unfitted cell classifier")
    if not isinstance(model._model, RandomForestClassifier):
        raise PersistenceError(
            "only random-forest-backed classifiers can be persisted"
        )
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_line_classifier(model.line_classifier, directory / "line")
    save_forest(model._model, directory / "forest")
    manifest = {
        "format_version": FORMAT_VERSION,
        "kind": "strudel_cell",
        "feature_subset": (
            list(model.feature_subset) if model.feature_subset else None
        ),
        "detector": _detector_config(model.extractor.detector),
        "columns": model._columns.tolist(),
    }
    (directory / "manifest.json").write_text(
        json.dumps(manifest, indent=1), encoding="utf-8"
    )


def load_cell_classifier(directory: str | Path) -> StrudelCellClassifier:
    """Load a Strudel-C model saved by :func:`save_cell_classifier`."""
    directory = Path(directory)
    manifest = _read_manifest(directory, "strudel_cell")
    line_model = load_line_classifier(directory / "line")
    subset = manifest["feature_subset"]
    model = StrudelCellClassifier(
        line_classifier=line_model,
        extractor=CellFeatureExtractor(
            detector=_detector_from_config(manifest["detector"])
        ),
        feature_subset=tuple(subset) if subset else None,
    )
    model._model = load_forest(directory / "forest")
    model._columns = np.asarray(manifest["columns"], dtype=np.int64)
    return model
