"""Versioned model persistence: numpy array payloads plus a JSON manifest.

An *artifact* is a directory holding a ``manifest.json`` — the schema
version, the model type, user metadata and the (nested) state-dict
structure with every numpy array replaced by a ``{"__ndarray__": <key>}``
placeholder — plus the array payload files the manifest references.

Splitting structure from payload keeps the manifest human-readable (and
diff-able in a registry) while the parameters stay in numpy's native
binary format.  The schema is versioned so future layout changes can keep
loading old artifacts — :func:`load_artifact` refuses schema versions newer
than it understands instead of misreading them.

Schema history
--------------
* **v1** — uncompressed ``np.savez`` payload (``arrays.npz``), no
  integrity information.
* **v2** — the ``arrays.npz`` payload is written with
  ``np.savez_compressed`` and the manifest records a SHA-256 checksum of
  the payload file, verified on every load: silent on-disk corruption (a
  torn copy, bit rot, a truncated download) fails loudly as
  :class:`~repro.exceptions.ArtifactCorruptError` (carrying the payload
  path and both digests) instead of decoding garbage parameters.  v1
  artifacts (no ``checksums`` entry) still load unchanged.
* **v3** (current) — every array is its own **raw little-endian ``.npy``
  file** next to the manifest (``arrays-0000.npy``, ...), mapped from the
  state-dict key by the manifest's ``"arrays"`` table, with a SHA-256
  checksum per file.  Raw ``.npy`` payloads are memory-mappable:
  ``load_artifact(..., mmap=True)`` opens each array with
  ``np.load(mmap_mode="r")``, so N serving worker processes loading the
  same artifact share one set of read-only page-cache pages instead of
  holding N private heap copies.  v1/v2 artifacts still load (a ``mmap``
  request on a compressed ``.npz`` silently falls back to a private copy);
  only v3 is written.

All payload and manifest files are written **atomically** — to a temporary
file in the target directory, flushed, then ``os.replace``-d into place —
so a crash mid-save can never leave a half-written file under the final
name.  The manifest is written last: an artifact directory is complete
exactly when its manifest exists.

Every model class that participates implements ``to_state_dict`` /
``from_state_dict``; the mapping between class and the ``model_type``
string recorded in the manifest lives here, in :data:`MODEL_TYPES`, so the
model layers stay unaware of the serving subsystem.  It names each class
by import path: loading an ``hmm`` artifact imports no estimator, DPP
prior or scipy.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from importlib import import_module
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.exceptions import ArtifactCorruptError, ValidationError
from repro.hmm.model import HMM

#: Current artifact layout version.  Bump on breaking layout changes and
#: keep a loader branch for every older version still supported.
SCHEMA_VERSION = 3

MANIFEST_NAME = "manifest.json"
#: v1/v2 bundled payload file (read-only: saves write the v3 layout).
ARRAYS_NAME = "arrays.npz"


def _npy_name(index: int) -> str:
    """Payload filename of the ``index``-th array of a v3 artifact."""
    return f"arrays-{index:04d}.npy"

#: ``model_type`` manifest string <-> ``"module:Class"`` of the persistable
#: class.  A class is imported only when an artifact of its type is saved
#: or loaded, so a server of plain HMMs never loads the training stack.
#: Exact types only: ``OptimizedHMMClassifier`` subclasses
#: ``SupervisedHMMClassifier`` but has its own entry (and extra state).
MODEL_TYPES: dict[str, str] = {
    "hmm": "repro.hmm.model:HMM",
    "diversified_hmm": "repro.core.diversified_hmm:DiversifiedHMM",
    "supervised_diversified_hmm": "repro.core.supervised:SupervisedDiversifiedHMM",
    "supervised_hmm_classifier": "repro.baselines.hmm_classifier:SupervisedHMMClassifier",
    "optimized_hmm_classifier": "repro.baselines.optimized_hmm:OptimizedHMMClassifier",
    "bernoulli_naive_bayes": "repro.baselines.naive_bayes:BernoulliNaiveBayes",
}

_TYPE_NAMES = {path: name for name, path in MODEL_TYPES.items()}


def _model_class(model_type: str) -> type[Any]:
    """The class of a manifest ``model_type``, imported on first use."""
    module, _, name = MODEL_TYPES[model_type].partition(":")
    return getattr(import_module(module), name)


def model_type_name(model: Any) -> str:
    """The manifest ``model_type`` string for a persistable model instance."""
    cls = type(model)
    try:
        return _TYPE_NAMES[f"{cls.__module__}:{cls.__qualname__}"]
    except KeyError:
        raise ValidationError(
            f"{type(model).__name__} is not a persistable model type; "
            f"supported: {sorted(MODEL_TYPES)}"
        ) from None


def resolve_hmm(model: Any) -> HMM:
    """The underlying :class:`HMM` of a model or fitted estimator wrapper.

    Accepts a plain :class:`HMM` or any estimator exposing a fitted
    ``model_`` attribute (``DiversifiedHMM``, the supervised classifiers).
    """
    if isinstance(model, HMM):
        return model
    inner = getattr(model, "model_", None)
    if isinstance(inner, HMM):
        return inner
    raise ValidationError(
        f"cannot resolve an HMM from {type(model).__name__}: "
        "pass an HMM or a *fitted* estimator wrapper"
    )


# ------------------------------------------------------------------ #
# State-dict <-> manifest conversion
# ------------------------------------------------------------------ #
def _flatten(node: Any, prefix: str, arrays: dict[str, np.ndarray]) -> Any:
    """Replace numpy arrays in a nested state dict by npz-key placeholders."""
    if isinstance(node, np.ndarray):
        arrays[prefix] = node
        return {"__ndarray__": prefix}
    if isinstance(node, dict):
        return {
            str(key): _flatten(value, f"{prefix}.{key}" if prefix else str(key), arrays)
            for key, value in node.items()
        }
    if isinstance(node, (list, tuple)):
        return [
            _flatten(value, f"{prefix}.{i}", arrays) for i, value in enumerate(node)
        ]
    if isinstance(node, (np.integer,)):
        return int(node)
    if isinstance(node, (np.floating,)):
        return float(node)
    if node is None or isinstance(node, (bool, int, float, str)):
        return node
    raise ValidationError(
        f"state dict value at {prefix!r} is not serializable: {type(node).__name__}"
    )


def _unflatten(node: Any, arrays: dict[str, np.ndarray]) -> Any:
    """Inverse of :func:`_flatten`: resolve placeholders back to arrays."""
    if isinstance(node, dict):
        if set(node.keys()) == {"__ndarray__"}:
            return arrays[node["__ndarray__"]]
        return {key: _unflatten(value, arrays) for key, value in node.items()}
    if isinstance(node, list):
        return [_unflatten(value, arrays) for value in node]
    return node


# ------------------------------------------------------------------ #
# Artifact I/O
# ------------------------------------------------------------------ #
def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_atomic(path: Path, writer: Callable[[Any], None], mode: str) -> None:
    """Write a file via a same-directory temp file plus ``os.replace``.

    A crash mid-``writer`` leaves only a stray ``.tmp-*`` file behind; the
    destination either keeps its previous content or receives the complete
    new one — readers can never observe a torn file under the final name.
    """
    fd, tmp_name = tempfile.mkstemp(
        prefix=f".{path.name}.tmp-", dir=path.parent
    )
    tmp = Path(tmp_name)
    try:
        with os.fdopen(fd, mode) as fh:
            writer(fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _as_little_endian(array: np.ndarray) -> np.ndarray:
    """A contiguous little-endian view/copy of ``array`` (v3 payload format).

    On little-endian hosts (every supported platform today) native float64
    arrays pass through untouched; the explicit byte order is recorded in
    the ``.npy`` header either way, so a big-endian writer still produces
    artifacts every reader maps identically.
    """
    dtype = array.dtype
    if dtype.byteorder == ">" or (dtype.byteorder == "=" and sys.byteorder == "big"):
        array = array.astype(dtype.newbyteorder("<"))
    return np.ascontiguousarray(array)


def save_artifact(
    model: Any,
    path: str | Path,
    metadata: dict | None = None,
) -> Path:
    """Persist a model (or fitted estimator) as an artifact directory.

    Writes the current schema (v3): one raw little-endian ``.npy`` file per
    parameter array, each with a SHA-256 checksum in the manifest, so the
    artifact can later be loaded with ``mmap=True`` and shared read-only
    across worker processes.

    Every file is written atomically (temp file + ``os.replace``), the
    manifest last, so a crash mid-save never leaves a torn artifact that
    looks complete.

    Parameters
    ----------
    model:
        Any instance of a class in :data:`MODEL_TYPES`.
    path:
        Target directory; created (parents included) if missing.
    metadata:
        Optional JSON-serializable user metadata stored verbatim in the
        manifest (dataset name, training notes, metrics, ...).

    Returns the artifact directory path.
    """
    type_name = model_type_name(model)
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    arrays: dict[str, np.ndarray] = {}
    state = _flatten(model.to_state_dict(), "", arrays)
    array_files: dict[str, str] = {}
    checksums: dict[str, str] = {}
    for index, key in enumerate(sorted(arrays)):
        filename = _npy_name(index)
        payload = _as_little_endian(arrays[key])
        _write_atomic(
            path / filename,
            lambda fh, data=payload: np.save(fh, data, allow_pickle=False),
            "wb",
        )
        array_files[key] = filename
        checksums[filename] = _sha256_file(path / filename)
    manifest: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "model_type": type_name,
        "metadata": metadata or {},
        "state": state,
        "arrays": array_files,
        "checksums": checksums,
    }
    text = json.dumps(manifest, indent=2) + "\n"
    _write_atomic(path / MANIFEST_NAME, lambda fh: fh.write(text), "w")
    return path


def read_manifest(path: str | Path) -> dict:
    """Load and schema-check an artifact's manifest (no array I/O)."""
    path = Path(path)
    manifest_path = path / MANIFEST_NAME
    if not manifest_path.is_file():
        raise ValidationError(f"no artifact manifest at {manifest_path}")
    manifest = json.loads(manifest_path.read_text())
    version = manifest.get("schema_version")
    if not isinstance(version, int) or version < 1:
        raise ValidationError(f"artifact at {path} has invalid schema_version {version!r}")
    if version > SCHEMA_VERSION:
        raise ValidationError(
            f"artifact at {path} uses schema version {version}, newer than the "
            f"supported {SCHEMA_VERSION}; upgrade the library to load it"
        )
    if manifest.get("model_type") not in MODEL_TYPES:
        raise ValidationError(
            f"artifact at {path} has unknown model_type "
            f"{manifest.get('model_type')!r}; supported: {sorted(MODEL_TYPES)}"
        )
    return manifest


def verify_checksums(path: str | Path, manifest: dict | None = None) -> bool:
    """Verify an artifact's recorded payload checksums.

    Returns True when every recorded checksum matches, False for a v1
    artifact that records none; raises
    :class:`~repro.exceptions.ArtifactCorruptError` — carrying the payload
    path and the expected/actual digests — on any mismatch or missing
    payload file.
    """
    path = Path(path)
    if manifest is None:
        manifest = read_manifest(path)
    checksums = manifest.get("checksums")
    if not checksums:
        return False  # schema v1: nothing recorded, nothing to verify
    for filename, expected in checksums.items():
        payload = path / filename
        if not payload.is_file():
            raise ArtifactCorruptError(
                f"artifact at {path} is missing payload {filename}",
                path=payload,
                expected=expected,
                actual=None,
            )
        actual = _sha256_file(payload)
        if actual != expected:
            raise ArtifactCorruptError(
                f"artifact checksum mismatch for {payload}: the manifest "
                f"records sha256 {expected} but the file hashes to {actual} "
                "— the artifact is corrupt (torn copy, bit rot, or a "
                "partial write); re-save or restore it",
                path=payload,
                expected=expected,
                actual=actual,
            )
    return True


def load_artifact(path: str | Path, mmap: bool = False) -> Any:
    """Load an artifact directory back into a model instance.

    Checksum-carrying artifacts (v2/v3) are verified before any array is
    decoded; v1 artifacts (which recorded no checksums) load as before.

    ``mmap=True`` maps each schema-v3 array file read-only
    (``np.load(mmap_mode="r")``) instead of reading it onto the heap: the
    returned model's parameter arrays are backed by the page cache, shared
    between every process that maps the same artifact, and writes to them
    raise.  v1/v2 artifacts cannot be mapped (their ``.npz`` payload is
    compressed) and silently fall back to a regular private-copy load.
    """
    path = Path(path)
    manifest = read_manifest(path)
    verify_checksums(path, manifest)
    if manifest["schema_version"] >= 3:
        array_files = manifest.get("arrays")
        if not isinstance(array_files, dict):
            raise ValidationError(
                f"schema-v3 artifact at {path} has no 'arrays' table in its "
                "manifest"
            )
        mmap_mode = "r" if mmap else None
        arrays = {
            key: np.load(path / filename, mmap_mode=mmap_mode, allow_pickle=False)
            for key, filename in array_files.items()
        }
    else:
        with np.load(path / ARRAYS_NAME) as npz:
            arrays = {key: npz[key] for key in npz.files}
    state = _unflatten(manifest["state"], arrays)
    return _model_class(manifest["model_type"]).from_state_dict(state)

