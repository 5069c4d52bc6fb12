"""On-disk registry of named, versioned model artifacts.

Layout (all paths relative to the registry root)::

    <root>/
        <name>/
            v0001/  manifest.json  arrays-0000.npy  arrays-0001.npy ...
            v0002/  ...

Versions are monotonically increasing integers assigned at save time; the
latest version is simply the largest one present, cached per name behind
one ``stat`` of the model directory (see :meth:`ModelRegistry.latest_version`).
The registry is a thin convention over :mod:`repro.serving.persistence` —
each version directory is a plain artifact, loadable with
:func:`~repro.serving.persistence.load_artifact` even without going
through the registry.
"""

from __future__ import annotations

import os
import re
import shutil
from pathlib import Path
from typing import Any, Iterable

from repro.analysis.lockorder import make_lock
from repro.exceptions import ValidationError
from repro.serving import faults
from repro.serving.persistence import (
    MANIFEST_NAME,
    load_artifact,
    read_manifest,
    save_artifact,
)

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")
_VERSION_RE = re.compile(r"^v(\d{4,})$")


def _version_dirname(version: int) -> str:
    return f"v{version:04d}"


class ModelRegistry:
    """Named, versioned model artifacts under one root directory.

    Parameters
    ----------
    root:
        Registry root directory; created lazily on the first save.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self._latest_lock = make_lock("registry.latest")
        #: name -> (model-directory stamp, latest version) of the last scan
        #: that found no version directory above its latest complete one.
        self._latest: dict[str, tuple[tuple[int, ...], int]] = {}  # repro: guarded-by[_latest_lock]

    # -------------------------------------------------------------- #
    def _model_dir(self, name: str) -> Path:
        if not _NAME_RE.match(name):
            raise ValidationError(
                f"invalid model name {name!r}: use letters, digits, '.', '_', '-' "
                "and start with a letter or digit"
            )
        return self.root / name

    def list_models(self) -> list[str]:
        """Registered model names (sorted).

        Entries that are not valid model names (stray hidden directories,
        editor leftovers) are skipped, not rejected.
        """
        if not self.root.is_dir():
            return []
        return sorted(
            entry.name
            for entry in self.root.iterdir()
            if entry.is_dir() and _NAME_RE.match(entry.name) and self.versions(entry.name)
        )

    def _scan(self, name: str) -> tuple[list[int], int]:
        """Complete versions (sorted) and the highest version directory.

        A version directory is complete once its manifest exists; the
        highest number counts incomplete ones too (a save still writing,
        or one that crashed before its manifest landed).
        """
        model_dir = self._model_dir(name)
        if not model_dir.is_dir():
            return [], 0
        found, highest = [], 0
        for entry in model_dir.iterdir():
            match = _VERSION_RE.match(entry.name)
            if match:
                number = int(match.group(1))
                highest = max(highest, number)
                if (entry / MANIFEST_NAME).is_file():
                    found.append(number)
        return sorted(found), highest

    def versions(self, name: str) -> list[int]:
        """All stored versions of a model (sorted ascending)."""
        return self._scan(name)[0]

    def latest_version(self, name: str) -> int:
        """The newest stored version of a model, as of this call.

        Costs one ``os.stat`` while the model directory is unchanged.  Each
        name's latest version is cached with a stamp of its model
        directory (``st_ino``, ``st_mtime_ns``, ``st_ctime_ns``,
        ``st_nlink``, ``st_size``), taken *before* the scan it describes.
        A call whose stamp matches the cached one returns the cached
        version; any other call rescans.  Creating or deleting a version
        directory — a save from any process, :meth:`gc`, a deletion by
        hand — changes the stamp.  A save writes its manifest last, inside
        the version directory, which leaves the stamp alone: so a scan
        that finds a version directory numbered above the newest complete
        one is not cached, and every call rescans until that manifest
        lands (a crashed save thus costs one scan per call).
        """
        stamp: tuple[int, ...] | None = None
        try:
            info = os.stat(self._model_dir(name))
        except OSError:
            pass  # no model directory: the scan below reports it
        else:
            stamp = (
                info.st_ino, info.st_mtime_ns, info.st_ctime_ns,
                info.st_nlink, info.st_size,
            )
            with self._latest_lock:
                cached = self._latest.get(name)
            if cached is not None and cached[0] == stamp:
                return cached[1]
        versions, highest = self._scan(name)
        if not versions:
            raise ValidationError(f"no versions of model {name!r} in {self.root}")
        latest = versions[-1]
        if stamp is not None and highest == latest:
            with self._latest_lock:
                self._latest[name] = (stamp, latest)
        return latest

    def artifact_path(self, name: str, version: int | None = None) -> Path:
        """Directory of one stored artifact (latest version by default)."""
        if version is None:
            version = self.latest_version(name)
        path = self._model_dir(name) / _version_dirname(version)
        if not (path / MANIFEST_NAME).is_file():
            raise ValidationError(f"no artifact for {name!r} version {version} in {self.root}")
        return path

    # -------------------------------------------------------------- #
    def save(self, name: str, model: Any, metadata: dict | None = None) -> int:
        """Store a model as the next version of ``name``; returns the version.

        The version directory is created with ``exist_ok=False`` and the
        number retried on collision, so concurrent savers to the same name
        get distinct versions instead of silently overwriting each other.
        """
        model_dir = self._model_dir(name)
        existing = self.versions(name)
        version = (existing[-1] + 1) if existing else 1
        while True:
            target = model_dir / _version_dirname(version)
            try:
                target.mkdir(parents=True, exist_ok=False)
                break
            except FileExistsError:
                version += 1
        faults.fire(faults.REGISTRY_WRITE)
        save_artifact(model, target, metadata=metadata)
        return version

    def load(self, name: str, version: int | None = None, mmap: bool = False) -> Any:
        """Load a stored model (latest version by default).

        ``mmap=True`` maps schema-v3 parameter arrays read-only so
        concurrent worker processes share page-cache pages (see
        :func:`~repro.serving.persistence.load_artifact`); pre-v3 artifacts
        fall back to a regular private-copy load.

        A checksum-mismatched or truncated v2/v3 artifact surfaces as
        :class:`~repro.exceptions.ArtifactCorruptError` (see
        :func:`~repro.serving.persistence.verify_checksums`).
        """
        path = self.artifact_path(name, version)
        faults.fire(faults.ARTIFACT_LOAD)
        return load_artifact(path, mmap=mmap)

    def gc(
        self,
        keep_last_n: int,
        name: str | None = None,
        protect: Iterable[tuple[str, int]] = (),
    ) -> list[tuple[str, int]]:
        """Retention: delete all but the newest ``keep_last_n`` versions.

        Parameters
        ----------
        keep_last_n:
            How many of the newest versions of each model to retain (at
            least 1, so the version pinned as "latest" is never collected).
        name:
            Restrict collection to one model; default sweeps every model
            in the registry.
        protect:
            ``(name, version)`` pairs that must survive regardless of age —
            pass a router's :meth:`~repro.serving.router.Router.loaded_models`
            so versions currently serving traffic are never deleted under it.

        Returns the deleted ``(name, version)`` pairs (sorted).  Version
        numbering is append-only: a collected version's number is never
        reused, because :meth:`save` always allocates past the largest
        *directory* present and deletion only happens behind the newest
        ``keep_last_n`` survivors.
        """
        if keep_last_n < 1:
            raise ValidationError(
                f"keep_last_n must be at least 1, got {keep_last_n}"
            )
        protected = set(protect)
        names = [name] if name is not None else self.list_models()
        removed: list[tuple[str, int]] = []
        for model_name in names:
            versions = self.versions(model_name)
            for version in versions[:-keep_last_n]:
                if (model_name, version) in protected:
                    continue
                shutil.rmtree(self._model_dir(model_name) / _version_dirname(version))
                removed.append((model_name, version))
        return sorted(removed)

    def describe(self, name: str, version: int | None = None) -> dict:
        """Manifest header of one artifact: model type, schema, metadata.

        "latest" is resolved exactly once, so the reported version number
        always belongs to the manifest that was read — a concurrent
        ``save`` cannot make this pair versions N and N+1.

        An unreadable manifest (torn write, invalid JSON, missing fields)
        does not crash the call: the returned dict carries
        ``"unreadable": True`` and the error string instead, so operators
        can inventory a registry with one rotten version in it.
        """
        if version is None:
            version = self.latest_version(name)
        try:
            manifest = read_manifest(self.artifact_path(name, version))
            return {
                "name": name,
                "version": version,
                "model_type": manifest["model_type"],
                "schema_version": manifest["schema_version"],
                "metadata": manifest.get("metadata", {}),
            }
        except Exception as exc:
            return {
                "name": name,
                "version": version,
                "unreadable": True,
                "error": f"{type(exc).__name__}: {exc}",
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"ModelRegistry(root={str(self.root)!r})"
