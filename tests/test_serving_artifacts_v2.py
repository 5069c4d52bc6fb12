"""Artifact schema v2 reads (compression + checksums), atomic writes, registry GC.

The library writes only the current schema; the v2 and v1 artifacts these
tests load are built by small writers that replicate the old layouts.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.exceptions import ArtifactCorruptError, ValidationError
from repro.hmm import HMM, CategoricalEmission
from repro.serving import ModelRegistry, Router, load_artifact, save_artifact
from repro.serving.persistence import (
    ARRAYS_NAME,
    MANIFEST_NAME,
    _flatten,
    read_manifest,
    verify_checksums,
)


def _random_hmm(seed, n_states=4, n_symbols=8):
    rng = np.random.default_rng(seed)
    emissions = CategoricalEmission(rng.dirichlet(np.ones(n_symbols), size=n_states))
    return HMM(
        rng.dirichlet(np.ones(n_states)),
        rng.dirichlet(np.ones(n_states), size=n_states),
        emissions,
    )


def _write_v1_artifact(model, path, model_type="hmm"):
    """Replicate the pre-v2 artifact layout: uncompressed, no checksums."""
    path.mkdir(parents=True, exist_ok=True)
    arrays = {}
    state = _flatten(model.to_state_dict(), "", arrays)
    with (path / ARRAYS_NAME).open("wb") as fh:
        np.savez(fh, **arrays)
    manifest = {
        "schema_version": 1,
        "model_type": model_type,
        "metadata": {},
        "state": state,
    }
    (path / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2) + "\n")
    return path


def _write_v2_artifact(model, path, model_type="hmm"):
    """Replicate the schema-v2 layout: one compressed ``arrays.npz`` payload
    plus a manifest recording its SHA-256."""
    path.mkdir(parents=True, exist_ok=True)
    arrays = {}
    state = _flatten(model.to_state_dict(), "", arrays)
    with (path / ARRAYS_NAME).open("wb") as fh:
        np.savez_compressed(fh, **arrays)
    digest = hashlib.sha256((path / ARRAYS_NAME).read_bytes()).hexdigest()
    manifest = {
        "schema_version": 2,
        "model_type": model_type,
        "metadata": {},
        "state": state,
        "checksums": {ARRAYS_NAME: digest},
    }
    (path / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2) + "\n")
    return path


class TestSchemaV2:
    def test_manifest_records_payload_checksum(self, tmp_path):
        _write_v2_artifact(_random_hmm(0), tmp_path / "m")
        manifest = read_manifest(tmp_path / "m")
        assert manifest["schema_version"] == 2
        digest = manifest["checksums"][ARRAYS_NAME]
        assert len(digest) == 64 and int(digest, 16) >= 0
        assert verify_checksums(tmp_path / "m") is True

    def test_corrupt_payload_fails_loudly(self, tmp_path):
        _write_v2_artifact(_random_hmm(0), tmp_path / "m")
        payload = tmp_path / "m" / ARRAYS_NAME
        blob = bytearray(payload.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        payload.write_bytes(bytes(blob))
        with pytest.raises(ArtifactCorruptError, match="checksum mismatch") as info:
            load_artifact(tmp_path / "m")
        # the typed error carries path + digests so operators can triage
        assert info.value.path == payload
        assert info.value.expected != info.value.actual
        assert info.value.actual is not None

    def test_missing_payload_reported(self, tmp_path):
        _write_v2_artifact(_random_hmm(0), tmp_path / "m")
        (tmp_path / "m" / ARRAYS_NAME).unlink()
        with pytest.raises(ArtifactCorruptError, match="missing payload") as info:
            load_artifact(tmp_path / "m")
        assert info.value.actual is None  # payload gone, nothing to hash

    def test_v1_artifact_loads_unchanged(self, tmp_path):
        model = _random_hmm(3)
        _write_v1_artifact(model, tmp_path / "m")
        assert verify_checksums(tmp_path / "m") is False  # nothing recorded
        loaded = load_artifact(tmp_path / "m")
        _, obs = model.sample(12, seed=3)
        obs = np.asarray(obs)
        assert np.array_equal(model.decode(obs), loaded.decode(obs))
        assert model.log_likelihood(obs) == pytest.approx(
            loaded.log_likelihood(obs), abs=1e-12
        )

    def test_v1_to_v2_round_trip(self, tmp_path):
        """A model loaded from a v1 artifact survives a v2 round trip."""
        model = _random_hmm(5)
        _write_v1_artifact(model, tmp_path / "old")
        upgraded = load_artifact(tmp_path / "old")
        _write_v2_artifact(upgraded, tmp_path / "new")
        assert read_manifest(tmp_path / "new")["schema_version"] == 2
        reloaded = load_artifact(tmp_path / "new")
        _, obs = model.sample(12, seed=5)
        obs = np.asarray(obs)
        assert np.array_equal(model.decode(obs), reloaded.decode(obs))

    def test_registry_serves_mixed_schema_versions(self, tmp_path):
        registry = ModelRegistry(tmp_path / "registry")
        v1_model, v2_model = _random_hmm(1), _random_hmm(2)
        _write_v1_artifact(v1_model, tmp_path / "registry" / "m" / "v0001")
        registry.save("m", v2_model)
        assert registry.versions("m") == [1, 2]
        assert registry.describe("m", 1)["schema_version"] == 1
        # registry.save always writes the current schema
        assert registry.describe("m", 2)["schema_version"] == 3
        _, obs = v1_model.sample(8, seed=1)
        obs = np.asarray(obs)
        assert np.array_equal(
            registry.load("m", 1).decode(obs), v1_model.decode(obs)
        )


class TestAtomicWrites:
    def test_partial_payload_write_is_never_visible(self, tmp_path, monkeypatch):
        """Regression: a crash mid-payload-write used to leave a torn file
        under the final name.  Now the write lands in a temp file, so the
        destination name never exists half-written."""
        target = tmp_path / "m"

        def torn_save(fh, *args, **kwargs):
            fh.write(b"\x93NUMPY partial garbage")
            raise OSError("disk full")

        monkeypatch.setattr(np, "save", torn_save)
        with pytest.raises(OSError, match="disk full"):
            save_artifact(_random_hmm(0), target)
        assert not (target / "arrays-0000.npy").exists()
        assert not (target / MANIFEST_NAME).exists()
        # no temp litter either
        assert [p.name for p in target.iterdir()] == []

    def test_crashed_overwrite_keeps_previous_artifact(self, tmp_path, monkeypatch):
        """Re-saving over an existing artifact that crashes mid-write must
        leave the previous, complete artifact loadable."""
        target = tmp_path / "m"
        original = _random_hmm(1)
        save_artifact(original, target)

        def torn_save(fh, *args, **kwargs):
            fh.write(b"garbage")
            raise OSError("disk full")

        monkeypatch.setattr(np, "save", torn_save)
        with pytest.raises(OSError):
            save_artifact(_random_hmm(2), target)
        loaded = load_artifact(target)  # checksum still verifies
        _, obs = original.sample(10, seed=1)
        obs = np.asarray(obs)
        assert np.array_equal(loaded.decode(obs), original.decode(obs))

    def test_torn_registry_save_is_not_listed(self, tmp_path, monkeypatch):
        """A registry version whose save crashed (manifest never landed) is
        invisible: not listed, not loadable as latest."""
        registry = ModelRegistry(tmp_path / "registry")
        registry.save("m", _random_hmm(1))

        def torn_save(fh, *args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(np, "save", torn_save)
        with pytest.raises(OSError):
            registry.save("m", _random_hmm(2))
        assert registry.versions("m") == [1]
        assert registry.latest_version("m") == 1
        registry.load("m")  # the surviving version is intact
        # the crashed save's number is not resurrected with stale content:
        # the next successful save claims a fresh directory
        monkeypatch.undo()
        assert registry.save("m", _random_hmm(3)) == 3


class TestRegistryGC:
    @pytest.fixture
    def registry(self, tmp_path):
        registry = ModelRegistry(tmp_path / "registry")
        for seed in range(4):
            registry.save("m", _random_hmm(seed))
        return registry

    def test_keeps_newest_n_and_reports_removals(self, registry):
        removed = registry.gc(keep_last_n=2)
        assert removed == [("m", 1), ("m", 2)]
        assert registry.versions("m") == [3, 4]

    def test_latest_is_never_collected(self, registry):
        assert registry.gc(keep_last_n=1) == [("m", 1), ("m", 2), ("m", 3)]
        assert registry.versions("m") == [4]
        assert registry.latest_version("m") == 4
        # idempotent: nothing left to collect
        assert registry.gc(keep_last_n=1) == []

    def test_protected_versions_survive(self, registry):
        removed = registry.gc(keep_last_n=1, protect=[("m", 2)])
        assert removed == [("m", 1), ("m", 3)]
        assert registry.versions("m") == [2, 4]

    def test_router_loaded_version_survives_gc(self, registry):
        _, sequences = _random_hmm(0).sample_dataset(2, 8, seed=0)
        with Router(registry) as router:
            router.tag("m", sequences[0], version=1)  # pin the oldest
            removed = registry.gc(keep_last_n=1, protect=router.loaded_models())
            assert ("m", 1) not in removed
            assert registry.versions("m") == [1, 4]
            # still serving from the resident executor after the sweep
            router.tag("m", sequences[1], version=1)

    def test_gc_with_version_gaps(self, registry):
        registry.gc(keep_last_n=1, protect=[("m", 2)])  # leaves [2, 4]
        registry.save("m", _random_hmm(9))  # [2, 4, 5]
        removed = registry.gc(keep_last_n=2)
        assert removed == [("m", 2)]
        assert registry.versions("m") == [4, 5]

    def test_gc_scopes_to_one_name(self, tmp_path):
        registry = ModelRegistry(tmp_path / "registry")
        for seed in range(3):
            registry.save("a", _random_hmm(seed))
            registry.save("b", _random_hmm(seed + 10))
        assert registry.gc(keep_last_n=1, name="a") == [("a", 1), ("a", 2)]
        assert registry.versions("b") == [1, 2, 3]

    def test_gc_all_models(self, tmp_path):
        registry = ModelRegistry(tmp_path / "registry")
        for seed in range(3):
            registry.save("a", _random_hmm(seed))
            registry.save("b", _random_hmm(seed + 10))
        removed = registry.gc(keep_last_n=2)
        assert removed == [("a", 1), ("b", 1)]

    def test_version_numbering_is_append_only_after_gc(self, registry):
        registry.gc(keep_last_n=1)
        assert registry.save("m", _random_hmm(7)) == 5

    def test_keep_last_n_validated(self, registry):
        with pytest.raises(ValidationError, match="keep_last_n"):
            registry.gc(keep_last_n=0)
        assert registry.versions("m") == [1, 2, 3, 4]
