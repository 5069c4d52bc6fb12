"""Artifact schema v3: raw ``.npy`` payloads, mmap sharing, mixed-schema stores."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.exceptions import ArtifactCorruptError
from repro.hmm import HMM, CategoricalEmission
from repro.serving import ModelRegistry, load_artifact, save_artifact
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


def _memmap_base(array):
    """Walk ``.base`` to the underlying ``np.memmap`` (or None)."""
    node = array
    while node is not None:
        if isinstance(node, np.memmap):
            return node
        node = getattr(node, "base", None)
    return None


class TestSchemaV3Layout:
    def test_default_save_writes_v3(self, tmp_path):
        save_artifact(_random_hmm(0), tmp_path / "m")
        manifest = read_manifest(tmp_path / "m")
        assert manifest["schema_version"] == 3
        # one raw .npy file per parameter array, each with its own checksum
        array_files = manifest["arrays"]
        assert sorted(array_files.values()) == sorted(manifest["checksums"])
        for key, filename in array_files.items():
            payload = tmp_path / "m" / filename
            assert payload.is_file()
            loaded = np.load(payload, allow_pickle=False)
            assert loaded.dtype.byteorder in ("<", "=", "|")
        assert "arrays-0000.npy" in manifest["checksums"]
        assert not (tmp_path / "m" / ARRAYS_NAME).exists()
        assert verify_checksums(tmp_path / "m") is True

    def test_v2_to_v3_round_trip(self, tmp_path):
        """A v2 artifact re-saved under the current schema loads identically."""
        model = _random_hmm(7)
        _write_v2_artifact(model, tmp_path / "old")
        upgraded = load_artifact(tmp_path / "old")
        save_artifact(upgraded, tmp_path / "new")
        assert read_manifest(tmp_path / "new")["schema_version"] == 3
        reloaded = load_artifact(tmp_path / "new")
        _, obs = model.sample(16, seed=7)
        obs = np.asarray(obs)
        assert np.array_equal(model.decode(obs), reloaded.decode(obs))
        assert model.log_likelihood(obs) == pytest.approx(
            reloaded.log_likelihood(obs), abs=1e-12
        )

    def test_corrupt_npy_payload_fails_loudly(self, tmp_path):
        save_artifact(_random_hmm(0), tmp_path / "m")
        payload = tmp_path / "m" / "arrays-0000.npy"
        blob = bytearray(payload.read_bytes())
        blob[-1] ^= 0xFF
        payload.write_bytes(bytes(blob))
        with pytest.raises(ArtifactCorruptError, match="checksum mismatch") as info:
            load_artifact(tmp_path / "m")
        assert info.value.path == payload
        assert info.value.expected != info.value.actual

    def test_missing_npy_payload_reported(self, tmp_path):
        save_artifact(_random_hmm(0), tmp_path / "m")
        (tmp_path / "m" / "arrays-0001.npy").unlink()
        with pytest.raises(ArtifactCorruptError, match="missing payload") as info:
            load_artifact(tmp_path / "m")
        assert info.value.actual is None


class TestMmapLoading:
    def test_mmap_arrays_are_read_only_and_file_backed(self, tmp_path):
        model = _random_hmm(3)
        save_artifact(model, tmp_path / "m")
        mapped = load_artifact(tmp_path / "m", mmap=True)
        table = mapped.emissions.emission_probs
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 0.5
        backing = _memmap_base(table)
        assert backing is not None
        assert Path(backing.filename).parent == tmp_path / "m"
        # a mapped model serves the same answers as a private-copy load
        _, obs = model.sample(16, seed=3)
        obs = np.asarray(obs)
        assert np.array_equal(mapped.decode(obs), model.decode(obs))
        assert mapped.log_likelihood(obs) == pytest.approx(
            model.log_likelihood(obs), abs=1e-12
        )

    def test_mmap_request_on_v2_falls_back_to_private_copy(self, tmp_path):
        model = _random_hmm(4)
        _write_v2_artifact(model, tmp_path / "m")
        loaded = load_artifact(tmp_path / "m", mmap=True)  # silent fallback
        assert _memmap_base(loaded.emissions.emission_probs) is None
        _, obs = model.sample(12, seed=4)
        assert np.array_equal(loaded.decode(np.asarray(obs)), model.decode(np.asarray(obs)))

    def test_registry_load_forwards_mmap(self, tmp_path):
        registry = ModelRegistry(tmp_path / "registry")
        registry.save("m", _random_hmm(5))
        mapped = registry.load("m", mmap=True)
        assert not mapped.emissions.emission_probs.flags.writeable

    def test_two_processes_map_the_same_payload_file(self, tmp_path):
        """Two independent processes loading with ``mmap=True`` end up backed
        by the same on-disk ``.npy`` file — i.e. they share page-cache pages
        instead of holding private heap copies."""
        save_artifact(_random_hmm(6), tmp_path / "m")
        child = (
            "import hashlib, json, sys\n"
            "import numpy as np\n"
            "from repro.serving import load_artifact\n"
            "model = load_artifact(sys.argv[1], mmap=True)\n"
            "table = model.emissions.emission_probs\n"
            "node = table\n"
            "while node is not None and not isinstance(node, np.memmap):\n"
            "    node = getattr(node, 'base', None)\n"
            "assert node is not None, 'emission table is not memory-mapped'\n"
            "assert not table.flags.writeable\n"
            "print(json.dumps({\n"
            "    'backing': str(node.filename),\n"
            "    'digest': hashlib.sha256(np.ascontiguousarray(table).tobytes()).hexdigest(),\n"
            "}))\n"
        )
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", child, str(tmp_path / "m")],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                env=env,
            )
            for _ in range(2)
        ]
        reports = []
        for proc in procs:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err.decode()
            reports.append(json.loads(out))
        assert reports[0]["backing"] == reports[1]["backing"]
        assert Path(reports[0]["backing"]).parent == tmp_path / "m"
        assert reports[0]["digest"] == reports[1]["digest"]


class TestMixedSchemaRegistry:
    def _mixed_registry(self, tmp_path):
        """A registry holding one artifact of each schema generation."""
        registry = ModelRegistry(tmp_path / "registry")
        models = [_random_hmm(seed) for seed in (1, 2, 3)]
        _write_v1_artifact(models[0], tmp_path / "registry" / "m" / "v0001")
        _write_v2_artifact(models[1], tmp_path / "registry" / "m" / "v0002")
        registry.save("m", models[2])  # current schema -> v3
        return registry, models

    def test_all_generations_load(self, tmp_path):
        registry, models = self._mixed_registry(tmp_path)
        assert registry.versions("m") == [1, 2, 3]
        for version, model in zip((1, 2, 3), models):
            _, obs = model.sample(10, seed=version)
            obs = np.asarray(obs)
            assert np.array_equal(
                registry.load("m", version).decode(obs), model.decode(obs)
            )
        schemas = [registry.describe("m", v)["schema_version"] for v in (1, 2, 3)]
        assert schemas == [1, 2, 3]

    def test_gc_sweeps_across_schema_generations(self, tmp_path):
        registry, models = self._mixed_registry(tmp_path)
        removed = registry.gc(keep_last_n=1)
        assert removed == [("m", 1), ("m", 2)]
        assert registry.versions("m") == [3]
        survivor = registry.load("m", mmap=True)
        _, obs = models[2].sample(10, seed=3)
        obs = np.asarray(obs)
        assert np.array_equal(survivor.decode(obs), models[2].decode(obs))

    def test_gc_protects_old_schema_versions(self, tmp_path):
        registry, _ = self._mixed_registry(tmp_path)
        removed = registry.gc(keep_last_n=1, protect=[("m", 1)])
        assert removed == [("m", 2)]
        assert registry.versions("m") == [1, 3]
        registry.load("m", 1)  # the protected v1 artifact still loads
