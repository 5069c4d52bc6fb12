"""Persistence round-trips: artifacts, state dicts and the model registry."""

import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    BernoulliNaiveBayes,
    OptimizedHMMClassifier,
    SupervisedHMMClassifier,
)
from repro.core import DHMMConfig, DiversifiedHMM, SupervisedDiversifiedHMM
from repro.exceptions import ValidationError
from repro.hmm import (
    HMM,
    BernoulliEmission,
    CategoricalEmission,
    GaussianEmission,
)
import repro
from repro.serving import ModelRegistry, Router, load_artifact, save_artifact
from repro.serving.persistence import MANIFEST_NAME, resolve_hmm


def _random_hmm(seed, family, n_states=4):
    rng = np.random.default_rng(seed)
    if family == "categorical":
        emissions = CategoricalEmission(rng.dirichlet(np.ones(7), size=n_states))
    elif family == "gaussian":
        emissions = GaussianEmission(
            rng.normal(size=n_states), rng.uniform(0.5, 2.0, size=n_states)
        )
    else:
        emissions = BernoulliEmission(rng.uniform(0.1, 0.9, size=(n_states, 6)))
    return HMM(
        rng.dirichlet(np.ones(n_states)),
        rng.dirichlet(np.ones(n_states), size=n_states),
        emissions,
    )


class TestHmmRoundTrip:
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        family=st.sampled_from(["categorical", "gaussian", "bernoulli"]),
        length=st.integers(2, 12),
    )
    def test_posteriors_and_viterbi_identical_after_round_trip(
        self, tmp_path_factory, seed, family, length
    ):
        """Property: save -> load preserves inference exactly, all families."""
        tmp_path = tmp_path_factory.mktemp("artifact")
        model = _random_hmm(seed, family)
        _, obs = model.sample(length, seed=seed)
        obs = np.asarray(obs)

        save_artifact(model, tmp_path / "m")
        loaded = load_artifact(tmp_path / "m")

        # Arrays survive the npz round-trip bit-exactly; constructors may
        # renormalize rows (a no-op up to one ulp), so inference quantities
        # are compared at far-below-model-noise tolerance and the decoded
        # path exactly.
        assert np.array_equal(model.decode(obs), loaded.decode(obs))
        assert model.log_likelihood(obs) == pytest.approx(
            loaded.log_likelihood(obs), abs=1e-12
        )
        want, got = model.posteriors(obs), loaded.posteriors(obs)
        np.testing.assert_allclose(want.gamma, got.gamma, atol=1e-12, rtol=0)
        np.testing.assert_allclose(want.xi_sum, got.xi_sum, atol=1e-12, rtol=0)

    def test_manifest_is_json_with_schema_and_type(self, tmp_path):
        save_artifact(_random_hmm(0, "categorical"), tmp_path / "m")
        manifest = json.loads((tmp_path / "m" / MANIFEST_NAME).read_text())
        assert manifest["schema_version"] == 3
        assert manifest["model_type"] == "hmm"

    def test_metadata_round_trips(self, tmp_path):
        from repro.serving import read_manifest

        save_artifact(
            _random_hmm(0, "gaussian"), tmp_path / "m", metadata={"dataset": "toy"}
        )
        assert read_manifest(tmp_path / "m")["metadata"] == {"dataset": "toy"}


class TestEstimatorRoundTrips:
    def test_diversified_hmm_round_trip(self, tmp_path, toy_data):
        model = DiversifiedHMM(
            GaussianEmission.random_init(5, toy_data.observations, seed=1),
            config=DHMMConfig(alpha=1.0, max_em_iter=3),
            seed=1,
        )
        model.fit(toy_data.observations)
        save_artifact(model, tmp_path / "m")
        loaded = load_artifact(tmp_path / "m")

        assert isinstance(loaded, DiversifiedHMM)
        assert loaded.config == model.config
        assert loaded.seed == 1  # integer seeds round-trip for refit reproducibility
        assert loaded.score(toy_data.observations) == model.score(toy_data.observations)
        for a, b in zip(
            model.predict(toy_data.observations), loaded.predict(toy_data.observations)
        ):
            assert np.array_equal(a, b)

    def test_supervised_dhmm_round_trip(self, tmp_path, tiny_ocr_dataset):
        data = tiny_ocr_dataset
        model = SupervisedDiversifiedHMM(
            n_states=26, n_features=128, config=DHMMConfig(alpha=10.0, max_inner_iter=5)
        )
        model.fit(data.images, data.labels)
        save_artifact(model, tmp_path / "m")
        loaded = load_artifact(tmp_path / "m")

        assert isinstance(loaded, SupervisedDiversifiedHMM)
        np.testing.assert_array_equal(loaded.base_transmat_, model.base_transmat_)
        np.testing.assert_array_equal(loaded.transmat_, model.transmat_)
        for a, b in zip(model.predict(data.images), loaded.predict(data.images)):
            assert np.array_equal(a, b)

    def test_supervised_hmm_classifier_round_trip(self, tmp_path, tiny_ocr_dataset):
        data = tiny_ocr_dataset
        model = SupervisedHMMClassifier(26, 128).fit(data.images, data.labels)
        save_artifact(model, tmp_path / "m")
        loaded = load_artifact(tmp_path / "m")
        assert isinstance(loaded, SupervisedHMMClassifier)
        for a, b in zip(model.predict(data.images), loaded.predict(data.images)):
            assert np.array_equal(a, b)

    def test_optimized_hmm_classifier_round_trip(self, tmp_path, tiny_ocr_dataset):
        data = tiny_ocr_dataset
        model = OptimizedHMMClassifier(26, 128).fit(data.images, data.labels)
        save_artifact(model, tmp_path / "m")
        loaded = load_artifact(tmp_path / "m")
        assert isinstance(loaded, OptimizedHMMClassifier)
        np.testing.assert_array_equal(loaded.pixel_weights_, model.pixel_weights_)
        for a, b in zip(model.predict(data.images), loaded.predict(data.images)):
            assert np.array_equal(a, b)

    def test_naive_bayes_round_trip(self, tmp_path, tiny_ocr_dataset):
        data = tiny_ocr_dataset
        model = BernoulliNaiveBayes(26, 128).fit(data.images, data.labels)
        save_artifact(model, tmp_path / "m")
        loaded = load_artifact(tmp_path / "m")
        for a, b in zip(model.predict(data.images), loaded.predict(data.images)):
            assert np.array_equal(a, b)

    def test_unfitted_estimator_round_trips(self, tmp_path):
        model = SupervisedHMMClassifier(5, 16)
        save_artifact(model, tmp_path / "m")
        loaded = load_artifact(tmp_path / "m")
        assert loaded.model_ is None
        assert loaded.n_states == 5

    def test_unfitted_supervised_dhmm_with_explicit_emissions_round_trips(
        self, tmp_path
    ):
        template = CategoricalEmission.random_init(3, 5, seed=0)
        model = SupervisedDiversifiedHMM(n_states=3, emissions=template)
        save_artifact(model, tmp_path / "m")
        loaded = load_artifact(tmp_path / "m")
        assert loaded.model_ is None
        assert isinstance(loaded.emissions, CategoricalEmission)
        np.testing.assert_array_equal(
            loaded.emissions.emission_probs, template.emission_probs
        )


class TestArtifactValidation:
    def test_rejects_unknown_model_type(self, tmp_path):
        save_artifact(_random_hmm(0, "categorical"), tmp_path / "m")
        manifest_path = tmp_path / "m" / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["model_type"] = "mystery"
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValidationError, match="model_type"):
            load_artifact(tmp_path / "m")

    def test_rejects_newer_schema_version(self, tmp_path):
        save_artifact(_random_hmm(0, "categorical"), tmp_path / "m")
        manifest_path = tmp_path / "m" / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["schema_version"] = 99
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValidationError, match="schema version"):
            load_artifact(tmp_path / "m")

    def test_rejects_missing_manifest(self, tmp_path):
        with pytest.raises(ValidationError, match="manifest"):
            load_artifact(tmp_path / "nothing")

    def test_rejects_unpersistable_object(self, tmp_path):
        with pytest.raises(ValidationError, match="not a persistable"):
            save_artifact(object(), tmp_path / "m")

    def test_resolve_hmm(self):
        model = _random_hmm(3, "gaussian")
        assert resolve_hmm(model) is model
        wrapper = SupervisedHMMClassifier(4, 8)
        with pytest.raises(ValidationError, match="fitted"):
            resolve_hmm(wrapper)


class TestModelRegistry:
    def test_versions_increment_and_latest_wins(self, tmp_path):
        registry = ModelRegistry(tmp_path / "registry")
        first, second = _random_hmm(1, "categorical"), _random_hmm(2, "categorical")
        assert registry.save("tagger", first) == 1
        assert registry.save("tagger", second) == 2
        assert registry.versions("tagger") == [1, 2]
        np.testing.assert_array_equal(registry.load("tagger").transmat, second.transmat)
        np.testing.assert_array_equal(
            registry.load("tagger", version=1).transmat, first.transmat
        )

    def test_list_and_describe(self, tmp_path):
        registry = ModelRegistry(tmp_path / "registry")
        registry.save("a-model", _random_hmm(0, "gaussian"), metadata={"k": 1})
        registry.save("b-model", _random_hmm(1, "bernoulli"))
        assert registry.list_models() == ["a-model", "b-model"]
        description = registry.describe("a-model")
        assert description["model_type"] == "hmm"
        assert description["metadata"] == {"k": 1}
        assert description["version"] == 1

    def test_describe_resolves_latest_exactly_once(self, tmp_path, monkeypatch):
        """Regression: ``describe`` used to resolve "latest" twice (once via
        ``artifact_path``, once for the reported version number), so a save
        landing between the two resolutions paired version N+1's number
        with version N's manifest.  Simulate that interleaving by making
        every resolution after the first race with a concurrent save: with
        a single resolution the reported pair stays consistent."""
        registry = ModelRegistry(tmp_path / "registry")
        model = _random_hmm(0, "categorical")
        registry.save("m", model, metadata={"marker": 1})

        real_latest = ModelRegistry.latest_version
        calls = {"n": 0}

        def racing_latest(self, name):
            calls["n"] += 1
            if calls["n"] > 1:
                # a concurrent saver lands a new version before this
                # resolution completes
                next_marker = len(ModelRegistry.versions(self, name)) + 1
                ModelRegistry.save(self, name, model, metadata={"marker": next_marker})
            return real_latest(self, name)

        monkeypatch.setattr(ModelRegistry, "latest_version", racing_latest)
        description = registry.describe("m")
        assert calls["n"] == 1
        assert description["metadata"]["marker"] == description["version"]

    def test_empty_registry(self, tmp_path):
        registry = ModelRegistry(tmp_path / "registry")
        assert registry.list_models() == []
        assert registry.versions("anything") == []
        with pytest.raises(ValidationError, match="no versions"):
            registry.latest_version("anything")

    def test_save_skips_preexisting_version_directories(self, tmp_path):
        registry = ModelRegistry(tmp_path / "registry")
        registry.save("tagger", _random_hmm(0, "categorical"))
        # simulate a concurrent saver having claimed v0002 already
        (tmp_path / "registry" / "tagger" / "v0002").mkdir()
        version = registry.save("tagger", _random_hmm(1, "categorical"))
        assert version == 3
        registry.load("tagger", version=3)

    def test_list_models_skips_stray_directories(self, tmp_path):
        registry = ModelRegistry(tmp_path / "registry")
        registry.save("tagger", _random_hmm(0, "categorical"))
        (tmp_path / "registry" / ".cache").mkdir()
        (tmp_path / "registry" / "notes.txt").write_text("not a model")
        assert registry.list_models() == ["tagger"]

    def test_rejects_path_traversal_names(self, tmp_path):
        registry = ModelRegistry(tmp_path / "registry")
        for bad in ("../evil", "a/b", ".hidden", ""):
            with pytest.raises(ValidationError, match="invalid model name"):
                registry.save(bad, _random_hmm(0, "categorical"))


#: Saves one categorical HMM (argv: registry root, name, seed) and prints
#: its version: a save from another process.
_SAVE_IN_CHILD = """
import sys
import numpy as np
from repro.hmm import HMM, CategoricalEmission
from repro.serving import ModelRegistry
rng = np.random.default_rng(int(sys.argv[3]))
model = HMM(
    rng.dirichlet(np.ones(4)),
    rng.dirichlet(np.ones(4), size=4),
    CategoricalEmission(rng.dirichlet(np.ones(7), size=4)),
)
print(ModelRegistry(sys.argv[1]).save(sys.argv[2], model))
"""


def _save_in_subprocess(root, name, seed):
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-c", _SAVE_IN_CHILD, str(root), name, str(seed)],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    return int(done.stdout)


class TestLatestVersionCache:
    """``latest_version`` answers from a cache while one ``stat`` of the
    model directory shows it unchanged, and rescans whenever it changed."""

    @pytest.fixture
    def registry(self, tmp_path):
        registry = ModelRegistry(tmp_path / "registry")
        registry.save("m", _random_hmm(0, "categorical"))
        return registry

    @pytest.fixture
    def scans(self, monkeypatch):
        """Counts directory scans (``Path.iterdir`` calls)."""
        counter = {"n": 0}
        real_iterdir = Path.iterdir

        def counting_iterdir(self):
            counter["n"] += 1
            return real_iterdir(self)

        monkeypatch.setattr(Path, "iterdir", counting_iterdir)
        return counter

    def test_unchanged_stamp_does_not_scan(self, registry, scans):
        assert registry.latest_version("m") == 1
        assert scans["n"] == 1
        for _ in range(100):
            assert registry.latest_version("m") == 1
        assert scans["n"] == 1

    def test_sees_a_save_from_this_process(self, registry):
        assert registry.latest_version("m") == 1
        assert registry.save("m", _random_hmm(1, "categorical")) == 2
        assert registry.latest_version("m") == 2

    def test_sees_a_save_from_another_process(self, registry):
        assert registry.latest_version("m") == 1
        assert _save_in_subprocess(registry.root, "m", seed=1) == 2
        assert registry.latest_version("m") == 2

    def test_version_without_manifest_is_ignored_until_it_lands(self, registry, scans):
        assert registry.latest_version("m") == 1
        pending = registry.root / "m" / "v0002"
        pending.mkdir()  # a save in progress, or one that crashed
        assert registry.latest_version("m") == 1
        # never cached: every call rescans until the manifest lands
        before = scans["n"]
        assert registry.latest_version("m") == 1
        assert registry.latest_version("m") == 1
        assert scans["n"] == before + 2
        # the manifest is written last, inside the version directory, so
        # the model directory's stamp does not change when it lands
        save_artifact(_random_hmm(2, "categorical"), pending)
        assert registry.latest_version("m") == 2
        before = scans["n"]
        assert registry.latest_version("m") == 2
        assert scans["n"] == before

    def test_sees_gc(self, registry, scans):
        for seed in (1, 2):
            registry.save("m", _random_hmm(seed, "categorical"))
        assert registry.latest_version("m") == 3
        assert registry.gc(keep_last_n=1) == [("m", 1), ("m", 2)]
        before = scans["n"]
        assert registry.latest_version("m") == 3
        assert scans["n"] == before + 1  # the stamp changed: one rescan
        registry.load("m")

    def test_sees_a_latest_version_deleted_by_hand(self, registry):
        registry.save("m", _random_hmm(1, "categorical"))
        assert registry.latest_version("m") == 2
        shutil.rmtree(registry.root / "m" / "v0002")
        assert registry.latest_version("m") == 1
        registry.load("m")

    def test_concurrent_readers_never_go_back_a_version(self, registry):
        """Eight readers (more than the cores) resolve "latest" while a
        saver adds versions: no reader ever sees the latest version go
        back, and all agree on the final one."""
        saves, errors = 6, []
        seen: dict[int, list[int]] = {i: [] for i in range(8)}
        stop = threading.Event()

        def reader(index):
            try:
                while not stop.is_set():
                    seen[index].append(registry.latest_version("m"))
                seen[index].append(registry.latest_version("m"))
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader, args=(i,)) for i in seen]
            for thread in threads:
                thread.start()
            for seed in range(saves):
                registry.save("m", _random_hmm(seed, "categorical"))
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        for versions in seen.values():
            assert versions == sorted(versions)
            assert versions[-1] == saves + 1

    def test_unpinned_router_request_serves_a_version_saved_elsewhere(self, registry):
        _, sequences = _random_hmm(0, "categorical").sample_dataset(1, 12, seed=3)
        sequence = sequences[0]
        with Router(registry) as router:
            router.tag("m", sequence)
            assert router.loaded_models() == [("m", 1)]
            assert _save_in_subprocess(registry.root, "m", seed=9) == 2
            path = router.tag("m", sequence)
            assert router.loaded_models() == [("m", 1), ("m", 2)]
            per_model = router.stats.snapshot()["per_model"]
        assert per_model == {"m:v0001": 1, "m:v0002": 1}
        want = resolve_hmm(registry.load("m", version=2)).decode(sequence)
        assert np.array_equal(path, want)
