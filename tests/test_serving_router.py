"""Router: multi-model routing, LRU loading, per-model coalescing."""

import time

import numpy as np
import pytest

from repro.core.config import ServingConfig
from repro.exceptions import (
    DeadlineExceededError,
    QueueFullError,
    ServiceShuttingDownError,
    ValidationError,
)
from repro.hmm import HMM, CategoricalEmission
from repro.serving import ModelRegistry, Router


def _random_hmm(seed, n_states=4, n_symbols=8):
    rng = np.random.default_rng(seed)
    emissions = CategoricalEmission(rng.dirichlet(np.ones(n_symbols), size=n_states))
    return HMM(
        rng.dirichlet(np.ones(n_states)),
        rng.dirichlet(np.ones(n_states), size=n_states),
        emissions,
    )


@pytest.fixture
def models():
    return {"alpha": _random_hmm(0), "beta": _random_hmm(99)}


@pytest.fixture
def registry(tmp_path, models):
    registry = ModelRegistry(tmp_path / "registry")
    for name, model in models.items():
        registry.save(name, model)
    return registry


@pytest.fixture
def sequences(models):
    _, seqs = models["alpha"].sample_dataset(30, 10, seed=1)
    return seqs


class TestRouting:
    def test_serves_two_models_through_one_queue(self, registry, models, sequences):
        with Router(registry) as router:
            alpha_futures = [router.submit_tag("alpha", s) for s in sequences]
            beta_futures = [router.submit_tag("beta", s) for s in sequences]
            alpha_paths = [f.result(timeout=10) for f in alpha_futures]
            beta_paths = [f.result(timeout=10) for f in beta_futures]
        for got, want in zip(alpha_paths, models["alpha"].predict(sequences)):
            assert np.array_equal(got, want)
        for got, want in zip(beta_paths, models["beta"].predict(sequences)):
            assert np.array_equal(got, want)
        # the two models genuinely disagree somewhere, so the routing is
        # observable, not vacuous
        assert any(
            not np.array_equal(a, b) for a, b in zip(alpha_paths, beta_paths)
        )

    def test_interleaved_burst_coalesces_per_model(
        self, registry, models, sequences, hold_dispatcher
    ):
        config = ServingConfig(max_batch_size=64)
        with Router(registry, config=config) as router:
            futures = []
            # the burst queues while the dispatcher holds its first request
            with hold_dispatcher() as held:
                for i, seq in enumerate(sequences):
                    name = "alpha" if i % 2 == 0 else "beta"
                    futures.append((name, seq, router.submit_tag(name, seq)))
                    if i == 0:
                        assert held.wait(timeout=10)
            for name, seq, future in futures:
                assert np.array_equal(
                    future.result(timeout=10), models[name].decode(seq)
                )
            stats = router.stats.snapshot()
        # interleaved requests still form multi-request per-model batches
        assert stats["mean_batch_size"] > 2.0
        assert stats["per_model"]["alpha:v0001"] == 15
        assert stats["per_model"]["beta:v0001"] == 15

    def test_scoring_routes_like_tagging(self, registry, models, sequences):
        with Router(registry) as router:
            scores = router.score_many("beta", sequences[:5])
        expected = [models["beta"].log_likelihood(s) for s in sequences[:5]]
        np.testing.assert_allclose(scores, expected, atol=1e-9)

    def test_explicit_version_routing(self, tmp_path, sequences):
        v1_model, v2_model = _random_hmm(1), _random_hmm(2)
        registry = ModelRegistry(tmp_path / "registry")
        registry.save("m", v1_model)
        registry.save("m", v2_model)
        with Router(registry) as router:
            pinned = router.tag("m", sequences[0], version=1)
            latest = router.tag("m", sequences[0])
        assert np.array_equal(pinned, v1_model.decode(sequences[0]))
        assert np.array_equal(latest, v2_model.decode(sequences[0]))

    def test_unknown_model_fails_at_submit(self, registry, sequences):
        with Router(registry) as router:
            with pytest.raises(ValidationError, match="no versions"):
                router.submit_tag("nope", sequences[0])
            with pytest.raises(ValidationError, match="version"):
                router.submit_tag("alpha", sequences[0], version=7)

    def test_accepts_registry_root_path(self, registry, models, sequences):
        with Router(registry.root) as router:
            path = router.tag("alpha", sequences[0])
        assert np.array_equal(path, models["alpha"].decode(sequences[0]))


class TestLruCache:
    def test_lazy_load_and_eviction(self, registry, sequences):
        config = ServingConfig(max_loaded_models=1)
        with Router(registry, config=config) as router:
            assert router.loaded_models() == []
            router.tag("alpha", sequences[0])
            assert router.loaded_models() == [("alpha", 1)]
            router.tag("beta", sequences[0])
            assert router.loaded_models() == [("beta", 1)]
            router.tag("alpha", sequences[0])  # reload after eviction
            stats = router.stats.snapshot()
        assert stats["n_model_loads"] == 3
        assert stats["n_model_evictions"] == 2

    def test_hot_model_is_not_reloaded(self, registry, sequences):
        config = ServingConfig(max_loaded_models=2)
        with Router(registry, config=config) as router:
            for seq in sequences[:6]:
                router.tag("alpha", seq)
                router.tag("beta", seq)
            stats = router.stats.snapshot()
        assert stats["n_model_loads"] == 2
        assert stats["n_model_evictions"] == 0

    def test_lru_order_follows_usage(self, registry, sequences):
        config = ServingConfig(max_loaded_models=2)
        with Router(registry, config=config) as router:
            router.tag("alpha", sequences[0])
            router.tag("beta", sequences[0])
            router.tag("alpha", sequences[1])  # alpha becomes most recent
            assert router.loaded_models() == [("beta", 1), ("alpha", 1)]


class TestLifecycle:
    def test_close_flushes_queued_requests(self, registry, models, sequences):
        router = Router(registry)
        futures = [router.submit_tag("alpha", s) for s in sequences]
        assert router.close() is True
        for future, want in zip(futures, models["alpha"].predict(sequences)):
            assert np.array_equal(future.result(timeout=1), want)

    def test_submit_after_close_raises(self, registry, sequences):
        router = Router(registry)
        router.close()
        with pytest.raises(ServiceShuttingDownError, match="closed"):
            router.submit_tag("alpha", sequences[0])

    def test_queue_capacity_applies(self, registry, sequences):
        # capacity 1 with an idle dispatcher still admits requests one at a
        # time; a burst submitted faster than the dispatcher drains must
        # eventually fast-fail.  Deterministic variant lives in
        # test_serving_service.py; here we only check the error type wiring.
        config = ServingConfig(queue_capacity=1)
        with Router(registry, config=config) as router:
            saw_rejection = False
            futures = []
            for _ in range(200):
                try:
                    futures.append(router.submit_tag("alpha", sequences[0]))
                except QueueFullError:
                    saw_rejection = True
            for future in futures:
                future.result(timeout=10)
        assert saw_rejection

    def test_deadline_rechecked_per_model_group(
        self, registry, models, sequences, hold_dispatcher
    ):
        """A request expiring while an *earlier* group computes (here: while
        its cold model loads slowly) must still be shed before the engine."""
        real_load = registry.load
        load_calls = []

        def slow_load(name, version=None):
            load_calls.append(name)
            time.sleep(0.15)  # a cold model whose artifact load is slow
            return real_load(name, version)

        registry.save("gamma", models["alpha"])
        with Router(registry) as router:
            # gamma is resident, so holding the dispatcher on one of its
            # requests costs no load once released
            assert router.warm_up(["gamma"]).ok
            registry.load = slow_load
            # Both requests queue behind the held one and land in one
            # drained batch; "alpha" is submitted first, so its group (and
            # slow load) runs first.
            with hold_dispatcher() as held:
                router.submit_tag("gamma", sequences[2])
                assert held.wait(timeout=10)
                served = router.submit_tag("alpha", sequences[0])
                doomed = router.submit_tag("beta", sequences[1], deadline_ms=30.0)
            assert np.array_equal(
                served.result(timeout=10), models["alpha"].decode(sequences[0])
            )
            with pytest.raises(DeadlineExceededError):
                doomed.result(timeout=10)
            stats = router.stats.snapshot()
        assert stats["n_expired"] == 1
        # beta's requests never reached its engine (nothing recorded for it)
        assert "beta:v0001" not in stats["per_model"]

    def test_corrupt_artifact_fails_only_its_group(self, tmp_path, models, sequences):
        registry = ModelRegistry(tmp_path / "registry")
        registry.save("doomed", models["alpha"])
        registry.save("stable", models["beta"])
        # The manifest survives (submit-time validation passes) but the
        # arrays payload is gone, so the lazy load in the dispatcher fails.
        (registry.root / "doomed" / "v0001" / "arrays-0000.npy").unlink()
        with Router(registry) as router:
            doomed = router.submit_tag("doomed", sequences[0])
            stable = router.submit_tag("stable", sequences[1])
            with pytest.raises(Exception):
                doomed.result(timeout=10)
            assert np.array_equal(
                stable.result(timeout=10), models["beta"].decode(sequences[1])
            )
