"""Scheduling core: policy ordering, starvation-freedom, EDF, warm-up."""

import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest

from repro.core.config import ServingConfig
from repro.exceptions import ValidationError
from repro.hmm import HMM, CategoricalEmission
from repro.serving import ModelRegistry, Router, TaggingService
from repro.serving.scheduler import (
    EDFPolicy,
    FIFOPolicy,
    Request,
    WeightedFairPolicy,
    make_policy,
)


def _request(model=None, deadline=None, tag=None):
    return Request(
        kind="tag",
        sequence=np.zeros(1, dtype=np.int64),
        future=Future(),
        deadline=deadline,
        key=(model, 1) if model is not None else None,
        payload=tag,
    )


def _random_hmm(seed, n_states=4, n_symbols=8):
    rng = np.random.default_rng(seed)
    emissions = CategoricalEmission(rng.dirichlet(np.ones(n_symbols), size=n_states))
    return HMM(
        rng.dirichlet(np.ones(n_states)),
        rng.dirichlet(np.ones(n_states), size=n_states),
        emissions,
    )


class _GatedEmission(CategoricalEmission):
    """Emissions whose batched scoring blocks until released (see
    test_serving_service.py for the pattern)."""

    family = "abstract"

    def __init__(self, emission_probs):
        super().__init__(emission_probs)
        self.release = threading.Event()
        self.started = threading.Event()

    def log_likelihoods(self, observations):
        self.started.set()
        assert self.release.wait(timeout=30), "test forgot to release the gate"
        return super().log_likelihoods(observations)


def _gated_hmm(seed, n_states=4, n_symbols=8):
    rng = np.random.default_rng(seed)
    emissions = _GatedEmission(rng.dirichlet(np.ones(n_symbols), size=n_states))
    return HMM(
        rng.dirichlet(np.ones(n_states)),
        rng.dirichlet(np.ones(n_states), size=n_states),
        emissions,
    )


class TestPolicySelection:
    def test_default_config_selects_fifo(self):
        assert isinstance(make_policy(ServingConfig()), FIFOPolicy)

    def test_each_policy_is_constructible_from_config(self):
        assert isinstance(
            make_policy(ServingConfig(scheduling_policy="weighted_fair")),
            WeightedFairPolicy,
        )
        assert isinstance(
            make_policy(ServingConfig(scheduling_policy="edf")), EDFPolicy
        )

    def test_unknown_policy_rejected_by_config(self):
        with pytest.raises(ValidationError, match="scheduling_policy"):
            ServingConfig(scheduling_policy="priority")

    def test_bad_weights_rejected(self):
        with pytest.raises(ValidationError, match="positive"):
            ServingConfig(model_weights={"a": 0.0})
        with pytest.raises(ValidationError, match="positive"):
            WeightedFairPolicy({"a": -1.0})

    def test_service_exposes_policy_name(self):
        with TaggingService(
            _random_hmm(0), config=ServingConfig(scheduling_policy="edf")
        ) as service:
            assert service.scheduling_policy == "edf"


class TestFIFOPolicy:
    def test_arrival_order_and_limit(self):
        policy = FIFOPolicy()
        requests = [_request(tag=i) for i in range(10)]
        for request in requests:
            policy.push(request)
        assert len(policy) == 10
        first = policy.pop_batch(4)
        assert [r.payload for r in first] == [0, 1, 2, 3]
        assert [r.payload for r in policy.pop_batch(100)] == [4, 5, 6, 7, 8, 9]
        assert len(policy) == 0


class TestWeightedFairPolicy:
    def test_batch_shares_follow_weights(self):
        policy = WeightedFairPolicy({"a": 3.0, "b": 1.0})
        for i in range(10):
            policy.push(_request(model="a", tag=("a", i)))
        for i in range(10):
            policy.push(_request(model="b", tag=("b", i)))
        batch = policy.pop_batch(8)
        kinds = [r.payload[0] for r in batch]
        assert kinds.count("a") == 6 and kinds.count("b") == 2
        # arrival order preserved within each class
        assert [r.payload[1] for r in batch if r.payload[0] == "a"] == list(range(6))
        assert [r.payload[1] for r in batch if r.payload[0] == "b"] == [0, 1]

    def test_flooded_model_cannot_starve_the_other(self):
        policy = WeightedFairPolicy()
        for i in range(100):
            policy.push(_request(model="chatty", tag=("chatty", i)))
        policy.push(_request(model="quiet", tag=("quiet", 0)))
        batch = policy.pop_batch(8)
        assert ("quiet", 0) in [r.payload for r in batch]

    def test_fractional_weight_is_served_eventually(self):
        # weight 0.25 earns a slot every 4 rounds: delayed, never starved
        policy = WeightedFairPolicy({"slow": 0.25})
        for i in range(40):
            policy.push(_request(model="fast", tag=("fast", i)))
        for i in range(4):
            policy.push(_request(model="slow", tag=("slow", i)))
        popped = []
        while len(policy):
            popped.extend(r.payload for r in policy.pop_batch(8))
        assert len(popped) == 44
        assert popped.index(("slow", 0)) < len(popped) - 1  # not dead last
        # all slow requests eventually served, in order
        assert [p for p in popped if p[0] == "slow"] == [
            ("slow", i) for i in range(4)
        ]

    def test_single_model_degenerates_to_fifo(self):
        policy = WeightedFairPolicy()
        for i in range(6):
            policy.push(_request(tag=i))  # key=None -> one class
        assert [r.payload for r in policy.pop_batch(10)] == list(range(6))

    def test_tiny_weights_do_not_stall_batch_formation(self):
        """Regression: sub-unit weights used to spin ~1/weight credit rounds
        per popped request; the forced-progress step bounds it."""
        policy = WeightedFairPolicy({"a": 1e-9, "b": 1e-12})
        for i in range(6):
            policy.push(_request(model="a", tag=("a", i)))
            policy.push(_request(model="b", tag=("b", i)))
        batch = policy.pop_batch(12)
        assert len(batch) == 12 and len(policy) == 0
        # forced progress still favors the larger weight first
        assert batch[0].payload == ("a", 0)
        # per-class arrival order is preserved
        assert [r.payload[1] for r in batch if r.payload[0] == "b"] == list(range(6))


class TestEDFPolicy:
    def test_earliest_deadline_pops_first(self):
        policy = EDFPolicy()
        policy.push(_request(deadline=30.0, tag="late"))
        policy.push(_request(deadline=5.0, tag="urgent"))
        policy.push(_request(deadline=10.0, tag="soon"))
        assert [r.payload for r in policy.pop_batch(3)] == ["urgent", "soon", "late"]

    def test_deadline_free_requests_sort_last_in_arrival_order(self):
        policy = EDFPolicy()
        policy.push(_request(tag="free-1"))
        policy.push(_request(deadline=1.0, tag="due"))
        policy.push(_request(tag="free-2"))
        assert [r.payload for r in policy.pop_batch(3)] == ["due", "free-1", "free-2"]

    def test_no_deadlines_degenerates_to_fifo(self):
        policy = EDFPolicy()
        for i in range(5):
            policy.push(_request(tag=i))
        assert [r.payload for r in policy.pop_batch(5)] == list(range(5))


class TestPolicyEquivalence:
    """Every policy serves every request with correct results."""

    @pytest.mark.parametrize("policy", ["fifo", "weighted_fair", "edf"])
    def test_results_identical_across_policies(self, policy):
        model = _random_hmm(0)
        _, sequences = model.sample_dataset(30, 10, seed=1)
        config = ServingConfig(scheduling_policy=policy)
        with TaggingService(model, config=config) as service:
            served = service.tag_many(sequences)
        expected = model.predict(sequences)
        for got, want in zip(served, expected):
            assert np.array_equal(got, want)


class TestEDFIntegration:
    def test_urgent_requests_are_served_first(self):
        """Hold the dispatcher inside a batch, queue requests with shuffled
        deadlines, then check completion order follows the deadlines."""
        model = _gated_hmm(0)
        _, sequences = model.sample_dataset(5, 8, seed=1)
        config = ServingConfig(
            max_batch_size=1, scheduling_policy="edf"
        )
        order: list[str] = []
        with TaggingService(model, config=config) as service:
            gate = service.submit_tag(sequences[0])
            assert model.emissions.started.wait(timeout=10)
            # deadlines far in the future (nothing expires), submitted in
            # non-deadline order
            late = service.submit_tag(sequences[1], deadline_ms=60_000.0)
            urgent = service.submit_tag(sequences[2], deadline_ms=10_000.0)
            soon = service.submit_tag(sequences[3], deadline_ms=30_000.0)
            for name, future in (
                ("late", late), ("urgent", urgent), ("soon", soon)
            ):
                future.add_done_callback(lambda _, name=name: order.append(name))
            model.emissions.release.set()
            for future in (gate, late, urgent, soon):
                future.result(timeout=10)
        assert order == ["urgent", "soon", "late"]


class TestWeightedFairIntegration:
    def test_quiet_model_served_despite_flood(self, tmp_path):
        """A flood on one model delays but never starves another: when the
        quiet model's requests resolve, almost all of the flood is still
        pending (FIFO would have drained the entire flood first)."""
        registry = ModelRegistry(tmp_path / "registry")
        registry.save("chatty", _random_hmm(0))
        registry.save("quiet", _random_hmm(9))
        _, sequences = _random_hmm(0).sample_dataset(44, 8, seed=1)

        # Hold the dispatcher inside the first (cold) model load while the
        # flood piles up behind it.
        release = threading.Event()
        loading = threading.Event()
        real_load = registry.load

        def gated_load(name, version=None):
            loading.set()
            assert release.wait(timeout=30)
            return real_load(name, version)

        registry.load = gated_load

        config = ServingConfig(
            max_batch_size=4, scheduling_policy="weighted_fair"
        )
        chatty_done_at_quiet_resolution: list[int] = []
        with Router(registry, config=config) as router:
            gate = router.submit_tag("chatty", sequences[0])
            assert loading.wait(timeout=10)
            chatty = [router.submit_tag("chatty", s) for s in sequences[1:41]]
            quiet = [router.submit_tag("quiet", s) for s in sequences[41:43]]
            quiet[-1].add_done_callback(
                # runs on the dispatcher thread at resolution time: counts
                # how many of the flood's requests were served before the
                # quiet model got its turn
                lambda _: chatty_done_at_quiet_resolution.append(
                    sum(f.done() for f in chatty)
                )
            )
            release.set()
            for future in [gate, *chatty, *quiet]:
                future.result(timeout=30)
        # round-robin batches of 4 mix both models, so the quiet requests
        # resolved while the vast majority of the flood still waited
        assert chatty_done_at_quiet_resolution[0] <= 10


class TestWarmUp:
    @pytest.fixture
    def registry(self, tmp_path):
        registry = ModelRegistry(tmp_path / "registry")
        registry.save("alpha", _random_hmm(0))
        registry.save("beta", _random_hmm(9))
        registry.save("beta", _random_hmm(10))
        return registry

    def test_warm_up_preloads_before_traffic(self, registry):
        with Router(registry) as router:
            report = router.warm_up(["alpha", "beta"])
            assert report.ok
            assert report.loaded == [("alpha", 1), ("beta", 2)]
            assert set(router.loaded_models()) == {("alpha", 1), ("beta", 2)}
            assert router.stats.snapshot()["n_model_loads"] == 2
            # traffic hits warm executors: no further loads
            _, sequences = _random_hmm(0).sample_dataset(4, 8, seed=1)
            router.tag_many("alpha", sequences)
            router.tag_many("beta", sequences)
            stats = router.stats.snapshot()
        assert stats["n_model_loads"] == 2
        # warm-up itself never touched an engine
        assert stats["n_requests"] == 8

    def test_warm_up_pins_explicit_versions(self, registry):
        with Router(registry) as router:
            assert list(router.warm_up([("beta", 1)])) == [("beta", 1)]
            assert router.loaded_models() == [("beta", 1)]

    def test_warm_up_continues_past_broken_models(self, registry):
        """One bad entry lands in .errors; the healthy fleet still loads."""
        with Router(registry) as router:
            report = router.warm_up(["ghost", "alpha", ("beta", 5)])
            assert not report.ok
            assert report.loaded == [("alpha", 1)]
            assert isinstance(report.errors["ghost"], ValidationError)
            assert isinstance(report.errors["beta"], ValidationError)
            assert router.loaded_models() == [("alpha", 1)]
