"""Micro-batching TaggingService: correctness, coalescing, backpressure, shutdown."""

import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest

from repro.core.config import ServingConfig
from repro.exceptions import (
    DeadlineExceededError,
    QueueFullError,
    ServiceShuttingDownError,
    ServingError,
    ValidationError,
)
from repro.hmm import HMM, CategoricalEmission
from repro.serving import TaggingService
from repro.serving.scheduler import _SCORE, _TAG, Request, ServiceStats
from repro.serving.service import _ModelExecutor


class _GatedEmission(CategoricalEmission):
    """Categorical emissions whose batched scoring blocks on an event.

    Lets a test hold the dispatcher inside one compute while clients pile
    onto the queue — the deterministic way to exercise backpressure,
    deadline expiry and slow-flush shutdown.  ``family`` stays "abstract"
    so the subclass does not shadow the real categorical entry in the
    emission persistence registry.
    """

    family = "abstract"

    def __init__(self, emission_probs):
        super().__init__(emission_probs)
        self.release = threading.Event()
        self.started = threading.Event()
        self.batch_calls = 0

    def log_likelihoods(self, observations):
        self.batch_calls += 1
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


def _random_hmm(seed, n_states=4, n_symbols=8):
    rng = np.random.default_rng(seed)
    emissions = CategoricalEmission(rng.dirichlet(np.ones(n_symbols), size=n_states))
    return HMM(
        rng.dirichlet(np.ones(n_states)),
        rng.dirichlet(np.ones(n_states), size=n_states),
        emissions,
    )


@pytest.fixture
def model():
    return _random_hmm(0)


@pytest.fixture
def sequences(model):
    _, seqs = model.sample_dataset(40, 10, seed=1)
    return seqs


class TestCorrectness:
    def test_tags_match_direct_batch_decode(self, model, sequences):
        with TaggingService(model) as service:
            served = service.tag_many(sequences)
        expected = model.predict(sequences)
        for got, want in zip(served, expected):
            assert np.array_equal(got, want)

    def test_scores_match_direct_likelihood(self, model, sequences):
        with TaggingService(model) as service:
            served = service.score_many(sequences)
        expected = [model.log_likelihood(seq) for seq in sequences]
        np.testing.assert_allclose(served, expected, atol=1e-9)

    def test_mixed_tag_and_score_requests(self, model, sequences):
        with TaggingService(model) as service:
            tag_futures = [service.submit_tag(seq) for seq in sequences[:10]]
            score_futures = [service.submit_score(seq) for seq in sequences[10:20]]
            tags = [f.result(timeout=10) for f in tag_futures]
            scores = [f.result(timeout=10) for f in score_futures]
        for got, want in zip(tags, model.predict(sequences[:10])):
            assert np.array_equal(got, want)
        np.testing.assert_allclose(
            scores, [model.log_likelihood(s) for s in sequences[10:20]], atol=1e-9
        )

    def test_synchronous_single_request(self, model, sequences):
        with TaggingService(model) as service:
            path = service.tag(sequences[0])
            score = service.score(sequences[0])
        assert np.array_equal(path, model.decode(sequences[0]))
        assert score == pytest.approx(model.log_likelihood(sequences[0]), abs=1e-9)

    def test_concurrent_client_threads(self, model, sequences):
        results: dict[int, np.ndarray] = {}
        with TaggingService(model) as service:

            def client(index):
                results[index] = service.tag(sequences[index])

            threads = [
                threading.Thread(target=client, args=(i,)) for i in range(len(sequences))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        expected = model.predict(sequences)
        for index, want in enumerate(expected):
            assert np.array_equal(results[index], want)


class TestBatching:
    def test_burst_is_coalesced(self, model, sequences, hold_dispatcher):
        config = ServingConfig(max_batch_size=64)
        with TaggingService(model, config=config) as service:
            # the burst queues while the dispatcher computes its first request
            with hold_dispatcher() as held:
                futures = [service.submit_tag(sequences[0])]
                assert held.wait(timeout=10)
                futures += [service.submit_tag(seq) for seq in sequences[1:]]
            for future in futures:
                future.result(timeout=10)
            stats = service.stats.snapshot()
        # 40 simultaneous requests must not become 40 singleton batches.
        assert stats["n_requests"] == len(sequences)
        assert stats["mean_batch_size"] > 2.0
        assert stats["max_batch_size"] > 2

    def test_max_batch_size_is_respected(self, model, sequences, hold_dispatcher):
        config = ServingConfig(max_batch_size=5)
        with TaggingService(model, config=config) as service:
            with hold_dispatcher() as held:
                futures = [service.submit_tag(sequences[0])]
                assert held.wait(timeout=10)
                futures += [service.submit_tag(seq) for seq in sequences[1:]]
            for future in futures:
                future.result(timeout=10)
            stats = service.stats.snapshot()
        assert stats["max_batch_size"] <= 5
        assert stats["n_batches"] >= len(sequences) / 5

    def test_stats_counters(self, model, sequences):
        with TaggingService(model) as service:
            service.tag_many(sequences)
            stats = service.stats.snapshot()
        assert stats["n_tokens"] == sum(len(s) for s in sequences)
        assert stats["busy_seconds"] > 0
        assert stats["tokens_per_busy_second"] > 0
        assert stats["wall_seconds"] >= stats["busy_seconds"] * 0.5


class _CountingEmission(CategoricalEmission):
    """Categorical emissions counting every scoring entry point."""

    family = "abstract"

    def __init__(self, emission_probs):
        super().__init__(emission_probs)
        self.scoring_calls = 0

    def log_likelihoods(self, observations):
        self.scoring_calls += 1
        return super().log_likelihoods(observations)

    def log_likelihoods_batch(self, sequences):
        self.scoring_calls += 1
        return super().log_likelihoods_batch(sequences)


class TestExecutor:
    @pytest.mark.parametrize("n_requests", [1, 7, 64])
    def test_one_scoring_call_and_results_match_hmm(self, n_requests):
        # One coalesced micro-batch scores its emissions exactly once, and
        # its paths and scores are bit-identical to HMM.predict / the
        # per-sequence values HMM.score sums.
        base = _random_hmm(3)
        model = HMM(
            base.startprob, base.transmat, _CountingEmission(base.emissions.emission_probs)
        )
        rng = np.random.default_rng(n_requests)
        batch = [
            Request(
                kind=_SCORE if i % 3 == 0 else _TAG,
                sequence=rng.integers(0, 8, size=int(rng.integers(1, 30))),
                future=Future(),
            )
            for i in range(n_requests)
        ]
        _ModelExecutor(model).run(batch, ServiceStats())
        assert model.emissions.scoring_calls == 1

        tagged = [r for r in batch if r.kind == _TAG]
        for request, want in zip(tagged, model.predict([r.sequence for r in tagged])):
            np.testing.assert_array_equal(request.future.result(timeout=0), want)
        scored = [r.sequence for r in batch if r.kind == _SCORE]
        served = [r.future.result(timeout=0) for r in batch if r.kind == _SCORE]
        corpus = model.compile(scored)
        want = model.inference_engine.log_likelihood_corpus(
            model.startprob, model.transmat, corpus, corpus.score(model.emissions)
        )
        np.testing.assert_array_equal(served, want)
        assert np.sum(served) == model.score(scored)


    def test_mixed_dtype_batch_scores_once_per_dtype_kind(self):
        base = _random_hmm(3)
        model = HMM(
            base.startprob, base.transmat, _CountingEmission(base.emissions.emission_probs)
        )
        # signed and unsigned symbols are both valid categorical input
        sequences = [
            np.array([1, 2, 3]), np.array([5, 0], dtype=np.uint8), np.array([4, 0])
        ]
        batch = [
            Request(kind=_TAG, sequence=seq, future=Future()) for seq in sequences
        ]
        _ModelExecutor(model).run(batch, ServiceStats())
        assert model.emissions.scoring_calls == 2
        for request, seq in zip(batch, sequences):
            np.testing.assert_array_equal(
                request.future.result(timeout=0), base.decode(seq)
            )


class TestLifecycle:
    def test_close_serves_queued_requests(self, model, sequences):
        service = TaggingService(model)
        futures = [service.submit_tag(seq) for seq in sequences]
        service.close()
        expected = model.predict(sequences)
        for future, want in zip(futures, expected):
            assert np.array_equal(future.result(timeout=1), want)

    def test_submit_after_close_raises(self, model, sequences):
        service = TaggingService(model)
        service.close()
        with pytest.raises(ServiceShuttingDownError, match="closed"):
            service.submit_tag(sequences[0])

    def test_close_is_idempotent(self, model):
        service = TaggingService(model)
        service.close()
        service.close()

    def test_empty_sequence_rejected_at_submit(self, model):
        with TaggingService(model) as service:
            with pytest.raises(ValidationError):
                service.submit_tag(np.array([], dtype=np.int64))

    def test_cancelled_future_does_not_kill_dispatcher(
        self, model, sequences, hold_dispatcher
    ):
        # Hold the dispatcher inside the first request's batch, so the
        # third is still queued when the client cancels it.
        config = ServingConfig(max_batch_size=2)
        with TaggingService(model, config=config) as service:
            with hold_dispatcher() as held:
                first = service.submit_tag(sequences[0])
                assert held.wait(timeout=10)
                second = service.submit_tag(sequences[1])
                third = service.submit_tag(sequences[2])
                assert third.cancel()
            # the service must keep serving after skipping the cancelled one
            assert np.array_equal(first.result(timeout=10), model.decode(sequences[0]))
            assert np.array_equal(
                service.tag(sequences[3]), model.decode(sequences[3])
            )
            second.result(timeout=10)

    def test_scalar_input_rejected_at_submit(self, model):
        with TaggingService(model) as service:
            with pytest.raises(ValidationError, match="sequences"):
                service.submit_tag(np.int64(5))

    def test_request_error_propagates_to_future(self, model):
        with TaggingService(model) as service:
            # symbol 999 is outside the emission vocabulary -> scoring the
            # emission table raises inside the dispatcher.
            future = service.submit_tag(np.array([999]))
            with pytest.raises(ValidationError):
                future.result(timeout=10)
            # service still healthy afterwards
            path = service.tag(np.array([0, 1, 2]))
            assert path.shape == (3,)

    def test_bad_request_does_not_poison_the_batch(
        self, model, sequences, hold_dispatcher
    ):
        # A malformed request coalesced with valid ones must fail alone;
        # the valid requests still resolve with correct paths.
        config = ServingConfig(max_batch_size=64)
        with TaggingService(model, config=config) as service:
            with hold_dispatcher() as held:
                good_futures = [service.submit_tag(sequences[0])]
                assert held.wait(timeout=10)
                good_futures += [service.submit_tag(seq) for seq in sequences[1:5]]
                bad_future = service.submit_tag(np.array([999]))
                more_futures = [service.submit_tag(seq) for seq in sequences[5:10]]
            with pytest.raises(ValidationError):
                bad_future.result(timeout=10)
            expected = model.predict(sequences[:10])
            for future, want in zip(good_futures + more_futures, expected):
                assert np.array_equal(future.result(timeout=10), want)

    def test_bool_request_batched_with_integers_is_rejected(
        self, model, sequences, hold_dispatcher
    ):
        """Regression: concatenating a micro-batch cast a bool request to
        int, so it was tagged instead of failing the categorical dtype
        check it fails when sent alone."""
        ints, bools = np.array([1, 2, 3]), np.array([True, False])
        with TaggingService(model) as service:
            with pytest.raises(ValidationError, match="integer"):
                service.tag(bools)
            with hold_dispatcher() as held:
                service.submit_tag(sequences[0])
                assert held.wait(timeout=10)
                int_future = service.submit_tag(ints)
                bool_future = service.submit_tag(bools)
            with pytest.raises(ValidationError, match="integer"):
                bool_future.result(timeout=10)
            assert np.array_equal(int_future.result(timeout=10), model.decode(ints))
            # both requests shared one batch
            assert service.stats.snapshot()["max_batch_size"] == 2

    def test_close_reports_incomplete_flush(self, sequences):
        """A flush slower than the close timeout is surfaced, not swallowed."""
        model = _gated_hmm(0)
        service = TaggingService(
            model, config=ServingConfig(max_batch_size=1)
        )
        future = service.submit_tag(sequences[0])
        assert model.emissions.started.wait(timeout=10)
        # the dispatcher is stuck inside the batch: the flush cannot finish
        assert service.close(timeout=0.05) is False
        assert not future.done()
        model.emissions.release.set()
        # a second close re-joins and confirms the flush completed
        assert service.close(timeout=10.0) is True
        assert future.result(timeout=1).shape == sequences[0].shape

    def test_keyboard_interrupt_stops_dispatcher_not_the_future(self, sequences):
        """Control-flow exceptions must not be swallowed into client futures."""

        class _InterruptingEmission(CategoricalEmission):
            family = "abstract"

            def log_likelihoods(self, observations):
                raise KeyboardInterrupt

        rng = np.random.default_rng(0)
        model = HMM(
            rng.dirichlet(np.ones(4)),
            rng.dirichlet(np.ones(4), size=4),
            _InterruptingEmission(rng.dirichlet(np.ones(8), size=4)),
        )
        # Silence the thread's unhandled-exception report for this test.
        previous_hook = threading.excepthook
        threading.excepthook = lambda args: None
        try:
            service = TaggingService(model)
            future = service.submit_tag(sequences[0])
            service._dispatcher.join(timeout=10)
            assert not service._dispatcher.is_alive()
            # The interrupt stopped the dispatcher — no supervised restart
            # for control-flow exceptions — instead of being swallowed into
            # the future as the result; the in-flight request resolves with
            # ServingError (never the interrupt, and never a silent hang
            # for a client blocked in result()).
            with pytest.raises(ServingError, match="dispatcher crashed"):
                future.result(timeout=10)
            # the dead service refuses new work instead of queueing it
            with pytest.raises(ServiceShuttingDownError, match="closed"):
                service.submit_tag(sequences[1])
            assert service.close(timeout=1.0) is True
        finally:
            threading.excepthook = previous_hook

    def test_fitted_wrapper_accepted(self, tiny_ocr_dataset):
        from repro.baselines import SupervisedHMMClassifier

        data = tiny_ocr_dataset
        classifier = SupervisedHMMClassifier(26, 128).fit(data.images, data.labels)
        with TaggingService(classifier) as service:
            served = service.tag_many(
                [np.asarray(img, dtype=np.float64) for img in data.images[:5]]
            )
        expected = classifier.predict(data.images[:5])
        for got, want in zip(served, expected):
            assert np.array_equal(got, want)


class TestBackpressure:
    def test_queue_full_fast_fails_under_burst(self, sequences):
        model = _gated_hmm(0)
        config = ServingConfig(max_batch_size=1, queue_capacity=3)
        with TaggingService(model, config=config) as service:
            # The dispatcher takes exactly one request and blocks inside it.
            blocked = service.submit_tag(sequences[0])
            assert model.emissions.started.wait(timeout=10)
            queued = [service.submit_tag(seq) for seq in sequences[1:4]]
            assert service.stats.snapshot()["queue_depth"] == 3
            with pytest.raises(QueueFullError, match="capacity"):
                service.submit_tag(sequences[4])
            with pytest.raises(QueueFullError):
                service.submit_score(sequences[5])
            model.emissions.release.set()
            # accepted requests are unaffected by the shed ones
            for future, seq in zip([blocked] + queued, sequences[:4]):
                assert future.result(timeout=10).shape == seq.shape
            stats = service.stats.snapshot()
        assert stats["n_rejected"] == 2
        assert stats["n_requests"] == 4

    def test_unbounded_queue_when_capacity_is_none(self, model, sequences):
        config = ServingConfig(queue_capacity=None)
        with TaggingService(model, config=config) as service:
            assert len(service.tag_many(sequences)) == len(sequences)
            assert service.stats.snapshot()["n_rejected"] == 0

    def test_concurrent_burst_respects_capacity(self, sequences):
        """Racing submitters never overshoot the bound; rejects are counted."""
        model = _gated_hmm(1)
        config = ServingConfig(max_batch_size=1, queue_capacity=4)
        outcomes: list[str] = []
        outcomes_lock = threading.Lock()
        with TaggingService(model, config=config) as service:
            service.submit_tag(sequences[0])
            assert model.emissions.started.wait(timeout=10)

            def client(seq):
                try:
                    service.submit_tag(seq)
                    result = "accepted"
                except QueueFullError:
                    result = "rejected"
                with outcomes_lock:
                    outcomes.append(result)

            threads = [
                threading.Thread(target=client, args=(seq,))
                for seq in sequences[1:21]
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            depth = service.stats.snapshot()["queue_depth"]
            assert depth <= 4
            model.emissions.release.set()
        assert outcomes.count("accepted") == depth
        assert outcomes.count("rejected") == 20 - depth
        assert outcomes.count("rejected") >= 16


class TestDeadlines:
    def test_expired_request_never_reaches_the_engine(self, sequences):
        model = _gated_hmm(0)
        config = ServingConfig(max_batch_size=1)
        with TaggingService(model, config=config) as service:
            blocking = service.submit_tag(sequences[0])
            assert model.emissions.started.wait(timeout=10)
            doomed = service.submit_tag(sequences[1], deadline_ms=10.0)
            time.sleep(0.05)  # let the deadline lapse while queued
            model.emissions.release.set()
            with pytest.raises(DeadlineExceededError):
                doomed.result(timeout=10)
            blocking.result(timeout=10)
            # a live request afterwards is served normally
            service.tag(sequences[2])
            stats = service.stats.snapshot()
        assert stats["n_expired"] == 1
        # one batched-emission call for the blocking request, one for the
        # live request — none for the expired one
        assert model.emissions.batch_calls == 2

    def test_generous_deadline_is_met(self, model, sequences):
        with TaggingService(model) as service:
            future = service.submit_tag(sequences[0], deadline_ms=30_000.0)
            assert np.array_equal(future.result(timeout=10), model.decode(sequences[0]))
            assert service.stats.snapshot()["n_expired"] == 0

    def test_non_positive_deadline_rejected(self, model, sequences):
        with TaggingService(model) as service:
            with pytest.raises(ValidationError, match="deadline_ms"):
                service.submit_tag(sequences[0], deadline_ms=0.0)
            with pytest.raises(ValidationError, match="deadline_ms"):
                service.submit_score(sequences[0], deadline_ms=-5.0)

    def test_expired_requests_are_dropped_during_shutdown_flush(self, sequences):
        model = _gated_hmm(0)
        config = ServingConfig(max_batch_size=1)
        service = TaggingService(model, config=config)
        blocking = service.submit_tag(sequences[0])
        assert model.emissions.started.wait(timeout=10)
        doomed = service.submit_score(sequences[1], deadline_ms=10.0)
        time.sleep(0.05)
        model.emissions.release.set()
        assert service.close(timeout=10.0) is True
        blocking.result(timeout=1)
        with pytest.raises(DeadlineExceededError):
            doomed.result(timeout=1)
