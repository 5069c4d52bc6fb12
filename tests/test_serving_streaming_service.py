"""StreamingService: batched ticks from concurrent clients, decoder equivalence."""

import threading

import numpy as np
import pytest

from repro.core.config import ServingConfig
from repro.exceptions import ValidationError
from repro.hmm import HMM, BernoulliEmission, CategoricalEmission
from repro.serving import StreamingDecoder, StreamingService


def _random_hmm(seed, n_states=4, n_symbols=8, family="categorical"):
    rng = np.random.default_rng(seed)
    if family == "categorical":
        emissions = CategoricalEmission(rng.dirichlet(np.ones(n_symbols), size=n_states))
    else:
        emissions = BernoulliEmission(rng.uniform(0.1, 0.9, size=(n_states, 6)))
    return HMM(
        rng.dirichlet(np.ones(n_states)),
        rng.dirichlet(np.ones(n_states), size=n_states),
        emissions,
    )


@pytest.fixture
def model():
    return _random_hmm(0)


def _observations(model, n_streams, length, seed=3):
    rng = np.random.default_rng(seed)
    n_symbols = model.emissions.emission_probs.shape[1]
    return [rng.integers(0, n_symbols, size=length) for _ in range(n_streams)]


def _decoder_reference(model, observations, lag):
    results = []
    for obs in observations:
        decoder = StreamingDecoder(model, lag=lag)
        steps = decoder.push_many(obs)
        results.append((steps, decoder.finish()))
    return results


def _assert_stream_equal(got_steps, got_result, want_steps, want_result):
    assert len(got_steps) == len(want_steps)
    for got, want in zip(got_steps, want_steps):
        np.testing.assert_array_equal(got.filtering, want.filtering)
        assert got.finalized == want.finalized
        assert got.log_likelihood == want.log_likelihood
    assert np.array_equal(got_result.path, want_result.path)
    np.testing.assert_array_equal(got_result.filtering, want_result.filtering)
    assert got_result.log_likelihood == want_result.log_likelihood


class TestEquivalence:
    def test_interleaved_streams_match_dedicated_decoders(self, model):
        observations = _observations(model, n_streams=5, length=20)
        reference = _decoder_reference(model, observations, lag=4)
        with StreamingService(model, lag=4) as service:
            streams = [service.open() for _ in observations]
            # interleave pushes round-robin, submitting before waiting so
            # the dispatcher coalesces them into multi-stream ticks
            step_futures = [[] for _ in streams]
            for t in range(20):
                for i, stream in enumerate(streams):
                    step_futures[i].append(stream.submit_push(observations[i][t]))
            steps = [[f.result(timeout=10) for f in futs] for futs in step_futures]
            results = [stream.finish() for stream in streams]
        for i, (want_steps, want_result) in enumerate(reference):
            _assert_stream_equal(steps[i], results[i], want_steps, want_result)

    def test_concurrent_client_threads(self, model):
        observations = _observations(model, n_streams=8, length=15, seed=11)
        reference = _decoder_reference(model, observations, lag=6)
        results: dict[int, tuple] = {}
        with StreamingService(model, lag=6) as service:

            def client(index):
                stream = service.open()
                steps = [stream.push(obs) for obs in observations[index]]
                results[index] = (steps, stream.finish())

            threads = [
                threading.Thread(target=client, args=(i,))
                for i in range(len(observations))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        for i, (want_steps, want_result) in enumerate(reference):
            _assert_stream_equal(results[i][0], results[i][1], want_steps, want_result)

    def test_mixed_lags_per_stream(self, model):
        observations = _observations(model, n_streams=3, length=12, seed=5)
        lags = [2, 6, None]
        with StreamingService(model) as service:
            streams = [service.open(lag=lag) for lag in lags]
            for t in range(12):
                for stream, obs in zip(streams, observations):
                    stream.push(obs[t])
            results = [stream.finish() for stream in streams]
        for obs, lag, got in zip(observations, lags, results):
            decoder = StreamingDecoder(model, lag=lag)
            decoder.push_many(obs)
            want = decoder.finish()
            assert np.array_equal(got.path, want.path)
            assert got.log_likelihood == want.log_likelihood

    def test_bernoulli_observations(self):
        model = _random_hmm(2, family="bernoulli")
        rng = np.random.default_rng(7)
        observations = [(rng.random((10, 6)) < 0.5).astype(np.float64) for _ in range(3)]
        with StreamingService(model, lag=3) as service:
            streams = [service.open() for _ in observations]
            for t in range(10):
                for stream, obs in zip(streams, observations):
                    stream.push(obs[t])
            results = [stream.finish() for stream in streams]
        for obs, got in zip(observations, results):
            decoder = StreamingDecoder(model, lag=3)
            decoder.push_many(obs)
            want = decoder.finish()
            assert np.array_equal(got.path, want.path)


class TestCoalescing:
    def test_pre_submitted_pushes_form_batched_ticks(self, model, hold_dispatcher):
        observations = _observations(model, n_streams=16, length=10)
        config = ServingConfig(max_batch_size=64)
        with StreamingService(model, lag=4, config=config) as service:
            streams = [service.open() for _ in observations]
            futures = []
            # the pushes queue while the dispatcher holds the first one
            with hold_dispatcher() as held:
                for t in range(10):
                    for stream, obs in zip(streams, observations):
                        futures.append(stream.submit_push(obs[t]))
                        if len(futures) == 1:
                            assert held.wait(timeout=10)
            for future in futures:
                future.result(timeout=10)
            stats = service.stats.snapshot()
        assert stats["n_requests"] == 160
        # 16 concurrent streams per wave: ticks must be genuinely batched
        assert stats["mean_batch_size"] > 2.0
        assert stats["max_batch_size"] > 2

    def test_same_stream_never_advances_twice_per_tick(self, model, hold_dispatcher):
        """Back-to-back pushes of ONE stream in one drained batch must land
        in separate ticks, preserving order — outputs prove it: they match
        the strictly sequential decoder."""
        obs = _observations(model, n_streams=1, length=30)[0]
        config = ServingConfig(max_batch_size=64)
        with StreamingService(model, lag=4, config=config) as service:
            stream = service.open()
            with hold_dispatcher() as held:
                futures = [stream.submit_push(obs[0])]
                assert held.wait(timeout=10)
                futures += [stream.submit_push(o) for o in obs[1:]]
            steps = [f.result(timeout=10) for f in futures]
            result = stream.finish()
        decoder = StreamingDecoder(model, lag=4)
        want_steps = decoder.push_many(obs)
        _assert_stream_equal(steps, result, want_steps, decoder.finish())

    def test_bool_push_in_an_integer_tick_is_rejected(self, model, hold_dispatcher):
        """Regression: stacking a tick cast a bool push to int, so it got a
        step instead of the ValidationError it gets alone."""
        with StreamingService(model, lag=4) as service:
            first, ints, bools = service.open(), service.open(), service.open()
            with hold_dispatcher() as held:
                first.submit_push(np.int64(0))
                assert held.wait(timeout=10)
                int_push = ints.submit_push(np.int64(1))
                bool_push = bools.submit_push(np.bool_(True))
            with pytest.raises(ValidationError, match="integer"):
                bool_push.result(timeout=10)
            step = int_push.result(timeout=10)
            # both pushes shared one tick
            assert service.stats.snapshot()["max_batch_size"] == 2
        want = StreamingDecoder(model, lag=4).push(np.int64(1))
        np.testing.assert_array_equal(step.filtering, want.filtering)
        assert step.log_likelihood == want.log_likelihood


class TestLifecycle:
    def test_n_streams_and_slot_reuse(self, model):
        obs = _observations(model, n_streams=2, length=4)
        with StreamingService(model, lag=2) as service:
            first = service.open()
            assert service.n_streams == 1
            for o in obs[0]:
                first.push(o)
            first.finish()
            second = service.open()  # reuses the freed slot
            assert service.n_streams == 1
            for o in obs[1]:
                second.push(o)
            second.finish()

    def test_push_after_finish_raises(self, model):
        with StreamingService(model) as service:
            stream = service.open()
            stream.push(np.int64(0))
            stream.finish()
            with pytest.raises(ValidationError, match="finished"):
                stream.push(np.int64(1))
            with pytest.raises(ValidationError, match="finished"):
                stream.finish()

    def test_streaming_lag_comes_from_the_given_config(self, model):
        """Regression: the service used to read the process-global config's
        streaming_lag instead of the config it was constructed with."""
        obs = _observations(model, n_streams=1, length=10)[0]
        config = ServingConfig(streaming_lag=2)
        with StreamingService(model, config=config) as service:
            stream = service.open()
            steps = [stream.push(o) for o in obs]
            result = stream.finish()
        decoder = StreamingDecoder(model, lag=2)
        want_steps = decoder.push_many(obs)
        _assert_stream_equal(steps, result, want_steps, decoder.finish())
        # lag 2 genuinely finalizes labels before finish (unlike default 32)
        assert any(step.finalized for step in steps)

    def test_finish_without_observations_raises(self, model):
        with StreamingService(model) as service:
            stream = service.open()
            with pytest.raises(ValidationError, match="no observations"):
                stream.finish()
            assert service.n_streams == 0

    def test_close_flushes_pending_pushes(self, model):
        obs = _observations(model, n_streams=1, length=8)[0]
        service = StreamingService(model, lag=2)
        stream = service.open()
        futures = [stream.submit_push(o) for o in obs]
        finish_future = stream.submit_finish()
        assert service.close(timeout=10.0) is True
        for future in futures:
            future.result(timeout=1)
        decoder = StreamingDecoder(model, lag=2)
        decoder.push_many(obs)
        assert np.array_equal(finish_future.result(timeout=1).path, decoder.finish().path)

    def test_keep_history_false_returns_final_window_only(self, model):
        obs = _observations(model, n_streams=1, length=12)[0]
        with StreamingService(model, lag=4, keep_history=False) as service:
            stream = service.open()
            finalized = []
            for o in obs:
                step = stream.push(o)
                finalized.extend(state for _, state in step.finalized)
            result = stream.finish()
        decoder = StreamingDecoder(model, lag=4)
        decoder.push_many(obs)
        want = decoder.finish()
        full = np.concatenate([np.asarray(finalized, dtype=np.int64), result.path])
        assert np.array_equal(full, want.path)
        assert result.filtering.shape[0] == 0


class TestFailureIsolation:
    def test_bad_observation_fails_alone_and_stream_survives(self, model):
        obs = _observations(model, n_streams=2, length=6)
        with StreamingService(model, lag=2) as service:
            healthy, wounded = service.open(), service.open()
            # interleave a malformed symbol into one stream's pushes while
            # both are coalesced into shared ticks
            futures = []
            for t in range(3):
                futures.append(healthy.submit_push(obs[0][t]))
                futures.append(wounded.submit_push(obs[1][t]))
            bad = wounded.submit_push(np.int64(999))  # out of vocabulary
            for t in range(3, 6):
                futures.append(healthy.submit_push(obs[0][t]))
                futures.append(wounded.submit_push(obs[1][t]))
            with pytest.raises(Exception):
                bad.result(timeout=10)
            for future in futures:
                future.result(timeout=10)
            healthy_result = healthy.finish()
            wounded_result = wounded.finish()
        # the failed push never advanced its stream: both streams decode as
        # if the bad observation was never sent
        for got, seq in ((healthy_result, obs[0]), (wounded_result, obs[1])):
            decoder = StreamingDecoder(model, lag=2)
            decoder.push_many(seq)
            assert np.array_equal(got.path, decoder.finish().path)


class TestWaveBatching:
    def test_push_many_matches_per_token_submission(self, model):
        obs = _observations(model, n_streams=1, length=24)[0]
        with StreamingService(model, lag=4) as service:
            stream = service.open()
            steps = []
            for start in range(0, len(obs), 8):
                steps.extend(stream.push_many(obs[start : start + 8]))
            result = stream.finish()
        decoder = StreamingDecoder(model, lag=4)
        want_steps = decoder.push_many(obs)
        _assert_stream_equal(steps, result, want_steps, decoder.finish())

    def test_wave_is_one_queue_entry(self, model):
        """A 10-token wave pays ONE queue admission, not ten."""
        obs = _observations(model, n_streams=1, length=30)[0]
        with StreamingService(model, lag=4) as service:
            stream = service.open()
            for start in range(0, 30, 10):
                stream.push_many(obs[start : start + 10])
            stats = service.stats.snapshot()
        # every token is served (per-tick accounting unchanged) ...
        assert stats["n_requests"] == 30
        # ... but the queue/latency machinery sees one entry per wave
        # (plus the open() control request): 1 + 3, not 1 + 30
        assert stats["latency"]["count"] == 4
        waits = stats["queue_wait_by_policy"]
        assert sum(hist["count"] for hist in waits.values()) == 4

    def test_waves_coalesce_with_single_pushes(self, model, hold_dispatcher):
        obs = _observations(model, n_streams=2, length=12)
        config = ServingConfig(max_batch_size=64)
        with StreamingService(model, lag=3, config=config) as service:
            wavy, ticky = service.open(), service.open()
            with hold_dispatcher() as held:
                futures = [wavy.submit_push_many(obs[0][:6])]
                assert held.wait(timeout=10)
                futures += [
                    *[ticky.submit_push(o) for o in obs[1][:6]],
                    wavy.submit_push_many(obs[0][6:]),
                    *[ticky.submit_push(o) for o in obs[1][6:]],
                ]
            for future in futures:
                future.result(timeout=10)
            results = [wavy.finish(), ticky.finish()]
        for got, seq in zip(results, obs):
            decoder = StreamingDecoder(model, lag=3)
            decoder.push_many(seq)
            assert np.array_equal(got.path, decoder.finish().path)

    def test_failed_token_stops_the_wave_but_not_the_stream(self, model):
        """A wave failing at token k keeps tokens < k applied; the stream
        stays usable and later decodes as if the bad token was never sent."""
        obs = _observations(model, n_streams=1, length=12)[0]
        with StreamingService(model, lag=2) as service:
            stream = service.open()
            stream.push_many(obs[:4])
            poisoned = np.concatenate([obs[4:8], np.asarray([999])])
            with pytest.raises(Exception):
                stream.push_many(poisoned)
            stream.push_many(obs[8:])
            result = stream.finish()
        decoder = StreamingDecoder(model, lag=2)
        decoder.push_many(obs)
        assert np.array_equal(result.path, decoder.finish().path)

    def test_empty_wave_rejected(self, model):
        with StreamingService(model) as service:
            stream = service.open()
            with pytest.raises(ValidationError, match="at least one"):
                stream.submit_push_many([])

    def test_wave_after_finish_raises(self, model):
        with StreamingService(model) as service:
            stream = service.open()
            stream.push(np.int64(0))
            stream.finish()
            with pytest.raises(ValidationError, match="finished"):
                stream.submit_push_many([0, 1])
