"""Streaming decode: fixed-lag Viterbi and filtering-posterior equivalence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ValidationError
from repro.hmm import HMM, CategoricalEmission, GaussianEmission
from repro.hmm.forward_backward import log_forward
from repro.hmm.viterbi import viterbi_decode
from repro.core.config import ServingConfig, set_serving_config
from repro.serving import StreamingDecoder, StreamPool, stream_decode
from repro.utils.maths import logsumexp, normalize_log_probabilities, safe_log


def _random_hmm(seed, n_states=4, n_symbols=6):
    rng = np.random.default_rng(seed)
    emissions = CategoricalEmission(rng.dirichlet(np.ones(n_symbols), size=n_states))
    return HMM(
        rng.dirichlet(np.ones(n_states)),
        rng.dirichlet(np.ones(n_states), size=n_states),
        emissions,
    )


def _reference_viterbi(model, obs):
    """Full-sequence log-domain Viterbi — bit-identical arithmetic to the
    streaming session, so path equality is exact (no cross-domain ties)."""
    path, _ = viterbi_decode(
        model.startprob, model.transmat, model.emissions.log_likelihoods(obs)
    )
    return path


class TestFixedLagViterbiEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), length=st.integers(1, 30))
    def test_lag_at_least_t_equals_full_viterbi(self, seed, length):
        """With lag >= T the streamed path is the exact batch Viterbi path."""
        model = _random_hmm(seed)
        _, obs = model.sample(length, seed=seed)
        obs = np.asarray(obs)
        result = stream_decode(model, obs, lag=length + int(np.random.default_rng(seed).integers(0, 5)))
        assert np.array_equal(result.path, _reference_viterbi(model, obs))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), length=st.integers(1, 30))
    def test_infinite_lag_equals_full_viterbi(self, seed, length):
        model = _random_hmm(seed)
        _, obs = model.sample(length, seed=seed)
        obs = np.asarray(obs)
        result = stream_decode(model, obs, lag=None)
        assert np.array_equal(result.path, _reference_viterbi(model, obs))
        # and the scaled batch engine agrees on the joint probability
        scaled_path = model.decode(obs)
        log_obs = model.emissions.log_likelihoods(obs)
        idx = np.arange(len(obs) - 1)
        def joint(path):
            return (
                safe_log(model.startprob)[path[0]]
                + safe_log(model.transmat)[path[idx], path[idx + 1]].sum()
                + log_obs[np.arange(len(obs)), path].sum()
            )
        np.testing.assert_allclose(joint(result.path), joint(scaled_path), atol=1e-8)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), length=st.integers(1, 25), lag=st.integers(1, 30))
    def test_small_lag_emits_exactly_one_label_per_token(self, seed, length, lag):
        """Any lag yields a complete, in-order path over valid states."""
        model = _random_hmm(seed)
        _, obs = model.sample(length, seed=seed)
        result = stream_decode(model, np.asarray(obs), lag=lag)
        assert result.path.shape == (length,)
        assert np.all((result.path >= 0) & (result.path < model.n_states))

    def test_labels_finalize_exactly_lag_steps_behind(self):
        model = _random_hmm(7)
        _, obs = model.sample(12, seed=7)
        decoder = StreamingDecoder(model, lag=3)
        for t, token in enumerate(np.asarray(obs)):
            step = decoder.push(token)
            if t < 3:
                assert step.finalized == []
            else:
                assert [position for position, _ in step.finalized] == [t - 3]
        remaining = decoder.finish()
        assert remaining.path.shape == (12,)
        # positions 0..8 were finalized online, 9..11 at finish
        assert decoder.n_tokens == 12


class TestFilteringPosteriors:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), length=st.integers(1, 25))
    def test_matches_log_reference_forward_at_1e8(self, seed, length):
        """Per-step filtering == normalized log-domain forward messages."""
        model = _random_hmm(seed)
        _, obs = model.sample(length, seed=seed)
        obs = np.asarray(obs)
        log_obs = model.emissions.log_likelihoods(obs)
        log_alpha = log_forward(
            safe_log(model.startprob), safe_log(model.transmat), log_obs
        )
        reference = normalize_log_probabilities(log_alpha, axis=1)

        result = stream_decode(model, obs, lag=None)
        np.testing.assert_allclose(result.filtering, reference, atol=1e-8, rtol=0)
        np.testing.assert_allclose(
            result.log_likelihood, float(logsumexp(log_alpha[-1])), atol=1e-8
        )
        assert np.allclose(result.filtering.sum(axis=1), 1.0, atol=1e-12)

    def test_running_log_likelihood_is_monotone_in_information(self):
        """Each prefix likelihood equals the batch engine's on that prefix."""
        model = _random_hmm(11)
        _, obs = model.sample(10, seed=11)
        obs = np.asarray(obs)
        decoder = StreamingDecoder(model, lag=None)
        for t, token in enumerate(obs):
            step = decoder.push(token)
            assert step.log_likelihood == pytest.approx(
                model.log_likelihood(obs[: t + 1]), abs=1e-8
            )


class TestStreamingDecoderApi:
    def test_gaussian_stream(self):
        rng = np.random.default_rng(0)
        model = HMM(
            rng.dirichlet(np.ones(3)),
            rng.dirichlet(np.ones(3), size=3),
            GaussianEmission(np.array([-1.0, 0.0, 1.0]), np.ones(3)),
        )
        _, obs = model.sample(8, seed=0)
        result = stream_decode(model, np.asarray(obs), lag=2)
        assert result.path.shape == (8,)

    def test_default_lag_comes_from_serving_config(self):
        model = _random_hmm(0)
        previous = set_serving_config(ServingConfig(streaming_lag=5))
        try:
            decoder = StreamingDecoder(model)
            assert decoder.lag == 5
        finally:
            set_serving_config(previous)

    def test_stream_decode_honors_configured_default_lag(self):
        """Regression: ``stream_decode`` without ``lag`` must follow
        ``ServingConfig.streaming_lag``, not silently use infinite lag.

        Uses a (model, sequence) pair where the fixed-lag path genuinely
        differs from the full-sequence Viterbi path, so the default being
        forwarded as ``None`` is observable in the output.
        """
        found = None
        for seed in range(300):
            model = _random_hmm(seed)
            _, obs = model.sample(30, seed=seed)
            obs = np.asarray(obs)
            lagged = stream_decode(model, obs, lag=2).path
            infinite = stream_decode(model, obs, lag=None).path
            if not np.array_equal(lagged, infinite):
                found = (model, obs, lagged, infinite)
                break
        assert found is not None, "no lag-sensitive example found"
        model, obs, lagged, infinite = found
        previous = set_serving_config(ServingConfig(streaming_lag=2))
        try:
            defaulted = stream_decode(model, obs).path
        finally:
            set_serving_config(previous)
        assert np.array_equal(defaulted, lagged)
        assert not np.array_equal(defaulted, infinite)

    def test_finish_without_tokens_raises(self):
        decoder = StreamingDecoder(_random_hmm(0), lag=None)
        with pytest.raises(ValidationError):
            decoder.finish()

    def test_step_after_finish_raises(self):
        model = _random_hmm(0)
        session = model.stream_batch(lags=[None])
        session.step(0, model.emissions.log_likelihoods(np.array([0]))[0])
        session.finish(0)
        with pytest.raises(ValidationError):
            session.step(0, model.emissions.log_likelihoods(np.array([0]))[0])

    def test_invalid_lag_rejected(self):
        with pytest.raises(ValidationError):
            _random_hmm(0).stream_batch(lags=[0])

    @pytest.mark.parametrize("keep_history", [True, False])
    def test_second_finish_raises(self, keep_history):
        """Regression: a second ``finish()`` used to answer again — the same
        result with history, an empty path without — instead of failing
        like every other stream handle."""
        decoder = StreamingDecoder(_random_hmm(0), lag=4, keep_history=keep_history)
        decoder.push_many([0, 1, 2])
        assert decoder.finish().path.shape == (3,)  # lag 4: all labels at finish
        with pytest.raises(ValidationError, match="already finished"):
            decoder.finish()

    def test_lag_is_a_public_attribute(self):
        model = _random_hmm(0)
        assert StreamingDecoder(model, lag=3).lag == 3
        assert StreamingDecoder(model, lag=None).lag is None

    def test_keep_history_false_bounds_retention(self):
        model = _random_hmm(5)
        _, obs = model.sample(20, seed=5)
        obs = np.asarray(obs)
        full = stream_decode(model, obs, lag=4)

        decoder = StreamingDecoder(model, lag=4, keep_history=False)
        online = []
        for token in obs:
            online.extend(decoder.push(token).finalized)
        assert decoder._state.steps == []  # nothing retained
        tail = decoder.finish()
        # online finalizations + the final window together cover the stream
        # and agree with the history-keeping decoder's result.
        labels = [state for _, state in online] + list(tail.path)
        assert len(labels) == 20
        assert np.array_equal(np.array(labels), full.path)
        # no retained posteriors in bounded mode: empty, not mismatched
        assert tail.filtering.shape == (0, model.n_states)
        assert tail.log_likelihood == pytest.approx(full.log_likelihood, abs=1e-12)

    def test_partial_finalized_labels_are_a_path_prefix(self):
        model = _random_hmm(3)
        _, obs = model.sample(15, seed=3)
        decoder = StreamingDecoder(model, lag=4)
        decoder.push_many(np.asarray(obs))
        online_prefix = list(decoder.finalized_labels)
        assert len(online_prefix) == 15 - 4
        result = decoder.finish()
        assert list(result.path[: len(online_prefix)]) == online_prefix


class TestStreamPool:
    def test_pooled_streams_match_dedicated_decoders(self):
        """Per-stream pool output is bit-identical to StreamingDecoder."""
        model = _random_hmm(2)
        lags = [1, 3, 8, None]
        lengths = [25, 18, 9, 25]
        observations = [
            np.asarray(model.sample(T, seed=10 + i)[1])
            for i, T in enumerate(lengths)
        ]
        pool = StreamPool(model)
        streams = [pool.open(lag=lag) for lag in lags]
        pooled_steps = [[] for _ in streams]
        for t in range(max(lengths)):
            items = [
                (streams[i], observations[i][t])
                for i in range(len(streams))
                if t < lengths[i]
            ]
            ids = [i for i in range(len(streams)) if t < lengths[i]]
            for i, step in zip(ids, pool.push_tick(items)):
                pooled_steps[i].append(step)
        results = [stream.finish() for stream in streams]

        for i, (lag, obs) in enumerate(zip(lags, observations)):
            decoder = StreamingDecoder(model, lag=lag)
            reference_steps = decoder.push_many(obs)
            reference = decoder.finish()
            for got, want in zip(pooled_steps[i], reference_steps):
                assert got.t == want.t
                assert np.array_equal(got.filtering, want.filtering)
                assert got.log_likelihood == want.log_likelihood
                assert got.finalized == want.finalized
            assert np.array_equal(results[i].path, reference.path)
            assert np.array_equal(results[i].filtering, reference.filtering)
            assert results[i].log_likelihood == reference.log_likelihood

    def test_single_push_and_counters(self):
        model = _random_hmm(4)
        _, obs = model.sample(6, seed=4)
        obs = np.asarray(obs)
        pool = StreamPool(model, lag=2)
        stream = pool.open()
        assert pool.n_streams == 1
        for token in obs:
            stream.push(token)
        assert stream.n_tokens == 6
        result = stream.finish()
        assert pool.n_streams == 0
        decoder = StreamingDecoder(model, lag=2)
        decoder.push_many(obs)
        assert np.array_equal(result.path, decoder.finish().path)

    def test_default_lag_comes_from_serving_config(self):
        model = _random_hmm(0)
        previous = set_serving_config(ServingConfig(streaming_lag=7))
        try:
            pool = StreamPool(model)
            stream = pool.open()
            assert pool._session._slots[stream._slot].lag == 7
        finally:
            set_serving_config(previous)

    def test_slot_reuse_after_finish(self):
        model = _random_hmm(1)
        _, obs = model.sample(5, seed=1)
        obs = np.asarray(obs)
        pool = StreamPool(model, lag=None)
        first = pool.open()
        for token in obs:
            first.push(token)
        first_result = first.finish()
        fresh = pool.open()  # reuses the freed slot
        for token in obs:
            fresh.push(token)
        assert np.array_equal(fresh.finish().path, first_result.path)

    def test_push_to_finished_stream_raises(self):
        model = _random_hmm(1)
        pool = StreamPool(model, lag=None)
        stream = pool.open()
        stream.push(0)
        stream.finish()
        with pytest.raises(ValidationError, match="finished"):
            stream.push(0)
        with pytest.raises(ValidationError, match="finished"):
            stream.finish()

    def test_foreign_stream_rejected(self):
        model = _random_hmm(1)
        pool_a, pool_b = StreamPool(model, lag=None), StreamPool(model, lag=None)
        stream = pool_a.open()
        with pytest.raises(ValidationError, match="different pool"):
            pool_b.push_tick([(stream, 0)])

    def test_finish_without_tokens_raises(self):
        pool = StreamPool(_random_hmm(0), lag=None)
        stream = pool.open()
        with pytest.raises(ValidationError, match="no observations"):
            stream.finish()
        # The slot is freed and the stream finished, as in the service.
        assert pool.n_streams == 0
        with pytest.raises(ValidationError, match="already finished"):
            stream.finish()

    def test_bool_observation_in_an_integer_tick_is_rejected(self):
        """Regression: stacking a tick cast a bool observation to int, so it
        was scored instead of failing the categorical dtype check."""
        pool = StreamPool(_random_hmm(1), lag=None)
        ints, bools = pool.open(), pool.open()
        with pytest.raises(ValidationError, match="integer"):
            pool.push_tick([(ints, np.int64(1)), (bools, np.bool_(True))])
        assert ints.n_tokens == bools.n_tokens == 0  # the tick never ran

    def test_tick_of_mixed_integer_kinds_matches_dedicated_decoders(self):
        model = _random_hmm(2)
        pool = StreamPool(model, lag=None)
        streams = [pool.open(), pool.open(), pool.open()]
        tokens = [np.int64(1), np.uint8(3), np.int64(5)]
        steps = pool.push_tick(list(zip(streams, tokens)))
        for step, token in zip(steps, tokens):
            want = StreamingDecoder(model, lag=None).push(token)
            assert np.array_equal(step.filtering, want.filtering)
            assert step.log_likelihood == want.log_likelihood

    def test_keep_history_false_bounds_retention(self):
        model = _random_hmm(6)
        _, obs = model.sample(20, seed=6)
        obs = np.asarray(obs)
        full = stream_decode(model, obs, lag=4)
        pool = StreamPool(model, lag=4, keep_history=False)
        stream = pool.open()
        online = []
        for token in obs:
            online.extend(stream.push(token).finalized)
        assert stream._state.steps == []  # nothing retained
        tail = stream.finish()
        labels = [state for _, state in online] + list(tail.path)
        assert np.array_equal(np.array(labels), full.path)
        assert tail.filtering.shape == (0, model.n_states)


class TestPushWave:
    def test_wave_matches_per_token_pushes(self):
        """push_wave is bit-identical to the equivalent push loop."""
        model = _random_hmm(3)
        _, obs = model.sample(24, seed=3)
        obs = np.asarray(obs)
        wave_pool, loop_pool = StreamPool(model, lag=4), StreamPool(model, lag=4)
        wave_stream, loop_stream = wave_pool.open(), loop_pool.open()
        wave_steps = []
        for start in range(0, len(obs), 8):
            wave_steps.extend(wave_stream.push_wave(obs[start : start + 8]))
        loop_steps = [loop_stream.push(token) for token in obs]
        assert len(wave_steps) == len(loop_steps)
        for got, want in zip(wave_steps, loop_steps):
            assert got.t == want.t
            assert np.array_equal(got.filtering, want.filtering)
            assert got.log_likelihood == want.log_likelihood
            assert got.finalized == want.finalized
        wave_result, loop_result = wave_stream.finish(), loop_stream.finish()
        assert np.array_equal(wave_result.path, loop_result.path)
        assert wave_result.log_likelihood == loop_result.log_likelihood
        assert wave_stream.n_tokens == len(obs)

    def test_wave_interleaves_with_other_streams(self):
        """A wave on one stream leaves a sibling stream's output untouched."""
        model = _random_hmm(5)
        _, wave_obs = model.sample(12, seed=5)
        _, tick_obs = model.sample(6, seed=6)
        wave_obs, tick_obs = np.asarray(wave_obs), np.asarray(tick_obs)
        pool = StreamPool(model, lag=3)
        wavy, ticky = pool.open(), pool.open()
        wavy.push_wave(wave_obs[:6])
        for token in tick_obs:
            ticky.push(token)
        wavy.push_wave(wave_obs[6:])
        for stream, obs in ((wavy, wave_obs), (ticky, tick_obs)):
            decoder = StreamingDecoder(model, lag=3)
            decoder.push_many(obs)
            assert np.array_equal(stream.finish().path, decoder.finish().path)

    def test_empty_wave_rejected(self):
        pool = StreamPool(_random_hmm(0), lag=2)
        with pytest.raises(ValidationError, match="at least one"):
            pool.open().push_wave([])

    def test_bool_token_in_a_wave_is_rejected(self):
        stream = StreamPool(_random_hmm(0), lag=2).open()
        with pytest.raises(ValidationError, match="integer"):
            stream.push_wave([np.int64(1), np.bool_(True)])
        assert stream.n_tokens == 0

    def test_wave_to_finished_stream_raises(self):
        pool = StreamPool(_random_hmm(0), lag=2)
        stream = pool.open()
        stream.push(0)
        stream.finish()
        with pytest.raises(ValidationError, match="finished"):
            stream.push_wave([0, 1])
