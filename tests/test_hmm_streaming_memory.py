"""Streaming session memory bounds + tail-flush correctness.

Satellite regression suite for the long-sequence PR: fixed-lag streaming
sessions must hold O(lag) state no matter how many tokens flow through
them (a 100k-step session keeps a flat backpointer buffer), and the new
``peek_tail`` / ``decode_tail`` flush must reuse the stitching contract:
``finalized_labels + decode_tail()`` equals the full best path so far,
without closing the stream.
"""

import sys

import numpy as np
import pytest

from repro.hmm import HMM, CategoricalEmission
from repro.serving import StreamPool, StreamingDecoder, stream_decode


@pytest.fixture(scope="module")
def model():
    rng = np.random.default_rng(42)
    n_states, vocab = 4, 8
    pi = rng.dirichlet(np.ones(n_states))
    transmat = rng.dirichlet(np.ones(n_states), size=n_states)
    transmat = 0.7 * np.eye(n_states) + 0.3 * transmat
    transmat /= transmat.sum(axis=1, keepdims=True)
    emissions = CategoricalEmission(rng.dirichlet(np.ones(vocab), size=n_states))
    return HMM(pi, transmat, emissions)


class TestSessionBufferBounds:
    def test_single_session_buffer_flat_over_100k_steps(self, model):
        lag = 16
        session = model.stream_batch(lags=[lag])
        rng = np.random.default_rng(0)
        table = model.emissions.log_likelihoods(
            rng.integers(0, model.emissions.n_symbols, size=100_000)
        )
        max_bp = 0
        for t in range(table.shape[0]):
            session.step(0, table[t])
            max_bp = max(max_bp, len(session._slot(0).bp))
        # backpointer window never exceeds the lag: O(lag), not O(T)
        assert max_bp <= lag
        session.finish(0)
        assert len(session._slot(0).bp) == 0

    def test_batched_session_slots_stay_bounded(self, model):
        lags = (8, 32)
        session = model.stream_batch(lags=lags)
        rng = np.random.default_rng(1)
        tokens = rng.integers(0, model.emissions.n_symbols, size=(5000, 2))
        max_bp = [0, 0]
        for t in range(tokens.shape[0]):
            rows = model.emissions.log_likelihoods(tokens[t])
            session.step_many(rows, [0, 1])
            for i in range(2):
                max_bp[i] = max(max_bp[i], len(session._slot(i).bp))
        assert max_bp[0] <= lags[0]
        assert max_bp[1] <= lags[1]

    def test_lagless_decoder_without_history_stays_flat(self, model):
        # keep_history=False + no lag: nothing is finalized until finish(),
        # so the session window is the whole stream — but the *decoder*
        # must not also accumulate a per-step history on top of it.
        decoder = StreamingDecoder(model, lag=16, keep_history=False)
        rng = np.random.default_rng(2)
        for tok in rng.integers(0, model.emissions.n_symbols, size=20_000):
            decoder.push(int(tok))
        assert decoder._state.steps == [] or not decoder._state.keep_history
        assert sys.getsizeof(decoder._state.steps) < 10_000
        assert len(decoder._pool._session._slot(decoder._slot).bp) <= 16

    def test_flat_buffer_regression_pinned_numbers(self, model):
        # Regression pin: the backpointer deque for lag L holds exactly
        # min(t, L) columns after t steps (pre-fix it grew without bound
        # when finalization lagged behind the stream).
        lag = 10
        session = model.stream_batch(lags=[lag])
        rng = np.random.default_rng(3)
        table = model.emissions.log_likelihoods(
            rng.integers(0, model.emissions.n_symbols, size=50)
        )
        for t in range(table.shape[0]):
            session.step(0, table[t])
            # steady state oscillates between lag-1 (just trimmed) and lag
            assert len(session._slot(0).bp) <= min(t, lag)
            if t >= lag:
                assert len(session._slot(0).bp) >= lag - 1


class TestTailFlush:
    def test_decode_tail_matches_finish(self, model):
        rng = np.random.default_rng(4)
        tokens = rng.integers(0, model.emissions.n_symbols, size=500)
        decoder = StreamingDecoder(model, lag=16, keep_history=False)
        for tok in tokens:
            decoder.push(int(tok))
        tail = decoder.decode_tail()
        result = decoder.finish()
        assert np.array_equal(tail, result.path)

    def test_decode_tail_is_non_destructive(self, model):
        rng = np.random.default_rng(5)
        tokens = rng.integers(0, model.emissions.n_symbols, size=300)
        reference = stream_decode(model, tokens, lag=8)
        decoder = StreamingDecoder(model, lag=8)
        for i, tok in enumerate(tokens):
            decoder.push(int(tok))
            if i % 50 == 0:
                decoder.decode_tail()  # peeking must not disturb the stream
        result = decoder.finish()
        assert np.array_equal(result.path, reference.path)

    def test_prefix_plus_tail_equals_best_path_so_far(self, model):
        rng = np.random.default_rng(6)
        tokens = rng.integers(0, model.emissions.n_symbols, size=400)
        decoder = StreamingDecoder(model, lag=12, keep_history=False)
        finalized: list[int] = []
        for i, tok in enumerate(tokens):
            step = decoder.push(int(tok))
            finalized.extend(state for _, state in step.finalized)
            if i in (100, 250):
                stitched = np.concatenate(
                    [
                        np.asarray(finalized, dtype=np.int64),
                        decoder.decode_tail(),
                    ]
                )
                assert stitched.shape == (i + 1,)
                # the finalized prefix is exact Viterbi output; the tail is
                # the current best completion — together they cover every
                # token seen so far with valid states
                assert stitched.min() >= 0
                assert stitched.max() < model.n_states

    def test_decode_tail_empty_cases(self, model):
        decoder = StreamingDecoder(model, lag=4)
        assert decoder.decode_tail().shape == (0,)  # nothing pushed yet
        decoder.push(0)
        decoder.finish()
        assert decoder.decode_tail().shape == (0,)  # closed stream

    def test_pooled_stream_decode_tail(self, model):
        rng = np.random.default_rng(7)
        tokens = rng.integers(0, model.emissions.n_symbols, size=200)
        pool = StreamPool(model, keep_history=False)
        a = pool.open(lag=8)
        b = pool.open(lag=8)
        solo = StreamingDecoder(model, lag=8, keep_history=False)
        for tok in tokens:
            a.push(int(tok))
            b.push(int(tok))
            solo.push(int(tok))
        tail = a.decode_tail()
        assert np.array_equal(tail, solo.decode_tail())
        ra, rs = a.finish(), solo.finish()
        assert np.array_equal(ra.path, rs.path)
        # b untouched by a's peek/finish
        rb = b.finish()
        assert np.array_equal(rb.path, rs.path)

    def test_pooled_decode_tail_after_finish_is_empty(self, model):
        pool = StreamPool(model)
        s = pool.open(lag=4)
        s.push(0)
        s.finish()
        assert s.decode_tail().shape == (0,)
