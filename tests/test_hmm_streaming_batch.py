"""BatchedStreamingSession: exact equality with the offline oracle + API.

The oracle is the log-domain reference the ``log`` backend keeps
(:func:`log_forward`, :func:`viterbi_decode_from_log`).  Every step of
every stream must equal it exactly, not merely to a tolerance:

* a step's ``log_likelihood`` is ``logsumexp`` of the forward row;
* its ``filtering`` is that forward row, normalized;
* the labels finalized at step ``t`` are the Viterbi path of the prefix
  ``rows[:t + 1]``;
* ``finish`` returns the full-sequence Viterbi path from the first
  unfinalized position on.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import DimensionMismatchError, ValidationError
from repro.hmm import HMM, CategoricalEmission
from repro.hmm.backends import BatchedStreamingSession, StreamStep
from repro.hmm.forward_backward import log_forward
from repro.hmm.viterbi import viterbi_decode_from_log
from repro.utils.maths import logsumexp, safe_log

LAGS = [None, 1, 2, 3, 8, 40]


def _random_hmm(seed, n_states=5, n_symbols=9):
    rng = np.random.default_rng(seed)
    emissions = CategoricalEmission(rng.dirichlet(np.ones(n_symbols), size=n_states))
    return HMM(
        rng.dirichlet(np.ones(n_states)),
        rng.dirichlet(np.ones(n_states), size=n_states),
        emissions,
    )


def _log_params(model):
    return safe_log(model.startprob), safe_log(model.transmat)


def _random_problem(seed, n_states, ties=False, n_symbols=9):
    """``log(pi)``, ``log(A)`` and a ``(V, K)`` emission log-likelihood table.

    With ``ties`` every probability is rounded to one decimal, so many
    forward and Viterbi scores tie exactly, and the start/transition
    entries rounded to zero are impossible (``-inf``).
    """
    rng = np.random.default_rng(seed)
    pi = rng.dirichlet(np.ones(n_states))
    transmat = rng.dirichlet(np.ones(n_states), size=n_states)
    emission = rng.dirichlet(np.ones(n_symbols), size=n_states)
    if not ties:
        return safe_log(pi), safe_log(transmat), safe_log(emission).T
    with np.errstate(divide="ignore"):
        return (
            np.log(pi.round(1)),
            np.log(transmat.round(1)),
            safe_log(emission.round(1)).T,
        )


def _oracle(log_pi, log_A, rows, lag):
    """The steps and final flush a stream over ``rows`` must produce."""
    log_alpha = log_forward(log_pi, log_A, rows)
    steps, next_emit = [], 0
    for t in range(rows.shape[0]):
        log_likelihood = float(logsumexp(log_alpha[t]))
        filtering = np.exp(log_alpha[t] - log_likelihood)
        filtering /= filtering.sum()
        finalized = []
        if lag is not None and t - next_emit >= lag:
            prefix_path, _ = viterbi_decode_from_log(log_pi, log_A, rows[: t + 1])
            last = t - lag
            finalized = [(p, int(prefix_path[p])) for p in range(next_emit, last + 1)]
            next_emit = last + 1
        steps.append(StreamStep(t, filtering, log_likelihood, finalized))
    path, _ = viterbi_decode_from_log(log_pi, log_A, rows)
    return steps, [(p, int(path[p])) for p in range(next_emit, rows.shape[0])]


def _assert_step_equals(step, want, context=""):
    assert step.t == want.t, context
    assert np.array_equal(step.filtering, want.filtering), context
    assert step.log_likelihood == want.log_likelihood, context
    assert step.finalized == want.finalized, context


def _run_against_oracle(log_pi, log_A, streams):
    """Drive ``(lag, join_tick, rows)`` streams through one session.

    Each stream opens at its join tick, advances one token per tick with
    every other active stream in one ``step_many`` call, and finishes right
    after its last token, freeing its slot for later joins.  Every step and
    every final flush is compared with the oracle.  Returns the slot ids
    the streams were given.
    """
    session = BatchedStreamingSession(log_pi, log_A)
    references = [_oracle(log_pi, log_A, rows, lag) for lag, _, rows in streams]
    ids: dict[int, int] = {}
    horizon = max(join + rows.shape[0] for _, join, rows in streams)
    for tick in range(horizon):
        for k, (lag, join, _) in enumerate(streams):
            if tick == join:
                ids[k] = session.add_stream(lag=lag)
        active = [
            k
            for k, (_, join, rows) in enumerate(streams)
            if join <= tick < join + rows.shape[0]
        ]
        if not active:
            continue
        rows_now = np.stack([streams[k][2][tick - streams[k][1]] for k in active])
        steps = session.step_many(rows_now, [ids[k] for k in active])
        for k, step in zip(active, steps):
            t = tick - streams[k][1]
            _assert_step_equals(step, references[k][0][t], f"stream {k} t {t}")
            if t == streams[k][2].shape[0] - 1:
                assert session.finish(ids[k]) == references[k][1], f"stream {k}"
    return [ids[k] for k in range(len(streams))]


def _streams(rng, table, lags, max_len=35, max_join=0):
    """Random ``(lag, join_tick, rows)`` streams over an emission table."""
    streams = []
    for lag in lags:
        length = int(rng.integers(1, max_len + 1))
        join = int(rng.integers(0, max_join + 1))
        tokens = rng.integers(0, table.shape[0], size=length)
        streams.append((lag, join, table[tokens]))
    return streams


class TestBitIdenticalEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_states=st.integers(2, 15),
        ties=st.booleans(),
    )
    def test_mixed_lags_and_lengths(self, seed, n_states, ties):
        """Streams at mixed lags/lengths/join ticks: every step is the oracle's."""
        log_pi, log_A, table = _random_problem(seed, n_states, ties=ties)
        rng = np.random.default_rng(seed)
        streams = _streams(rng, table, LAGS, max_join=10)
        _run_against_oracle(log_pi, log_A, streams)

    def test_single_stream_step_matches_oracle(self):
        """One stream stepped row by row: what StreamingDecoder runs."""
        model = _random_hmm(3)
        log_pi, log_A = _log_params(model)
        rows = model.emissions.log_likelihoods(np.asarray(model.sample(15, seed=3)[1]))
        steps, tail = _oracle(log_pi, log_A, rows, lag=4)
        session = BatchedStreamingSession(log_pi, log_A, lags=[4])
        for row, want in zip(rows, steps):
            _assert_step_equals(session.step(0, row), want)
        assert session.finish(0) == tail

    def test_stream_added_mid_flight(self):
        """A stream opened after others started behaves like a fresh stream."""
        model = _random_hmm(5)
        log_pi, log_A = _log_params(model)
        rows = model.emissions.log_likelihoods(np.asarray(model.sample(20, seed=5)[1]))
        _run_against_oracle(log_pi, log_A, [(2, 0, rows), (3, 6, rows[6:])])

    def test_finished_slot_is_reused(self):
        model = _random_hmm(7)
        log_pi, log_A = _log_params(model)
        rows = model.emissions.log_likelihoods(np.asarray(model.sample(12, seed=7)[1]))
        # stream 1 finishes after 4 tokens; stream 2 joins later and must
        # start from scratch in the recycled slot
        ids = _run_against_oracle(
            log_pi, log_A, [(None, 0, rows), (2, 0, rows[:4]), (3, 6, rows[3:])]
        )
        assert ids[2] == ids[1]

    @pytest.mark.parametrize("n_states", [2, 3, 5, 15])
    def test_many_ties(self, n_states):
        """Parameters rounded to one decimal: exact ties everywhere, and
        impossible transitions, still give the oracle's first-index
        tie-breaking and -inf handling."""
        for seed in range(10):
            log_pi, log_A, table = _random_problem(seed, n_states, ties=True)
            rng = np.random.default_rng(seed)
            streams = _streams(rng, table, LAGS, max_join=5)
            _run_against_oracle(log_pi, log_A, streams)


class TestApi:
    def test_active_streams_and_counts(self):
        model = _random_hmm(0)
        batched = model.stream_batch(lags=[1, 2, 3])
        assert batched.n_streams == 3
        assert batched.active_streams() == [0, 1, 2]
        row = model.emissions.log_likelihoods(np.array([0]))[0]
        batched.step_many(np.stack([row] * 3))  # default: all active streams
        batched.finish(1)
        assert batched.active_streams() == [0, 2]

    def test_step_finished_stream_raises(self):
        model = _random_hmm(0)
        batched = model.stream_batch(lags=[None])
        row = model.emissions.log_likelihoods(np.array([0]))[0]
        batched.step(0, row)
        batched.finish(0)
        with pytest.raises(ValidationError, match="finished"):
            batched.step(0, row)

    def test_unknown_stream_raises(self):
        model = _random_hmm(0)
        batched = model.stream_batch(lags=[None])
        row = model.emissions.log_likelihoods(np.array([0]))[0]
        with pytest.raises(ValidationError, match="unknown stream"):
            batched.step(5, row)

    def test_duplicate_stream_ids_rejected(self):
        model = _random_hmm(0)
        batched = model.stream_batch(lags=[None, None])
        row = model.emissions.log_likelihoods(np.array([0]))[0]
        with pytest.raises(ValidationError, match="duplicate"):
            batched.step_many(np.stack([row, row]), [0, 0])

    def test_row_shape_validated(self):
        model = _random_hmm(0)
        batched = model.stream_batch(lags=[None])
        with pytest.raises(DimensionMismatchError):
            batched.step_many(np.zeros((1, 3)), [0])
        with pytest.raises(ValidationError, match="rows"):
            batched.step_many(
                np.zeros((2, model.n_states)), [0]
            )

    def test_invalid_lag_rejected(self):
        model = _random_hmm(0)
        with pytest.raises(ValidationError, match="lag"):
            model.stream_batch(lags=[0])

    def test_engine_entry_point_uses_param_cache(self):
        model = _random_hmm(0)
        engine = model.inference_engine
        session = engine.start_stream_batch(model.startprob, model.transmat, lags=[2])
        assert isinstance(session, BatchedStreamingSession)
        assert session.n_states == model.n_states

    def test_empty_tick_is_a_no_op(self):
        model = _random_hmm(0)
        batched = model.stream_batch()
        assert batched.step_many(np.zeros((0, model.n_states)), []) == []
