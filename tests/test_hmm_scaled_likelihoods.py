"""The probability-domain E-step: emission models hand the scaled kernel its weights.

Given the emission model instead of a log table, the scaled backend's
forward-backward asks the model for the observation weights of the packed
rows (:meth:`EmissionModel.scaled_likelihoods`).  Categorical emissions
gather them straight from ``B`` — no log, no shift, no ``exp`` — so a zero
entry of ``B`` is an exact zero weight, and a symbol no state emits makes
the forward message vanish; that sequence is recomputed with the log-domain
reference.  Whatever the input, the results must be the ``log`` backend's to
1e-8.  Gaussian and Bernoulli emissions keep the default, which is the
table path's arithmetic, so their results equal it bit for bit.  The
categorical M-step is one sparse product whose counts equal a per-state
weighted ``bincount`` exactly.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.hmm.backends as backends
from repro.exceptions import DimensionMismatchError, ValidationError
from repro.hmm import (
    HMM,
    BaumWelchTrainer,
    BernoulliEmission,
    CategoricalEmission,
    CompiledCorpus,
    GaussianEmission,
    InferenceEngine,
)
from repro.utils.maths import normalize_rows

ATOL = 1e-8


def sparse_emission_probs(rng, n_states, n_symbols, n_unseen):
    """``B`` with zero entries and ``n_unseen`` all-zero trailing columns."""
    seen = n_symbols - n_unseen
    B = rng.random((n_states, n_symbols))
    B[rng.random((n_states, n_symbols)) < 0.3] = 0.0
    B[:, seen:] = 0.0
    # Every state emits at least one seen symbol, and every seen symbol is
    # emitted by at least one state.
    B[np.arange(n_states), rng.integers(0, seen, size=n_states)] += 0.5
    B[rng.integers(0, n_states, size=seen), np.arange(seen)] += 0.5
    return B / B.sum(axis=1, keepdims=True)


def random_chain(rng, n_states):
    return (
        rng.dirichlet(np.ones(n_states)),
        rng.dirichlet(np.full(n_states, 0.5), size=n_states),
    )


def assert_stats_close(got, want):
    np.testing.assert_allclose(got.gamma_concat, want.gamma_concat, atol=ATOL, rtol=0)
    np.testing.assert_allclose(got.xi_sum, want.xi_sum, atol=ATOL, rtol=0)
    np.testing.assert_allclose(got.start_counts, want.start_counts, atol=ATOL, rtol=0)
    np.testing.assert_allclose(
        got.log_likelihoods, want.log_likelihoods, rtol=1e-12, atol=ATOL
    )


class TestCategoricalWeightsMatchReference:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_states=st.integers(1, 45),
        lengths=st.lists(st.integers(1, 40), min_size=1, max_size=10),
        n_unseen=st.integers(0, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_ragged_corpora(self, seed, n_states, lengths, n_unseen):
        rng = np.random.default_rng(seed)
        n_symbols = int(rng.integers(1, 30)) + n_unseen
        emissions = CategoricalEmission(
            sparse_emission_probs(rng, n_states, n_symbols, n_unseen)
        )
        startprob, transmat = random_chain(rng, n_states)
        sequences = [rng.integers(0, n_symbols - n_unseen, size=n) for n in lengths]
        corpus = InferenceEngine(backend="scaled").compile(sequences)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = InferenceEngine(backend="scaled").posteriors_corpus(
                startprob, transmat, corpus, emissions
            )
        want = InferenceEngine(backend="log").posteriors_corpus(
            startprob, transmat, corpus, emissions
        )
        assert_stats_close(got, want)
        # The table path computes the same E-step.
        table = InferenceEngine(backend="scaled").posteriors_corpus(
            startprob, transmat, corpus, corpus.score(emissions)
        )
        assert_stats_close(got, table)

    def test_long_sequences_score_their_own_rows(self):
        # Sequences past long_threshold stay out of the packed plan; with a
        # model they are scored from their own tokens for the segment scan.
        rng = np.random.default_rng(8)
        emissions = CategoricalEmission(sparse_emission_probs(rng, 6, 12, 2))
        startprob, transmat = random_chain(rng, 6)
        sequences = [rng.integers(0, 10, size=n) for n in (5, 300, 17, 1, 150)]
        corpus = CompiledCorpus(
            sequences, long_threshold=128, decode_window=64, decode_overlap=8
        )
        assert len(corpus.long_windows) == 2
        got = InferenceEngine(backend="scaled").posteriors_corpus(
            startprob, transmat, corpus, emissions
        )
        want = InferenceEngine(backend="log").posteriors_corpus(
            startprob, transmat, corpus, emissions
        )
        assert_stats_close(got, want)

    def test_symbol_no_state_emits_is_repaired(self):
        # Column 3 of B is all zero: its token zeroes the forward
        # normalizer, the sequence is flagged like any vanished message and
        # recomputed with the log-domain reference, alone, and no
        # floating-point warning escapes.
        rng = np.random.default_rng(5)
        B = sparse_emission_probs(rng, 4, 6, 0)
        B[:, 3] = 0.0
        emissions = CategoricalEmission(normalize_rows(B))
        startprob, transmat = random_chain(rng, 4)
        bad = np.array([0, 1, 3, 2, 5, 0, 1])
        sequences = [rng.integers(0, 3, size=9), bad, rng.integers(0, 3, size=4)]
        engine = InferenceEngine(backend="scaled")
        corpus = engine.compile(sequences)
        calls = []
        original = backends.compute_posteriors_from_log

        def spy(*args, **kwargs):
            calls.append(args[2].shape[0])
            return original(*args, **kwargs)

        backends.compute_posteriors_from_log = spy
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = engine.posteriors_corpus(startprob, transmat, corpus, emissions)
        finally:
            backends.compute_posteriors_from_log = original
        want = InferenceEngine(backend="log").posteriors_corpus(
            startprob, transmat, corpus, emissions
        )
        assert calls == [bad.size]
        assert np.isfinite(want.log_likelihoods).all()
        assert_stats_close(got, want)

    def test_fit_matches_log_backend(self):
        rng = np.random.default_rng(11)
        emissions = CategoricalEmission(sparse_emission_probs(rng, 5, 20, 3))
        startprob, transmat = random_chain(rng, 5)
        sequences = [rng.integers(0, 17, size=n) for n in rng.integers(1, 30, size=25)]
        histories = []
        for backend in ("scaled", "log"):
            model = HMM(startprob, transmat, emissions.copy())
            trainer = BaumWelchTrainer(
                engine=InferenceEngine(backend=backend), max_iter=4, tol=0.0
            )
            histories.append(trainer.fit(model, sequences).history)
        np.testing.assert_allclose(histories[0], histories[1], rtol=1e-10, atol=ATOL)


class TestCategoricalValidation:
    @pytest.mark.parametrize(
        "bad",
        [np.array([0, 9]), np.array([-1, 0]), np.array([0.0, 1.0])],
        ids=["too-large", "negative", "float"],
    )
    def test_weights_raise_like_scoring(self, bad):
        emissions = CategoricalEmission.random_init(3, 9, seed=0)
        with pytest.raises(ValidationError) as scoring:
            emissions.log_likelihoods(bad)
        with pytest.raises(ValidationError) as weights:
            emissions.scaled_likelihoods(bad, np.arange(bad.size), np.empty((bad.size, 3)))
        assert str(weights.value) == str(scoring.value)

    @pytest.mark.parametrize("backend", ["scaled", "log"])
    @pytest.mark.parametrize(
        "bad", [np.array([1, 9, 2]), np.array([1, -1]), np.array([0.0, 2.0])]
    )
    def test_fit_rejects_bad_symbols(self, backend, bad):
        model = HMM.random_init(CategoricalEmission.random_init(3, 9, seed=1), seed=1)
        trainer = BaumWelchTrainer(engine=InferenceEngine(backend=backend), max_iter=2)
        with pytest.raises(ValidationError):
            trainer.fit(model, [np.array([0, 1, 2]), bad])

    @pytest.mark.parametrize("backend", ["scaled", "log"])
    def test_model_must_cover_the_states(self, backend):
        startprob, transmat = random_chain(np.random.default_rng(0), 3)
        corpus = CompiledCorpus([np.array([0, 1, 2])])
        with pytest.raises(DimensionMismatchError):
            InferenceEngine(backend=backend).posteriors_corpus(
                startprob, transmat, corpus, CategoricalEmission.random_init(4, 3, seed=0)
            )


class TestDefaultWeightsAreTheTablePath:
    """Families without an override run the table path's arithmetic."""

    @staticmethod
    def assert_identical(emissions, sequences, n_states):
        rng = np.random.default_rng(2)
        startprob, transmat = random_chain(rng, n_states)
        engine = InferenceEngine(backend="scaled")
        corpus = engine.compile(sequences)
        got = engine.posteriors_corpus(startprob, transmat, corpus, emissions)
        want = engine.posteriors_corpus(
            startprob, transmat, corpus, corpus.score(emissions)
        )
        np.testing.assert_array_equal(got.gamma_concat, want.gamma_concat)
        np.testing.assert_array_equal(got.xi_sum, want.xi_sum)
        np.testing.assert_array_equal(got.start_counts, want.start_counts)
        np.testing.assert_array_equal(got.log_likelihoods, want.log_likelihoods)

    def test_gaussian(self):
        rng = np.random.default_rng(3)
        sequences = [rng.normal(0.0, 3.0, size=n) for n in (7, 1, 30, 12, 30)]
        emissions = GaussianEmission.random_init(4, sequences, seed=3)
        self.assert_identical(emissions, sequences, 4)

    def test_bernoulli(self):
        rng = np.random.default_rng(4)
        sequences = [
            rng.integers(0, 2, size=(n, 16)).astype(float) for n in (5, 9, 1, 9, 14)
        ]
        emissions = BernoulliEmission.random_init(6, 16, seed=4)
        self.assert_identical(emissions, sequences, 6)


def bincount_m_step(tokens, gamma, n_states, n_symbols):
    """The per-state weighted-bincount M-step the sparse product replaced."""
    counts = np.empty((n_states, n_symbols))
    for state in range(n_states):
        counts[state] = np.bincount(tokens, weights=gamma[:, state], minlength=n_symbols)
    return normalize_rows(counts)


class TestSparseMStep:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_states=st.integers(1, 45),
        lengths=st.lists(st.integers(1, 40), min_size=1, max_size=10),
        n_unseen=st.integers(0, 5),
        n_idle=st.integers(0, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_bincount_exactly(self, seed, n_states, lengths, n_unseen, n_idle):
        rng = np.random.default_rng(seed)
        seen = int(rng.integers(1, 40))
        n_symbols = seen + n_unseen
        sequences = [rng.integers(0, seen, size=n) for n in lengths]
        corpus = CompiledCorpus(sequences)
        gamma = rng.dirichlet(np.ones(n_states), size=corpus.n_tokens)
        # States with no posterior mass fall back to a uniform row.
        gamma[:, rng.permutation(n_states)[: min(n_idle, n_states - 1)]] = 0.0
        emissions = CategoricalEmission.random_init(n_states, n_symbols, seed=seed)
        emissions.m_step_compiled(corpus, gamma)
        np.testing.assert_array_equal(
            emissions.emission_probs,
            bincount_m_step(corpus.concat, gamma, n_states, n_symbols),
        )

    def test_rejects_out_of_range_symbols(self):
        emissions = CategoricalEmission.random_init(2, 4, seed=0)
        corpus = CompiledCorpus([np.array([0, 4, 1])])
        with pytest.raises(ValidationError):
            emissions.m_step_compiled(corpus, np.full((3, 2), 0.5))
