"""Tests for the compiled-corpus layer and its backend/engine entry points.

The compiled corpus must be a pure re-encoding: every corpus-level result
(stacked posteriors, decoded paths, likelihoods, M-step updates) has to
match what the per-sequence paths produce on the same data — to 1e-8 for
the scaled recursions, bit-identically for Viterbi (the fused kernel runs
the reference log-domain recursion) and for the underflow fallbacks (which
call the reference functions directly).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import InferenceConfig, set_inference_config
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
from repro.utils.maths import safe_log

ATOL = 1e-8


def random_problem(seed, n_states=4, n_symbols=8, lengths=(1, 2, 5, 17, 40, 3, 9)):
    rng = np.random.default_rng(seed)
    emissions = CategoricalEmission(rng.dirichlet(np.ones(n_symbols), size=n_states))
    startprob = rng.dirichlet(np.ones(n_states))
    transmat = rng.dirichlet(np.ones(n_states), size=n_states)
    sequences = [rng.integers(0, n_symbols, size=length) for length in lengths]
    return startprob, transmat, emissions, sequences


class TestCompiledCorpusStructure:
    def test_concat_offsets_and_lengths(self):
        sequences = [np.array([1, 2]), np.array([3]), np.array([4, 5, 6])]
        corpus = CompiledCorpus(sequences)
        assert corpus.n_sequences == 3
        assert corpus.n_tokens == 6
        np.testing.assert_array_equal(corpus.lengths, [2, 1, 3])
        np.testing.assert_array_equal(corpus.offsets, [0, 2, 3, 6])
        np.testing.assert_array_equal(corpus.concat, [1, 2, 3, 4, 5, 6])

    def test_packed_plan_covers_every_sequence_once(self):
        rng = np.random.default_rng(0)
        sequences = [rng.integers(0, 5, size=n) for n in rng.integers(1, 30, size=23)]
        corpus = CompiledCorpus(sequences)
        plan = corpus.packed
        assert sorted(plan.order.tolist()) == list(range(len(sequences)))
        # longest first, ties in corpus order
        ranked = corpus.lengths[plan.order]
        assert np.all(np.diff(ranked) <= 0)
        for a, b in zip(plan.order[:-1], plan.order[1:]):
            if corpus.lengths[a] == corpus.lengths[b]:
                assert a < b
        # step t holds every sequence longer than t, as a shrinking prefix
        assert plan.batch_sizes.size == ranked[0]
        for t, n in enumerate(plan.batch_sizes):
            assert n == np.sum(ranked > t)
        np.testing.assert_array_equal(
            plan.step_offsets, np.concatenate([[0], np.cumsum(plan.batch_sizes)])
        )
        # every token is one packed row, exactly once
        np.testing.assert_array_equal(np.sort(plan.rows), np.arange(corpus.n_tokens))
        np.testing.assert_array_equal(plan.inverse[plan.rows], np.arange(plan.n_rows))

    def test_positions_index_the_right_tokens(self):
        rng = np.random.default_rng(1)
        sequences = [rng.integers(0, 9, size=n) for n in (3, 7, 1, 7, 2)]
        corpus = CompiledCorpus(sequences)
        plan = corpus.packed
        for t, n in enumerate(plan.batch_sizes):
            lo = plan.step_offsets[t]
            for rank in range(n):
                row = lo + rank
                j = plan.order[rank]
                assert plan.ranks[row] == rank
                assert plan.rows[row] == corpus.offsets[j] + t
                assert corpus.concat[plan.rows[row]] == sequences[j][t]

    def test_split_and_tables_round_trip(self):
        _, _, emissions, sequences = random_problem(2)
        corpus = CompiledCorpus(sequences)
        values = np.arange(corpus.n_tokens * 2, dtype=float).reshape(corpus.n_tokens, 2)
        parts = corpus.split(values)
        assert len(parts) == len(sequences)
        np.testing.assert_array_equal(np.concatenate(parts), values)

        scores = corpus.score(emissions)
        assert scores.shape == (corpus.n_tokens, emissions.n_states)
        for table, seq in zip(corpus.split(scores), sequences):
            np.testing.assert_allclose(
                table, emissions.log_likelihoods(seq), atol=0, rtol=0
            )

    def test_gather_matches_manual_padding(self):
        # The packed rows are the time-major padded tensor with its padding
        # cells removed: gathering the score table through ``rows`` must
        # equal padding the length-sorted sequences by hand and keeping the
        # cells of active sequences, step by step.
        _, _, emissions, sequences = random_problem(3)
        corpus = CompiledCorpus(sequences)
        plan = corpus.packed
        scores = corpus.score(emissions)
        ranked = [sequences[j] for j in plan.order]
        max_len = max(len(s) for s in ranked)
        padded = np.zeros((max_len, len(ranked), emissions.n_states))
        active = np.zeros((max_len, len(ranked)), dtype=bool)
        for rank, seq in enumerate(ranked):
            padded[: len(seq), rank] = emissions.log_likelihoods(seq)
            active[: len(seq), rank] = True
        np.testing.assert_array_equal(scores[plan.rows], padded[active])

    def test_validation_errors(self):
        with pytest.raises(ValidationError):
            CompiledCorpus([])
        with pytest.raises(ValidationError):
            CompiledCorpus([np.array([1, 2])], long_threshold=8, decode_window=64)
        with pytest.raises(ValidationError):
            CompiledCorpus([np.array([1, 2]), np.array([], dtype=int)])
        with pytest.raises(DimensionMismatchError):
            CompiledCorpus([np.zeros(3), np.zeros((3, 2))])

    @pytest.mark.parametrize("backend", ["scaled", "log"])
    def test_misshaped_score_table_rejected(self, backend):
        # A table with a row too many or too few would silently shift
        # every sequence boundary; every backend must reject it.
        startprob, transmat, emissions, sequences = random_problem(12)
        engine = InferenceEngine(backend=backend)
        corpus = engine.compile(sequences)
        scores = emissions.log_likelihoods(corpus.concat)
        padded = np.vstack([scores, np.zeros((1, emissions.n_states))])
        for table in (padded, scores[:-1]):
            for method in ("posteriors_corpus", "viterbi_corpus", "log_likelihood_corpus"):
                with pytest.raises(DimensionMismatchError):
                    getattr(engine, method)(startprob, transmat, corpus, table)

    def test_compile_corpus_follows_process_config(self):
        sequences = [np.array([0, 1]), np.array([1])]
        previous = set_inference_config(
            InferenceConfig(decode_window=64, decode_overlap=8, long_threshold=128)
        )
        try:
            corpus = InferenceEngine().compile(sequences)
        finally:
            set_inference_config(previous)
        assert corpus.long_threshold == 128
        assert (corpus.decode_window, corpus.decode_overlap) == (64, 8)
        assert InferenceEngine().compile(sequences).long_threshold == (
            InferenceConfig().long_threshold
        )


class TestCorpusEquivalence:
    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_corpus_posteriors_match_reference(self, seed):
        startprob, transmat, emissions, sequences = random_problem(seed)
        scaled = InferenceEngine(backend="scaled")
        reference = InferenceEngine(backend="log")
        corpus = scaled.compile(sequences)
        scores = corpus.score(emissions)

        got = scaled.posteriors_corpus(startprob, transmat, corpus, scores)
        want = reference.posteriors_corpus(startprob, transmat, corpus, scores)
        np.testing.assert_allclose(got.gamma_concat, want.gamma_concat, atol=ATOL)
        np.testing.assert_allclose(got.xi_sum, want.xi_sum, atol=ATOL)
        np.testing.assert_allclose(got.start_counts, want.start_counts, atol=ATOL)
        np.testing.assert_allclose(
            got.log_likelihoods, want.log_likelihoods, atol=ATOL, rtol=1e-10
        )
        assert abs(got.log_likelihood - want.log_likelihood) < 1e-6

        # and both match the per-sequence batch path
        tables = emissions.log_likelihoods_batch(sequences)
        per_seq = reference.posteriors_batch(startprob, transmat, tables)
        np.testing.assert_allclose(
            got.gamma_concat,
            np.concatenate([r.gamma for r in per_seq]),
            atol=ATOL,
        )

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_corpus_viterbi_bit_identical_to_reference(self, seed):
        startprob, transmat, emissions, sequences = random_problem(seed)
        scaled = InferenceEngine(backend="scaled")
        reference = InferenceEngine(backend="log")
        corpus = scaled.compile(sequences)
        scores = corpus.score(emissions)

        got = scaled.viterbi_corpus(startprob, transmat, corpus, scores)
        want = reference.viterbi_batch(
            startprob, transmat, emissions.log_likelihoods_batch(sequences)
        )
        for (g_path, g_lj), (w_path, w_lj) in zip(got, want):
            np.testing.assert_array_equal(g_path, w_path)
            assert g_lj == w_lj

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_corpus_log_likelihood_matches_reference(self, seed):
        startprob, transmat, emissions, sequences = random_problem(seed)
        scaled = InferenceEngine(backend="scaled")
        reference = InferenceEngine(backend="log")
        corpus = scaled.compile(sequences)
        scores = corpus.score(emissions)
        got = scaled.log_likelihood_corpus(startprob, transmat, corpus, scores)
        want = reference.log_likelihood_corpus(startprob, transmat, corpus, scores)
        np.testing.assert_allclose(got, want, atol=ATOL, rtol=1e-10)

    def test_corpus_underflow_falls_back_exactly(self):
        # One sequence's forward mass vanishes mid-way (>745-nat spread at a
        # single timestep); the corpus kernels must recompute exactly that
        # sequence with the log-domain reference — bit-identical gamma and
        # likelihood — while the other sequences stay on the fast path.
        startprob = np.array([1.0, 0.0])
        transmat = np.eye(2)
        lengths = (6, 4, 5)
        sequences = [np.zeros(n, dtype=np.int64) for n in lengths]
        scaled = InferenceEngine(backend="scaled")
        reference = InferenceEngine(backend="log")
        corpus = scaled.compile(sequences)
        rng = np.random.default_rng(0)
        scores = -rng.uniform(0.1, 2.0, size=(corpus.n_tokens, 2))
        scores[2] = [-800.0, 0.0]  # timestep 2 of sequence 0

        got = scaled.posteriors_corpus(startprob, transmat, corpus, scores)
        want = reference.posteriors_corpus(startprob, transmat, corpus, scores)
        assert np.isfinite(want.log_likelihoods[0])
        assert got.log_likelihoods[0] == want.log_likelihoods[0]
        np.testing.assert_allclose(
            got.log_likelihoods, want.log_likelihoods, atol=ATOL, rtol=1e-10
        )
        got_parts = corpus.split(got.gamma_concat)
        want_parts = corpus.split(want.gamma_concat)
        np.testing.assert_array_equal(got_parts[0], want_parts[0])
        for g, w in zip(got_parts[1:], want_parts[1:]):
            np.testing.assert_allclose(g, w, atol=ATOL)
        np.testing.assert_allclose(got.start_counts, want.start_counts, atol=ATOL)
        np.testing.assert_allclose(got.xi_sum, want.xi_sum, atol=ATOL)

        got_ll = scaled.log_likelihood_corpus(startprob, transmat, corpus, scores)
        want_ll = reference.log_likelihood_corpus(
            startprob, transmat, corpus, scores
        )
        assert got_ll[0] == want_ll[0]
        np.testing.assert_allclose(got_ll, want_ll, atol=ATOL)


class TestVectorizedMStep:
    def test_categorical_m_step_compiled_matches_loop(self, list_m_step):
        rng = np.random.default_rng(4)
        sequences = [rng.integers(0, 7, size=n) for n in (3, 9, 1, 14)]
        corpus = CompiledCorpus(sequences)
        gammas = [rng.dirichlet(np.ones(5), size=len(s)) for s in sequences]
        loop = CategoricalEmission.random_init(5, 7, seed=0)
        fast = loop.copy()
        list_m_step(loop, sequences, gammas)
        fast.m_step_compiled(corpus, np.concatenate(gammas))
        np.testing.assert_allclose(
            fast.emission_probs, loop.emission_probs, atol=1e-12
        )

    def test_categorical_concat_scoring_matches(self):
        rng = np.random.default_rng(5)
        em = CategoricalEmission.random_init(4, 9, seed=5)
        # Bit-identical to gathering the columns and logging them, on both
        # sides of the gather/log order switch: fewer tokens than symbols
        # gathers first, at least as many logs the table.
        for size in (5, 50):
            concat = rng.integers(0, 9, size=size)
            np.testing.assert_array_equal(
                em.log_likelihoods(concat), safe_log(em.emission_probs[:, concat].T)
            )
        with pytest.raises(ValidationError):
            em.log_likelihoods(np.array([0, 9]))

    def test_bernoulli_m_step_compiled_matches_loop(self, list_m_step):
        rng = np.random.default_rng(6)
        sequences = [
            rng.integers(0, 2, size=(n, 6)).astype(float) for n in (2, 5, 8, 1)
        ]
        corpus = CompiledCorpus(sequences)
        gammas = [rng.dirichlet(np.ones(3), size=len(s)) for s in sequences]
        loop = BernoulliEmission.random_init(3, 6, seed=1)
        fast = loop.copy()
        list_m_step(loop, sequences, gammas)
        fast.m_step_compiled(corpus, np.concatenate(gammas))
        np.testing.assert_allclose(fast.pixel_probs, loop.pixel_probs, atol=1e-12)

    def test_gaussian_m_step_compiled_matches_loop(self, list_m_step):
        rng = np.random.default_rng(7)
        sequences = [rng.normal(size=n) for n in (4, 11, 2)]
        corpus = CompiledCorpus(sequences)
        gammas = [rng.dirichlet(np.ones(3), size=len(s)) for s in sequences]
        loop = GaussianEmission(np.array([0.0, 1.0, 2.0]), np.ones(3))
        fast = loop.copy()
        list_m_step(loop, sequences, gammas)
        fast.m_step_compiled(corpus, np.concatenate(gammas))
        np.testing.assert_allclose(fast.means, loop.means, atol=1e-12)
        np.testing.assert_allclose(fast.variances, loop.variances, atol=1e-12)


class TestTrainerOnCompiledCorpus:
    def test_fit_accepts_precompiled_corpus(self):
        startprob, transmat, emissions, sequences = random_problem(8, lengths=(4, 6, 9, 3))
        engine = InferenceEngine(backend="scaled")
        from_raw = HMM(startprob.copy(), transmat.copy(), emissions.copy())
        from_corpus = HMM(startprob.copy(), transmat.copy(), emissions.copy())
        corpus = engine.compile(sequences)
        r1 = BaumWelchTrainer(max_iter=4, tol=0.0, engine=engine).fit(
            from_raw, sequences
        )
        r2 = BaumWelchTrainer(max_iter=4, tol=0.0, engine=engine).fit(
            from_corpus, corpus
        )
        np.testing.assert_array_equal(r1.history, r2.history)
        np.testing.assert_array_equal(from_raw.transmat, from_corpus.transmat)
        np.testing.assert_array_equal(from_raw.startprob, from_corpus.startprob)

    def test_fit_matches_log_reference_trainer(self):
        startprob, transmat, emissions, sequences = random_problem(9, lengths=(5, 8, 2, 11))
        fast_model = HMM(startprob.copy(), transmat.copy(), emissions.copy())
        ref_model = HMM(startprob.copy(), transmat.copy(), emissions.copy())
        fast = BaumWelchTrainer(
            max_iter=6, tol=0.0, engine=InferenceEngine(backend="scaled")
        ).fit(fast_model, sequences)
        ref = BaumWelchTrainer(
            max_iter=6, tol=0.0, engine=InferenceEngine(backend="log")
        ).fit(ref_model, sequences)
        np.testing.assert_allclose(fast.history, ref.history, rtol=1e-9, atol=1e-8)
        np.testing.assert_allclose(fast_model.transmat, ref_model.transmat, atol=ATOL)
        np.testing.assert_allclose(
            fast_model.emissions.emission_probs,
            ref_model.emissions.emission_probs,
            atol=ATOL,
        )

    def test_model_corpus_helpers(self):
        startprob, transmat, emissions, sequences = random_problem(10)
        model = HMM(startprob, transmat, emissions)
        corpus = model.compile(sequences)
        paths = model.predict_corpus(corpus)
        want_paths = model.predict(sequences)
        for got, want in zip(paths, want_paths):
            np.testing.assert_array_equal(got, want)
        assert abs(model.score_corpus(corpus) - model.score(sequences)) < 1e-8
