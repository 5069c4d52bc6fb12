"""Property and regression tests for the packed time-major corpus kernels.

The scaled backend runs every corpus kernel over the corpus'
:class:`~repro.hmm.corpus.PackedPlan`: sequences ranked longest first, each
recursion step one slice of the rows still active.  Whatever the length
profile — many length-1 sequences, ties, all lengths equal, a single
sequence, sequences routed to the long-sequence kernels — the results must
be the log-domain reference's: posteriors, transition counts and
likelihoods to 1e-8, Viterbi paths and joint log-probabilities bit for bit,
ties included.  A sequence the probability domain cannot represent is
recomputed with the reference, and sequences that can stay on the fast
path.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.hmm.backends as backends
from benchmarks.conftest import OCR_BENCH_SETTINGS, POS_BENCH_SETTINGS
from repro.core.config import InferenceConfig, get_inference_config, set_inference_config
from repro.datasets.ocr import generate_ocr_dataset
from repro.datasets.pos import generate_wsj_like_corpus
from repro.hmm import (
    HMM,
    BaumWelchTrainer,
    BernoulliEmission,
    CategoricalEmission,
    GaussianEmission,
    InferenceEngine,
)

ATOL = 1e-8

#: Length profiles the packed layout must handle.
LENGTHS = st.one_of(
    st.lists(st.integers(1, 2), min_size=1, max_size=12),  # mostly length 1
    st.lists(st.sampled_from([1, 3, 3, 7, 7, 7]), min_size=1, max_size=12),  # ties
    st.tuples(st.integers(1, 30), st.integers(1, 8)).map(lambda p: [p[0]] * p[1]),
    st.integers(1, 60).map(lambda n: [n]),  # a single sequence
    st.lists(st.integers(1, 40), min_size=1, max_size=10),  # ragged
)


def random_model(rng, n_states, ties):
    """``(pi, A)``; with ``ties`` uniform, so every Viterbi step ties."""
    if ties:
        uniform = np.full(n_states, 1.0 / n_states)
        return uniform, np.tile(uniform, (n_states, 1))
    return (
        rng.dirichlet(np.ones(n_states)),
        rng.dirichlet(np.full(n_states, 0.5), size=n_states),
    )


def random_tables(rng, lengths, n_states, ties):
    """Emission log-likelihood tables; with ``ties`` drawn from two values."""
    if ties:
        return [rng.choice([-1.0, -2.0], size=(n, n_states)) for n in lengths]
    return [rng.normal(-3.0, 2.0, size=(n, n_states)) for n in lengths]


def assert_matches_reference(startprob, transmat, tables, exact_viterbi=None):
    scaled = InferenceEngine(backend="scaled")
    reference = InferenceEngine(backend="log")

    got = scaled.posteriors_batch(startprob, transmat, tables)
    want = reference.posteriors_batch(startprob, transmat, tables)
    assert len(got) == len(want) == len(tables)
    for g, w in zip(got, want):
        np.testing.assert_allclose(g.gamma, w.gamma, atol=ATOL, rtol=0)
        np.testing.assert_allclose(g.xi_sum, w.xi_sum, atol=ATOL, rtol=0)
        assert g.log_likelihood == pytest.approx(w.log_likelihood, rel=1e-12, abs=ATOL)

    corpus = scaled.compile(tables)
    scores = corpus.concat
    stats = scaled.posteriors_corpus(startprob, transmat, corpus, scores)
    ref_stats = reference.posteriors_corpus(startprob, transmat, corpus, scores)
    np.testing.assert_allclose(stats.gamma_concat, ref_stats.gamma_concat, atol=ATOL)
    np.testing.assert_allclose(stats.xi_sum, ref_stats.xi_sum, atol=ATOL)
    np.testing.assert_allclose(stats.start_counts, ref_stats.start_counts, atol=ATOL)

    got_ll = scaled.log_likelihood_batch(startprob, transmat, tables)
    want_ll = reference.log_likelihood_batch(startprob, transmat, tables)
    np.testing.assert_allclose(got_ll, want_ll, rtol=1e-12, atol=ATOL)

    got_vit = scaled.viterbi_batch(startprob, transmat, tables)
    want_vit = reference.viterbi_batch(startprob, transmat, tables)
    for j, ((g_path, g_lj), (w_path, w_lj)) in enumerate(zip(got_vit, want_vit)):
        if exact_viterbi is None or exact_viterbi[j]:
            np.testing.assert_array_equal(g_path, w_path)
            assert g_lj == w_lj
        else:
            # Chunked long-sequence decode: exact re-scored joint of a path
            # at least as likely as any the windows could stitch.
            assert g_lj == pytest.approx(w_lj, rel=1e-9)


class TestPackedMatchesReference:
    @given(
        lengths=LENGTHS,
        n_states=st.integers(1, 45),
        ties=st.booleans(),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_ragged_corpora(self, lengths, n_states, ties, seed):
        rng = np.random.default_rng(seed)
        startprob, transmat = random_model(rng, n_states, ties)
        tables = random_tables(rng, lengths, n_states, ties)
        assert_matches_reference(startprob, transmat, tables)

    @given(
        lengths=st.lists(st.integers(1, 40), min_size=1, max_size=6),
        n_long=st.integers(1, 2),
        n_states=st.integers(1, 6),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=10, deadline=None)
    def test_mixed_with_long_sequences(self, lengths, n_long, n_states, seed):
        # Sequences past long_threshold leave the packed plan for the
        # long-sequence kernels; the rest of the corpus packs as usual.
        rng = np.random.default_rng(seed)
        startprob, transmat = random_model(rng, n_states, ties=False)
        all_lengths = list(lengths) + [int(rng.integers(65, 200)) for _ in range(n_long)]
        rng.shuffle(all_lengths)
        tables = random_tables(rng, all_lengths, n_states, ties=False)
        previous = set_inference_config(
            InferenceConfig(decode_window=64, decode_overlap=8, long_threshold=64)
        )
        try:
            corpus = InferenceEngine().compile(tables)
            assert len(corpus.long_windows) == n_long
            assert corpus.packed.order.size == len(lengths)
            assert_matches_reference(
                startprob, transmat, tables, exact_viterbi=[n <= 64 for n in all_lengths]
            )
        finally:
            set_inference_config(previous)

    def test_all_sequences_long_leaves_an_empty_plan(self):
        rng = np.random.default_rng(0)
        startprob, transmat = random_model(rng, 3, ties=False)
        tables = random_tables(rng, [80, 90], 3, ties=False)
        previous = set_inference_config(
            InferenceConfig(decode_window=64, decode_overlap=8, long_threshold=64)
        )
        try:
            assert InferenceEngine().compile(tables).packed.n_rows == 0
            assert_matches_reference(startprob, transmat, tables, exact_viterbi=[False] * 2)
        finally:
            set_inference_config(previous)


def left_to_right_problem(length=2000):
    """A 3-state left-to-right chain whose backward message overflows.

    The data sit at the first state's mean, then the last state's, then
    the first's again, which the absorbing last state cannot revisit.
    """
    startprob = np.array([1.0, 0.0, 0.0])
    transmat = np.array([[0.9, 0.1, 0.0], [0.0, 0.9, 0.1], [0.0, 0.0, 1.0]])
    emissions = GaussianEmission(np.array([0.0, 3.0, 6.0]), np.ones(3))
    rng = np.random.default_rng(0)
    head = 10
    middle = length // 2 - head
    y = np.concatenate(
        [
            rng.normal(0.0, 1.0, head),
            rng.normal(6.0, 1.0, middle),
            rng.normal(0.0, 1.0, length - head - middle),
        ]
    )
    return startprob, transmat, emissions.log_likelihoods(y)


class TestNonFinitePosteriorRepair:
    def test_backward_overflow_matches_log_reference(self):
        # The probability-domain backward message overflows on this input:
        # the posterior rows come out non-finite.  The sequence must be
        # recomputed with the log-domain reference, as the long path does,
        # and no floating-point warning may escape.
        startprob, transmat, table = left_to_right_problem()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = InferenceEngine(backend="scaled").posteriors_batch(
                startprob, transmat, [table]
            )[0]
        want = InferenceEngine(backend="log").posteriors_batch(
            startprob, transmat, [table]
        )[0]
        assert np.isfinite(want.log_likelihood)
        np.testing.assert_allclose(got.gamma, want.gamma, atol=ATOL, rtol=0)
        np.testing.assert_allclose(got.xi_sum, want.xi_sum, atol=ATOL, rtol=0)
        assert got.log_likelihood == pytest.approx(want.log_likelihood, abs=ATOL)

    def test_repaired_sequence_stays_out_of_xi_sum(self):
        # Beside healthy sequences, only the failed one is recomputed; the
        # corpus totals equal the reference's, so none of the failed
        # sequence's probability-domain rows reached xi_sum.
        startprob, transmat, table = left_to_right_problem(length=400)
        rng = np.random.default_rng(1)
        healthy = [
            GaussianEmission(np.array([0.0, 3.0, 6.0]), np.ones(3)).log_likelihoods(
                rng.normal(0.0, 1.0, n)
            )
            for n in (5, 400, 1, 37)
        ]
        tables = healthy[:2] + [table] + healthy[2:]
        scaled = InferenceEngine(backend="scaled")
        reference = InferenceEngine(backend="log")
        corpus = scaled.compile(tables)
        calls = []
        original = backends.compute_posteriors_from_log

        def spy(*args, **kwargs):
            calls.append(args[2].shape[0])
            return original(*args, **kwargs)

        backends.compute_posteriors_from_log = spy
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = scaled.posteriors_corpus(startprob, transmat, corpus, corpus.concat)
        finally:
            backends.compute_posteriors_from_log = original
        want = reference.posteriors_corpus(startprob, transmat, corpus, corpus.concat)
        assert calls == [table.shape[0]]
        np.testing.assert_allclose(got.gamma_concat, want.gamma_concat, atol=ATOL)
        np.testing.assert_allclose(got.xi_sum, want.xi_sum, atol=ATOL)
        np.testing.assert_allclose(got.start_counts, want.start_counts, atol=ATOL)
        np.testing.assert_allclose(got.log_likelihoods, want.log_likelihoods, atol=ATOL)


class TestNoFalseRepairs:
    """The log-domain repair costs a reference pass per sequence, so it must
    not trigger on the benchmark workloads."""

    @pytest.fixture
    def repair_calls(self, monkeypatch):
        calls = []
        for name in ("compute_posteriors_from_log", "log_forward"):
            original = getattr(backends, name)

            def spy(*args, _original=original, _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(backends, name, spy)
        return calls

    def test_pos_bench_fixture(self, repair_calls):
        data = generate_wsj_like_corpus(seed=0, **POS_BENCH_SETTINGS)
        rng = np.random.default_rng(1)
        model = HMM(
            rng.dirichlet(np.ones(data.n_tags)),
            rng.dirichlet(np.ones(data.n_tags), size=data.n_tags),
            CategoricalEmission.random_init(data.n_tags, data.vocabulary_size, seed=1),
        )
        engine = InferenceEngine(backend="scaled")
        corpus = engine.compile(data.words)
        BaumWelchTrainer(engine=engine, max_iter=5, tol=0.0).fit(model, corpus)
        engine.log_likelihood_corpus(
            model.startprob, model.transmat, corpus, corpus.score(model.emissions)
        )
        assert get_inference_config().backend == "scaled"
        assert repair_calls == []

    def test_ocr_bench_fixture(self, repair_calls):
        data = generate_ocr_dataset(seed=0, **OCR_BENCH_SETTINGS)
        sequences = [np.asarray(word, dtype=np.float64) for word in data.images]
        n_states, n_pixels = 26, sequences[0].shape[1]
        rng = np.random.default_rng(2)
        model = HMM(
            rng.dirichlet(np.ones(n_states)),
            rng.dirichlet(np.ones(n_states), size=n_states),
            BernoulliEmission.random_init(n_states, n_pixels, seed=2),
        )
        engine = InferenceEngine(backend="scaled")
        corpus = engine.compile(sequences)
        BaumWelchTrainer(engine=engine, max_iter=5, tol=0.0).fit(model, corpus)
        engine.log_likelihood_corpus(
            model.startprob, model.transmat, corpus, corpus.score(model.emissions)
        )
        assert repair_calls == []
