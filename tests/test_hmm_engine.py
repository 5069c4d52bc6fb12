"""Equivalence and property tests for the batched scaled-domain engine.

The scaled probability-domain backend must reproduce the log-domain
reference backend — gamma, xi_sum, log-likelihood and Viterbi paths — to
within 1e-8 across random models, including near-deterministic (near-zero
row entries) transition matrices and length-1 sequences.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import (
    InferenceConfig,
    get_inference_config,
    inference_backend,
    set_inference_config,
)
from repro.exceptions import DimensionMismatchError, ReproError, ValidationError
from repro.hmm import (
    HMM,
    BaumWelchTrainer,
    CategoricalEmission,
    InferenceEngine,
    LogDomainBackend,
    ScaledBatchedBackend,
    available_backends,
    build_backend,
)
from repro.hmm.forward_backward import compute_posteriors
from repro.hmm.viterbi import viterbi_decode

ATOL = 1e-8


def path_log_joint(startprob, transmat, log_obs, path):
    """Joint log-probability of a specific state path (deterministic scorer)."""
    from repro.utils.maths import safe_log

    log_pi = safe_log(startprob)
    log_A = safe_log(transmat)
    total = log_pi[path[0]] + log_obs[0, path[0]]
    for t in range(1, len(path)):
        total += log_A[path[t - 1], path[t]] + log_obs[t, path[t]]
    return float(total)


def random_problem(seed, n_states=4, n_symbols=8, concentration=1.0, lengths=(1, 2, 5, 17, 40)):
    """A random categorical HMM plus random sequences of the given lengths."""
    rng = np.random.default_rng(seed)
    emissions = CategoricalEmission(rng.dirichlet(np.ones(n_symbols), size=n_states))
    startprob = rng.dirichlet(np.ones(n_states))
    transmat = rng.dirichlet(np.full(n_states, concentration), size=n_states)
    sequences = [rng.integers(0, n_symbols, size=length) for length in lengths]
    log_obs_seqs = [emissions.log_likelihoods(seq) for seq in sequences]
    return startprob, transmat, log_obs_seqs


def assert_backends_agree(startprob, transmat, log_obs_seqs):
    scaled = InferenceEngine(backend=ScaledBatchedBackend())
    reference = InferenceEngine(backend=LogDomainBackend())

    got = scaled.posteriors_batch(startprob, transmat, log_obs_seqs)
    want = reference.posteriors_batch(startprob, transmat, log_obs_seqs)
    for g, w in zip(got, want):
        np.testing.assert_allclose(g.gamma, w.gamma, atol=ATOL, rtol=0)
        np.testing.assert_allclose(g.xi_sum, w.xi_sum, atol=ATOL, rtol=0)
        assert abs(g.log_likelihood - w.log_likelihood) < ATOL * max(
            1.0, abs(w.log_likelihood)
        )

    got_ll = scaled.log_likelihood_batch(startprob, transmat, log_obs_seqs)
    want_ll = reference.log_likelihood_batch(startprob, transmat, log_obs_seqs)
    np.testing.assert_allclose(got_ll, want_ll, atol=ATOL, rtol=1e-10)

    got_vit = scaled.viterbi_batch(startprob, transmat, log_obs_seqs)
    want_vit = reference.viterbi_batch(startprob, transmat, log_obs_seqs)
    for (g_path, g_lj), (w_path, w_lj), log_obs in zip(got_vit, want_vit, log_obs_seqs):
        # Ties between equally likely paths may break differently across
        # domains, so equivalence means: equal joint log-probability, both
        # for the reported score and for the decoded path re-scored
        # deterministically.
        tol = ATOL * max(1.0, abs(w_lj))
        assert abs(g_lj - w_lj) < tol
        if not np.array_equal(g_path, w_path):
            rescored = path_log_joint(startprob, transmat, log_obs, g_path)
            assert abs(rescored - w_lj) < tol


def _engine_call(method):
    """``call(model, sequences)`` running an engine table-batch method."""

    def call(model, sequences):
        tables = [model.emissions.log_likelihoods(seq) for seq in sequences]
        return getattr(model.inference_engine, method)(
            model.startprob, model.transmat, tables
        )

    return call


class TestScaledMatchesLogReference:
    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_random_models(self, seed):
        assert_backends_agree(*random_problem(seed))

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_near_deterministic_transition_rows(self, seed):
        # Dirichlet concentration 0.02 yields rows with most mass on one
        # entry and the rest within ~1e-12 of zero — the regime where naive
        # probability-domain recursions underflow.
        assert_backends_agree(*random_problem(seed, concentration=0.02))

    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_length_one_sequences(self, seed):
        startprob, transmat, log_obs_seqs = random_problem(seed, lengths=(1, 1, 1))
        assert_backends_agree(startprob, transmat, log_obs_seqs)
        stats = InferenceEngine(backend="scaled").posteriors(
            startprob, transmat, log_obs_seqs[0]
        )
        assert np.allclose(stats.xi_sum, 0.0)
        assert np.allclose(stats.gamma.sum(), 1.0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_shuffling_sequences_permutes_results(self, seed):
        # The packed layout ranks sequences by length, ties in input order;
        # whatever order they arrive in, every result must follow its own
        # sequence exactly.  A shuffle keeps every step's batch size, and
        # each row of every step's work depends on that row alone.
        startprob, transmat, log_obs_seqs = random_problem(
            seed, lengths=(1, 5, 1, 17, 5, 40, 2, 5)
        )
        perm = np.random.default_rng(seed).permutation(len(log_obs_seqs))
        shuffled = [log_obs_seqs[i] for i in perm]
        engine = InferenceEngine(backend="scaled")
        post = engine.posteriors_batch(startprob, transmat, log_obs_seqs)
        post_shuffled = engine.posteriors_batch(startprob, transmat, shuffled)
        lls = engine.log_likelihood_batch(startprob, transmat, log_obs_seqs)
        lls_shuffled = engine.log_likelihood_batch(startprob, transmat, shuffled)
        vit = engine.viterbi_batch(startprob, transmat, log_obs_seqs)
        vit_shuffled = engine.viterbi_batch(startprob, transmat, shuffled)
        for k, i in enumerate(perm):
            np.testing.assert_array_equal(post_shuffled[k].gamma, post[i].gamma)
            np.testing.assert_array_equal(post_shuffled[k].xi_sum, post[i].xi_sum)
            assert post_shuffled[k].log_likelihood == post[i].log_likelihood
            assert lls_shuffled[k] == lls[i]
            np.testing.assert_array_equal(vit_shuffled[k][0], vit[i][0])
            assert vit_shuffled[k][1] == vit[i][1]

    def test_long_skewed_sequences_stay_stable(self):
        rng = np.random.default_rng(3)
        startprob, transmat, _ = random_problem(3, concentration=0.05)
        emissions = CategoricalEmission(rng.dirichlet(np.ones(8) * 0.05, size=4))
        log_obs_seqs = [
            emissions.log_likelihoods(rng.integers(0, 8, size=length))
            for length in (250, 1, 500)
        ]
        assert_backends_agree(startprob, transmat, log_obs_seqs)

    def test_impossible_sequence_reports_minus_inf(self):
        # A timestep where every state has zero likelihood must yield a
        # -inf log-likelihood / Viterbi score, as in the log-domain
        # reference — not the finite value an underflow clamp would imply.
        startprob = np.array([0.6, 0.4])
        transmat = np.array([[0.7, 0.3], [0.2, 0.8]])
        log_obs = np.array([[-0.5, -1.0], [-np.inf, -np.inf], [-0.3, -0.9]])
        engine = InferenceEngine(backend="scaled")
        assert engine.log_likelihood(startprob, transmat, log_obs) == -np.inf
        _, log_joint = engine.viterbi(startprob, transmat, log_obs)
        assert log_joint == -np.inf
        # A possible sequence in the same batch is unaffected.
        fine = np.array([[-0.5, -1.0], [-0.2, -0.4]])
        lls = engine.log_likelihood_batch(startprob, transmat, [log_obs, fine])
        assert lls[0] == -np.inf and np.isfinite(lls[1])

    def test_subnormal_underflow_falls_back_to_log_reference(self):
        # exp(-710) is subnormal-positive: the forward mass is > 0 but below
        # the clamp, which silently distorts the scaled recursion unless the
        # sequence is routed to the log-domain fallback.
        startprob = np.array([1.0, 0.0])
        transmat = np.eye(2)
        log_obs = np.array([[0.0, 0.0], [-710.0, 0.0]])
        scaled = InferenceEngine(backend="scaled")
        reference = InferenceEngine(backend="log")
        got = scaled.log_likelihood(startprob, transmat, log_obs)
        want = reference.log_likelihood(startprob, transmat, log_obs)
        assert abs(got - want) < 1e-8
        got_stats = scaled.posteriors(startprob, transmat, log_obs)
        want_stats = reference.posteriors(startprob, transmat, log_obs)
        np.testing.assert_allclose(got_stats.gamma, want_stats.gamma, atol=ATOL)
        _, got_lj = scaled.viterbi(startprob, transmat, log_obs)
        _, want_lj = reference.viterbi(startprob, transmat, log_obs)
        assert abs(got_lj - want_lj) < 1e-8

    def test_extreme_underflow_falls_back_to_log_reference(self):
        # The probability domain underflows when the per-timestep spread
        # exceeds ~745 nats even though the sequence is possible; such
        # sequences must be recomputed via the log-domain reference, not
        # reported as impossible.
        startprob = np.array([1.0, 0.0])
        transmat = np.eye(2)
        log_obs = np.array([[0.0, 0.0], [-800.0, 0.0]])
        scaled = InferenceEngine(backend="scaled")
        reference = InferenceEngine(backend="log")
        got = scaled.log_likelihood(startprob, transmat, log_obs)
        want = reference.log_likelihood(startprob, transmat, log_obs)
        assert np.isfinite(want)
        assert abs(got - want) < 1e-8
        got_stats = scaled.posteriors(startprob, transmat, log_obs)
        want_stats = reference.posteriors(startprob, transmat, log_obs)
        np.testing.assert_allclose(got_stats.gamma, want_stats.gamma, atol=ATOL)
        np.testing.assert_allclose(got_stats.xi_sum, want_stats.xi_sum, atol=ATOL)
        got_path, got_lj = scaled.viterbi(startprob, transmat, log_obs)
        want_path, want_lj = reference.viterbi(startprob, transmat, log_obs)
        np.testing.assert_array_equal(got_path, want_path)
        assert abs(got_lj - want_lj) < 1e-8

    def test_matches_direct_reference_functions(self):
        startprob, transmat, log_obs_seqs = random_problem(11)
        engine = InferenceEngine(backend="scaled")
        for log_obs in log_obs_seqs:
            ref = compute_posteriors(startprob, transmat, log_obs)
            got = engine.posteriors(startprob, transmat, log_obs)
            np.testing.assert_allclose(got.gamma, ref.gamma, atol=ATOL, rtol=0)
            np.testing.assert_allclose(got.xi_sum, ref.xi_sum, atol=ATOL, rtol=0)
            ref_path, ref_lj = viterbi_decode(startprob, transmat, log_obs)
            got_path, got_lj = engine.viterbi(startprob, transmat, log_obs)
            assert abs(got_lj - ref_lj) < 1e-8
            if not np.array_equal(got_path, ref_path):
                rescored = path_log_joint(startprob, transmat, log_obs, got_path)
                assert abs(rescored - ref_lj) < 1e-8


class TestEmTrainingEquivalence:
    def test_fit_histories_and_parameters_match(self):
        rng = np.random.default_rng(5)
        n_states, n_symbols = 4, 10
        emissions = CategoricalEmission(rng.dirichlet(np.ones(n_symbols), size=n_states))
        startprob = rng.dirichlet(np.ones(n_states))
        transmat = rng.dirichlet(np.ones(n_states), size=n_states)
        sequences = [
            rng.integers(0, n_symbols, size=rng.integers(1, 25)) for _ in range(30)
        ]

        scaled_model = HMM(startprob.copy(), transmat.copy(), emissions.copy())
        log_model = HMM(startprob.copy(), transmat.copy(), emissions.copy())
        scaled_result = BaumWelchTrainer(
            max_iter=6, engine=InferenceEngine(backend="scaled")
        ).fit(scaled_model, sequences)
        log_result = BaumWelchTrainer(
            max_iter=6, engine=InferenceEngine(backend="log")
        ).fit(log_model, sequences)

        np.testing.assert_allclose(
            scaled_result.history, log_result.history, atol=1e-7, rtol=1e-10
        )
        np.testing.assert_allclose(
            scaled_model.transmat, log_model.transmat, atol=ATOL, rtol=0
        )
        np.testing.assert_allclose(
            scaled_model.startprob, log_model.startprob, atol=ATOL, rtol=0
        )


class TestEngineConfiguration:
    def test_default_backend_is_scaled(self):
        assert get_inference_config().backend == "scaled"
        model = HMM(
            np.array([0.5, 0.5]),
            np.array([[0.6, 0.4], [0.3, 0.7]]),
            CategoricalEmission(np.array([[0.8, 0.2], [0.1, 0.9]])),
        )
        assert model.inference_engine.backend_name == "scaled"

    def test_context_manager_switches_backend(self):
        model = HMM(
            np.array([0.5, 0.5]),
            np.array([[0.6, 0.4], [0.3, 0.7]]),
            CategoricalEmission(np.array([[0.8, 0.2], [0.1, 0.9]])),
        )
        with inference_backend("log"):
            assert model.inference_engine.backend_name == "log"
        assert model.inference_engine.backend_name == "scaled"

    def test_set_inference_config_round_trips(self):
        previous = set_inference_config(InferenceConfig(backend="log", long_threshold=8192))
        try:
            assert get_inference_config().backend == "log"
            assert get_inference_config().long_threshold == 8192
        finally:
            set_inference_config(previous)

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValidationError):
            InferenceConfig(backend="gpu")
        with pytest.raises(ValidationError):
            InferenceConfig(decode_window=4096, long_threshold=1024)
        with pytest.raises(ValueError):
            build_backend("nope")

    def test_unknown_backend_is_a_repro_error(self):
        # Both entry points that take a backend name reject an unknown one
        # with the library's own error, so one ``except ReproError`` sees it.
        with pytest.raises(ReproError):
            InferenceEngine(backend="nope")
        with pytest.raises(ReproError):
            InferenceConfig(backend="nope")

    def test_available_backends(self):
        assert set(available_backends()) == {"scaled", "log"}

    def test_explicit_engine_wins_over_config(self):
        engine = InferenceEngine(backend="log")
        model = HMM(
            np.array([0.5, 0.5]),
            np.array([[0.6, 0.4], [0.3, 0.7]]),
            CategoricalEmission(np.array([[0.8, 0.2], [0.1, 0.9]])),
            engine=engine,
        )
        assert model.inference_engine is engine

    def test_parameter_cache_detects_mutation(self):
        # The engine keeps log A and the transposes of A and log A derived
        # from the last parameters it saw; a changed A, passed as a new
        # array or edited in place, must reach every kernel.
        startprob, _, log_obs_seqs = random_problem(2)
        long_table = np.concatenate(log_obs_seqs)

        def outputs(engine, A):
            decoded = engine.viterbi_batch(startprob, A, log_obs_seqs)
            posteriors = engine.posteriors_batch(startprob, A, log_obs_seqs)
            long_res = engine.viterbi_long(startprob, A, long_table, window=16, overlap=4)
            return (
                [path for path, _ in decoded] + [joint for _, joint in decoded]
                + [r.gamma for r in posteriors] + [r.xi_sum for r in posteriors]
                + [engine.log_likelihood_batch(startprob, A, log_obs_seqs)]
                + [long_res.path, long_res.log_joint]
            )

        for backend in ("scaled", "log"):
            for in_place in (False, True):
                transmat = random_problem(2)[1]
                engine = InferenceEngine(backend=backend)
                before = outputs(engine, transmat)
                mutated = transmat if in_place else transmat.copy()
                mutated[0] = np.roll(mutated[0], 1)
                after = outputs(engine, mutated)
                fresh = outputs(InferenceEngine(backend=backend), mutated)
                for got, want in zip(after, fresh, strict=True):
                    np.testing.assert_array_equal(got, want)
                assert not np.allclose(before[-3], after[-3])  # log-likelihoods


class TestBucketing:
    def test_empty_batch_is_fine(self):
        engine = InferenceEngine(backend="scaled")
        assert engine.posteriors_batch(np.array([1.0]), np.array([[1.0]]), []) == []

    @pytest.mark.parametrize("backend", ["scaled", "log"])
    @pytest.mark.parametrize(
        "call, empty",
        [
            pytest.param(lambda m, s: m.predict(s), [], id="HMM.predict"),
            pytest.param(lambda m, s: m.score(s), 0.0, id="HMM.score"),
            pytest.param(lambda m, s: m.posteriors_batch(s), [], id="HMM.posteriors_batch"),
            pytest.param(_engine_call("posteriors_batch"), [], id="engine.posteriors_batch"),
            pytest.param(_engine_call("viterbi_batch"), [], id="engine.viterbi_batch"),
            pytest.param(
                _engine_call("log_likelihood_batch"), [], id="engine.log_likelihood_batch"
            ),
        ],
    )
    def test_empty_batch_and_zero_length_sequence(self, call, empty, backend):
        # A compiled corpus cannot be empty, so every batch entry point
        # short-circuits an empty batch, and a zero-length sequence keeps
        # raising the narrower DimensionMismatchError.
        model = HMM(
            np.array([0.5, 0.5]),
            np.array([[0.6, 0.4], [0.3, 0.7]]),
            CategoricalEmission(np.array([[0.8, 0.2], [0.1, 0.9]])),
            engine=InferenceEngine(backend=backend),
        )
        assert np.array_equal(call(model, []), empty)
        with pytest.raises(DimensionMismatchError):
            call(model, [np.array([0, 1]), np.array([], dtype=np.int64)])

    def test_mismatched_observation_table_raises(self):
        engine = InferenceEngine(backend="scaled")
        with pytest.raises(DimensionMismatchError):
            engine.posteriors_batch(
                np.array([0.5, 0.5]),
                np.array([[0.5, 0.5], [0.5, 0.5]]),
                [np.zeros((4, 3))],
            )

    def test_mismatched_parameters_raise_like_the_reference(self):
        # Both backends must raise the library's DimensionMismatchError for
        # a transition matrix that disagrees with the start distribution,
        # not a raw numpy broadcasting error.
        startprob = np.full(3, 1.0 / 3.0)
        transmat = np.full((2, 2), 0.5)
        tables = [np.zeros((4, 3))]
        for backend in ("scaled", "log"):
            with pytest.raises(DimensionMismatchError):
                InferenceEngine(backend=backend).posteriors_batch(
                    startprob, transmat, tables
                )
