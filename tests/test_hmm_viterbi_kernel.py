"""Hard-path tests for the fused batched Viterbi kernel.

The fused kernel runs the Viterbi recursion in the log domain with the same
elementary operations (broadcast add against ``log A``, first-index argmax
over source states) as :func:`repro.hmm.viterbi.viterbi_decode_from_log`,
so decoded paths must be *bit-identical* to the log reference — including
on deliberately tie-heavy models, where a probability-domain kernel could
legitimately break ties differently.  The ``_TINY`` underflow fallback of
the forward-backward path must likewise reproduce the reference exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.hmm.backends as backends
from repro.exceptions import ValidationError
from repro.hmm import (
    CategoricalEmission,
    InferenceEngine,
    ModelParams,
    ScaledBatchedBackend,
    viterbi_backpointer_dtype,
)
from repro.hmm.viterbi import viterbi_decode, viterbi_decode_from_log
from repro.utils.maths import safe_log


def _engines():
    return InferenceEngine(backend="scaled"), InferenceEngine(backend="log")


class TestViterbiTieBreaking:
    def test_uniform_model_decodes_all_zeros_in_both_backends(self):
        # Fully uniform model: every path ties, so the decoded path is
        # determined purely by tie-breaking (first index wins everywhere).
        k = 4
        startprob = np.full(k, 1.0 / k)
        transmat = np.full((k, k), 1.0 / k)
        emissions = CategoricalEmission(np.full((k, 6), 1.0 / 6))
        sequences = [np.array([0, 3, 1, 5, 2]), np.array([1]), np.array([2, 2, 4] * 7)]
        tables = emissions.log_likelihoods_batch(sequences)
        scaled, reference = _engines()
        got = scaled.viterbi_batch(startprob, transmat, tables)
        want = reference.viterbi_batch(startprob, transmat, tables)
        for (g_path, g_lj), (w_path, w_lj) in zip(got, want):
            np.testing.assert_array_equal(g_path, np.zeros_like(g_path))
            np.testing.assert_array_equal(g_path, w_path)
            assert g_lj == w_lj

    def test_duplicate_states_tie_break_identically(self):
        # Two pairs of interchangeable states (identical emission rows,
        # identical transition rows): the argmax sees exact ties between
        # them at every timestep in both backends.
        rng = np.random.default_rng(0)
        base = rng.dirichlet(np.ones(5), size=2)
        emissions = CategoricalEmission(np.vstack([base[0], base[0], base[1], base[1]]))
        startprob = np.full(4, 0.25)
        transmat = np.tile(np.array([[0.3, 0.3, 0.2, 0.2]]), (4, 1))
        sequences = [rng.integers(0, 5, size=n) for n in (1, 4, 9, 30, 2)]
        tables = emissions.log_likelihoods_batch(sequences)
        scaled, reference = _engines()
        got = scaled.viterbi_batch(startprob, transmat, tables)
        want = reference.viterbi_batch(startprob, transmat, tables)
        for (g_path, g_lj), (w_path, w_lj) in zip(got, want):
            np.testing.assert_array_equal(g_path, w_path)
            assert g_lj == w_lj
            # the tie must resolve to the lower-indexed state of each pair
            assert set(np.unique(g_path)).issubset({0, 2})

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_random_models_decode_bit_identically(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 6))
        emissions = CategoricalEmission(rng.dirichlet(np.ones(7), size=k))
        startprob = rng.dirichlet(np.ones(k))
        transmat = rng.dirichlet(np.ones(k), size=k)
        sequences = [rng.integers(0, 7, size=n) for n in (1, 2, 5, 17, 40)]
        tables = emissions.log_likelihoods_batch(sequences)
        scaled, reference = _engines()
        got = scaled.viterbi_batch(startprob, transmat, tables)
        want = reference.viterbi_batch(startprob, transmat, tables)
        for (g_path, g_lj), (w_path, w_lj), table in zip(got, want, tables):
            np.testing.assert_array_equal(g_path, w_path)
            assert g_lj == w_lj
        # and both match the standalone reference decoder
        for (g_path, g_lj), table in zip(got, tables):
            ref_path, ref_lj = viterbi_decode(startprob, transmat, table)
            np.testing.assert_array_equal(g_path, ref_path)
            assert g_lj == ref_lj

    def test_window_bucket_decodes_bit_identically(self):
        # The window-group kernel decodes a bucket of equal-length windows
        # (the long-sequence decoder's groups) row by row exactly as the
        # reference decodes each window alone, and its paths are rows of
        # one array, not per-window copies.
        rng = np.random.default_rng(3)
        k = 3
        startprob = rng.dirichlet(np.ones(k))
        transmat = rng.dirichlet(np.ones(k), size=k)
        windows = rng.normal(-2.0, 1.5, size=(5, 9, k))
        backend = InferenceEngine(backend="scaled").backend
        params = ModelParams(startprob, transmat)
        got = backend._viterbi_bucket(
            params.log_startprob, params.log_transmat_T, windows.transpose(1, 0, 2)
        )
        assert len(got) == windows.shape[0]
        assert got[0][0].base is got[1][0].base is not None
        assert backend.last_backpointer_dtype == np.uint8
        for (g_path, g_lj), window in zip(got, windows):
            w_path, w_lj = viterbi_decode(startprob, transmat, window)
            np.testing.assert_array_equal(g_path, w_path)
            assert g_lj == w_lj


#: Rows per tile of the packed kernel's step buffer: every active row in
#: one tile (the lean step), half of them (two tiles), or one row per tile.
TILINGS = ("lean", "two", "one")

#: Ragged corpora, equal-length window groups, single sequences.
SHAPES = st.one_of(
    st.tuples(st.just("ragged"), st.lists(st.integers(1, 25), min_size=1, max_size=12)),
    st.tuples(
        st.just("group"),
        st.tuples(st.integers(1, 20), st.integers(1, 12)).map(lambda p: [p[0]] * p[1]),
    ),
    st.tuples(st.just("single"), st.integers(1, 40).map(lambda n: [n])),
)


class TestOneKernel:
    """The packed kernel decodes corpora, requests and window groups alike."""

    @given(
        shape=SHAPES,
        n_states=st.integers(1, 8),
        ties=st.booleans(),
        tiling=st.sampled_from(TILINGS),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_tiling_matches_the_reference(self, shape, n_states, ties, tiling, seed):
        kind, lengths = shape
        rng = np.random.default_rng(seed)
        if ties:
            # Uniform model and two-valued emissions: every step ties.
            startprob = np.full(n_states, 1.0 / n_states)
            transmat = np.full((n_states, n_states), 1.0 / n_states)
            tables = [rng.choice([-1.0, -2.0], size=(n, n_states)) for n in lengths]
        else:
            startprob = rng.dirichlet(np.ones(n_states))
            transmat = rng.dirichlet(np.full(n_states, 0.5), size=n_states)
            tables = [rng.normal(-3.0, 2.0, size=(n, n_states)) for n in lengths]
        log_pi, log_A = safe_log(startprob), safe_log(transmat)
        want = [viterbi_decode_from_log(log_pi, log_A, table) for table in tables]

        rows = {"lean": len(lengths), "two": -(-len(lengths) // 2), "one": 1}[tiling]
        backend = ScaledBatchedBackend()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(backends, "_VITERBI_TILE_BYTES", 8 * n_states * n_states * rows)
            if kind == "group":
                got = backend._viterbi_bucket(
                    log_pi, np.ascontiguousarray(log_A.T), np.stack(tables, axis=1)
                )
            else:
                got = InferenceEngine(backend=backend).viterbi_batch(
                    startprob, transmat, tables
                )
        assert len(got) == len(want)
        for (g_path, g_lj), (w_path, w_lj) in zip(got, want):
            np.testing.assert_array_equal(g_path, w_path)
            assert g_lj == w_lj


class TestUnderflowFallback:
    def test_long_low_probability_sequence_matches_reference_exactly(self):
        # A long low-probability sequence whose forward mass vanishes at one
        # timestep (>745-nat spread underflows the probability domain even
        # though the sequence is possible) must be recomputed with the
        # log-domain reference and match it bit-for-bit, while an ordinary
        # sequence in the same bucket stays on the fast path.
        startprob = np.array([1.0, 0.0])
        transmat = np.eye(2)
        hard = np.full((150, 2), [-5.0, -750.0])
        hard[75] = [-800.0, 0.0]
        fine = np.full((149, 2), [-1.0, -2.0])
        tables = [hard, fine]
        scaled, reference = _engines()

        got = scaled.posteriors_batch(startprob, transmat, tables)
        want = reference.posteriors_batch(startprob, transmat, tables)
        assert np.isfinite(want[0].log_likelihood)
        # the underflowed sequence is recomputed by the reference recursion
        np.testing.assert_array_equal(got[0].gamma, want[0].gamma)
        np.testing.assert_array_equal(got[0].xi_sum, want[0].xi_sum)
        assert got[0].log_likelihood == want[0].log_likelihood
        # the healthy bucket-mate stays on the scaled fast path, within atol
        np.testing.assert_allclose(got[1].gamma, want[1].gamma, atol=1e-8)
        assert abs(got[1].log_likelihood - want[1].log_likelihood) < 1e-8

        got_ll = scaled.log_likelihood_batch(startprob, transmat, tables)
        want_ll = reference.log_likelihood_batch(startprob, transmat, tables)
        assert got_ll[0] == want_ll[0]
        assert abs(got_ll[1] - want_ll[1]) < 1e-8

        # Viterbi runs in the log domain: bit-identical with no fallback.
        got_v = scaled.viterbi_batch(startprob, transmat, tables)
        want_v = reference.viterbi_batch(startprob, transmat, tables)
        for (g_path, g_lj), (w_path, w_lj) in zip(got_v, want_v):
            np.testing.assert_array_equal(g_path, w_path)
            assert g_lj == w_lj

    def test_impossible_timestep_matches_reference_exactly(self):
        # A timestep where every state is impossible (-inf row): -inf
        # likelihood and Viterbi score, exactly as the reference reports.
        startprob = np.array([0.6, 0.4])
        transmat = np.array([[0.7, 0.3], [0.2, 0.8]])
        log_obs = np.array([[-0.5, -1.0], [-np.inf, -np.inf], [-0.3, -0.9]])
        scaled, reference = _engines()
        got = scaled.posteriors(startprob, transmat, log_obs)
        want = reference.posteriors(startprob, transmat, log_obs)
        assert got.log_likelihood == want.log_likelihood == -np.inf
        np.testing.assert_array_equal(got.gamma, want.gamma)
        got_path, got_lj = scaled.viterbi(startprob, transmat, log_obs)
        want_path, want_lj = reference.viterbi(startprob, transmat, log_obs)
        np.testing.assert_array_equal(got_path, want_path)
        assert got_lj == want_lj == -np.inf


class TestBackpointerDtype:
    @pytest.mark.parametrize(
        "n_states, expected",
        [
            (1, np.uint8),
            (2, np.uint8),
            (256, np.uint8),
            (257, np.uint16),
            (65_536, np.uint16),
            (65_537, np.int64),
        ],
    )
    def test_smallest_dtype_that_fits(self, n_states, expected):
        assert viterbi_backpointer_dtype(n_states) == np.dtype(expected)

    def test_rejects_non_positive_state_counts(self):
        with pytest.raises(ValidationError):
            viterbi_backpointer_dtype(0)

    def test_paths_survive_small_dtype_round_trip(self):
        # 300 states forces uint16 backpointers; decoding must still agree
        # with the log reference bit-for-bit.
        rng = np.random.default_rng(11)
        k = 300
        startprob = rng.dirichlet(np.ones(k))
        transmat = rng.dirichlet(np.ones(k), size=k)
        tables = [rng.normal(size=(n, k)) for n in (1, 4, 7)]
        scaled, reference = _engines()
        got = scaled.viterbi_batch(startprob, transmat, tables)
        want = reference.viterbi_batch(startprob, transmat, tables)
        for (g_path, g_lj), (w_path, w_lj) in zip(got, want):
            assert g_path.max() < k
            np.testing.assert_array_equal(g_path, w_path)
            assert g_lj == w_lj
