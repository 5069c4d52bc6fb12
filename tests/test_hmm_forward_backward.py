"""Unit tests for log-space forward-backward inference.

Correctness is checked against brute-force enumeration of all hidden state
paths on small models, which is exact.
"""

import itertools

import numpy as np
import pytest

from repro.exceptions import DimensionMismatchError
from repro.hmm.forward_backward import (
    compute_posteriors,
    compute_posteriors_from_log,
    log_backward,
    log_forward,
    sequence_log_likelihood,
)
from repro.utils.maths import safe_log


def brute_force_likelihood(startprob, transmat, obs_probs):
    """Exact P(Y) by summing over every hidden path."""
    T, K = obs_probs.shape
    total = 0.0
    for path in itertools.product(range(K), repeat=T):
        p = startprob[path[0]] * obs_probs[0, path[0]]
        for t in range(1, T):
            p *= transmat[path[t - 1], path[t]] * obs_probs[t, path[t]]
        total += p
    return total


def brute_force_gamma(startprob, transmat, obs_probs):
    """Exact posterior marginals by enumeration."""
    T, K = obs_probs.shape
    gamma = np.zeros((T, K))
    for path in itertools.product(range(K), repeat=T):
        p = startprob[path[0]] * obs_probs[0, path[0]]
        for t in range(1, T):
            p *= transmat[path[t - 1], path[t]] * obs_probs[t, path[t]]
        for t, state in enumerate(path):
            gamma[t, state] += p
    return gamma / gamma.sum(axis=1, keepdims=True)


@pytest.fixture
def small_model():
    startprob = np.array([0.6, 0.4])
    transmat = np.array([[0.7, 0.3], [0.2, 0.8]])
    obs_probs = np.array([[0.9, 0.2], [0.1, 0.7], [0.5, 0.5], [0.8, 0.3]])
    return startprob, transmat, obs_probs


class TestForwardBackward:
    def test_likelihood_matches_brute_force(self, small_model):
        startprob, transmat, obs_probs = small_model
        expected = brute_force_likelihood(startprob, transmat, obs_probs)
        ll = sequence_log_likelihood(startprob, transmat, safe_log(obs_probs))
        assert np.isclose(ll, np.log(expected))

    def test_gamma_matches_brute_force(self, small_model):
        startprob, transmat, obs_probs = small_model
        stats = compute_posteriors(startprob, transmat, safe_log(obs_probs))
        expected = brute_force_gamma(startprob, transmat, obs_probs)
        assert np.allclose(stats.gamma, expected, atol=1e-10)

    def test_gamma_rows_sum_to_one(self, small_model):
        startprob, transmat, obs_probs = small_model
        stats = compute_posteriors(startprob, transmat, safe_log(obs_probs))
        assert np.allclose(stats.gamma.sum(axis=1), 1.0)

    def test_xi_sum_is_consistent_with_gamma(self, small_model):
        # Summing the pairwise posteriors over the second index must give the
        # unary posterior of the earlier position (for t = 1..T-1).
        startprob, transmat, obs_probs = small_model
        stats = compute_posteriors(startprob, transmat, safe_log(obs_probs))
        T = obs_probs.shape[0]
        assert np.isclose(stats.xi_sum.sum(), T - 1)
        # Each pairwise slice marginalizes to gammas; the accumulated sum
        # therefore marginalizes to the summed gammas excluding endpoints.
        assert np.allclose(stats.xi_sum.sum(axis=1), stats.gamma[:-1].sum(axis=0), atol=1e-8)
        assert np.allclose(stats.xi_sum.sum(axis=0), stats.gamma[1:].sum(axis=0), atol=1e-8)

    def test_long_sequence_is_numerically_stable(self):
        rng = np.random.default_rng(0)
        K, T = 5, 500
        startprob = np.full(K, 1.0 / K)
        transmat = rng.dirichlet(np.ones(K), size=K)
        log_obs = safe_log(rng.dirichlet(np.ones(K), size=T))
        stats = compute_posteriors(startprob, transmat, log_obs)
        assert np.isfinite(stats.log_likelihood)
        assert np.all(np.isfinite(stats.gamma))

    def test_single_step_sequence(self):
        startprob = np.array([0.3, 0.7])
        transmat = np.array([[0.5, 0.5], [0.5, 0.5]])
        obs = np.array([[0.4, 0.6]])
        stats = compute_posteriors(startprob, transmat, safe_log(obs))
        expected = startprob * obs[0]
        expected /= expected.sum()
        assert np.allclose(stats.gamma[0], expected)
        assert np.allclose(stats.xi_sum, 0.0)

    def test_forward_backward_message_shapes(self, small_model):
        startprob, transmat, obs_probs = small_model
        log_obs = safe_log(obs_probs)
        alpha = log_forward(safe_log(startprob), safe_log(transmat), log_obs)
        beta = log_backward(safe_log(transmat), log_obs)
        assert alpha.shape == obs_probs.shape
        assert beta.shape == obs_probs.shape
        assert np.allclose(beta[-1], 0.0)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(DimensionMismatchError):
            log_forward(np.zeros(2), np.zeros((3, 3)), np.zeros((4, 2)))
        with pytest.raises(DimensionMismatchError):
            log_backward(np.zeros((3, 3)), np.zeros((4, 2)))

    @pytest.mark.parametrize("n_states", [2, 8, 16, 45])
    def test_layout_of_log_transmat_does_not_change_the_bits(self, n_states):
        # The long-sequence decoder passes log A as a transposed view (an
        # F-ordered array); the reference must round exactly as for C order.
        rng = np.random.default_rng(n_states)
        for _ in range(20):
            log_pi = np.log(rng.dirichlet(np.ones(n_states)))
            log_A = np.log(rng.dirichlet(np.ones(n_states), size=n_states))
            log_obs = rng.normal(size=(30, n_states))
            fortran = np.asfortranarray(log_A)
            c_order = compute_posteriors_from_log(log_pi, log_A, log_obs)
            f_order = compute_posteriors_from_log(log_pi, fortran, log_obs)
            assert np.array_equal(c_order.gamma, f_order.gamma)
            assert np.array_equal(c_order.xi_sum, f_order.xi_sum)
            assert c_order.log_likelihood == f_order.log_likelihood
            assert np.array_equal(
                log_forward(log_pi, log_A, log_obs), log_forward(log_pi, fortran, log_obs)
            )
            assert np.array_equal(log_backward(log_A, log_obs), log_backward(fortran, log_obs))
