"""Unit tests for the DPP log-det prior and its gradient."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.dpp.log_det import (
    _factorize_psd,
    _inverse_from_factor,
    _log_det_from_factor,
    dpp_log_prior,
    dpp_log_prior_and_gradient,
    dpp_log_prior_gradient,
    log_det_psd,
    paper_closed_form_gradient,
)
from repro.exceptions import ValidationError
from repro.optim.simplex import project_rows_to_simplex


def finite_difference_gradient(A, rho, eps=1e-6):
    fd = np.zeros_like(A)
    for i in range(A.shape[0]):
        for j in range(A.shape[1]):
            Ap = A.copy()
            Am = A.copy()
            Ap[i, j] += eps
            Am[i, j] -= eps
            fd[i, j] = (dpp_log_prior(Ap, rho=rho) - dpp_log_prior(Am, rho=rho)) / (2 * eps)
    return fd


class TestLogDetPsd:
    def test_identity_has_zero_logdet(self):
        assert np.isclose(log_det_psd(np.eye(4)), 0.0)

    def test_matches_slogdet_for_spd(self):
        rng = np.random.default_rng(0)
        M = rng.normal(size=(5, 5))
        K = M @ M.T + np.eye(5)
        assert np.isclose(log_det_psd(K), np.linalg.slogdet(K)[1])

    def test_semidefinite_falls_back_gracefully(self):
        K = np.ones((3, 3))  # rank one
        value = log_det_psd(K)
        assert np.isfinite(value)
        assert value < -100  # essentially log(0)

    def test_jitter_regularizes(self):
        K = np.ones((2, 2))
        assert log_det_psd(K, jitter=0.5) > log_det_psd(K)

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            log_det_psd(np.ones((2, 3)))


def _force_eigh_fallback(monkeypatch):
    """Make every Cholesky factorization fail, as on a singular kernel."""

    def no_cholesky(matrix):
        raise np.linalg.LinAlgError("forced")

    monkeypatch.setattr(np.linalg, "cholesky", no_cholesky)


class TestPsdLogDetAndInverse:
    """The one factorization behind the prior's value and gradient."""

    def test_single_factorization_matches_separate_computations(self):
        rng = np.random.default_rng(1)
        M = rng.normal(size=(6, 6))
        K = M @ M.T + np.eye(6)
        kind, factor = _factorize_psd(K)
        assert kind == "cholesky"
        inverse = _inverse_from_factor(kind, factor)
        assert np.isclose(_log_det_from_factor(kind, factor), np.linalg.slogdet(K)[1])
        assert np.allclose(inverse, np.linalg.inv(K), atol=1e-10)
        # Cholesky-derived inverse of an SPD matrix is symmetric.
        assert np.allclose(inverse, inverse.T)

    @pytest.mark.parametrize("seed", range(10))
    def test_eigh_fallback_matches_cholesky_gradient(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        n_states = int(rng.integers(3, 9))
        A = rng.dirichlet(np.ones(n_states), size=n_states)
        value, grad = dpp_log_prior_and_gradient(A, rho=0.5)
        _force_eigh_fallback(monkeypatch)
        fallback_value, fallback_grad = dpp_log_prior_and_gradient(A, rho=0.5)
        assert abs(fallback_value - value) < 1e-8
        np.testing.assert_allclose(
            fallback_grad, grad, rtol=0, atol=1e-8 * np.abs(grad).max()
        )

    def test_semidefinite_fallback_is_finite(self, monkeypatch):
        # Duplicate rows make the unjittered kernel exactly singular.
        A = np.array([[0.5, 0.3, 0.2], [0.5, 0.3, 0.2], [0.1, 0.1, 0.8]])
        _force_eigh_fallback(monkeypatch)
        value, grad = dpp_log_prior_and_gradient(A, rho=0.5, jitter=0.0)
        assert np.isfinite(value)
        assert np.all(np.isfinite(grad))

    def test_combined_prior_matches_separate_prior_and_gradient(self):
        rng = np.random.default_rng(2)
        A = rng.dirichlet(np.ones(5) * 2.0, size=5)
        value, grad = dpp_log_prior_and_gradient(A, rho=0.5)
        assert np.isclose(value, dpp_log_prior(A, rho=0.5))
        assert np.allclose(grad, dpp_log_prior_gradient(A, rho=0.5))

    def test_combined_prior_consistent_with_exact_zero_entries(self):
        # Both entry points floor A identically, so a matrix containing
        # exact zeros yields the same prior value either way.
        A = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.2, 0.3, 0.5]])
        value, _ = dpp_log_prior_and_gradient(A, rho=0.5)
        assert np.isclose(value, dpp_log_prior(A, rho=0.5))


class TestDppLogPrior:
    def test_identical_rows_have_very_low_prior(self):
        diverse = np.eye(4) * 0.7 + 0.1
        diverse = diverse / diverse.sum(axis=1, keepdims=True)
        collapsed = np.tile(np.full(4, 0.25), (4, 1))
        assert dpp_log_prior(diverse) > dpp_log_prior(collapsed)

    def test_prior_is_non_positive(self, random_transition_matrix):
        # The normalized kernel has unit diagonal, so det <= 1.
        assert dpp_log_prior(random_transition_matrix) <= 1e-9

    def test_identity_transitions_have_maximal_prior(self):
        A = np.eye(5) * (1 - 1e-9) + 1e-9 / 4
        A = A / A.sum(axis=1, keepdims=True)
        assert dpp_log_prior(A) > -1e-3

    def test_more_diverse_matrix_scores_higher(self):
        peaked = np.array([[0.9, 0.05, 0.05], [0.05, 0.9, 0.05], [0.05, 0.05, 0.9]])
        flat = np.array([[0.4, 0.3, 0.3], [0.3, 0.4, 0.3], [0.3, 0.3, 0.4]])
        assert dpp_log_prior(peaked) > dpp_log_prior(flat)


class TestDppLogPriorGradient:
    @pytest.mark.parametrize("rho", [0.25, 0.5, 1.0])
    def test_matches_finite_differences(self, rho):
        rng = np.random.default_rng(3)
        A = rng.dirichlet(np.ones(4) * 2.0, size=4)
        grad = dpp_log_prior_gradient(A, rho=rho)
        fd = finite_difference_gradient(A, rho)
        assert np.allclose(grad, fd, rtol=1e-4, atol=1e-6)

    def test_matches_finite_differences_off_simplex(self):
        rng = np.random.default_rng(4)
        A = rng.uniform(0.05, 1.0, size=(3, 5))
        grad = dpp_log_prior_gradient(A, rho=0.5)
        fd = finite_difference_gradient(A, 0.5)
        assert np.allclose(grad, fd, rtol=1e-4, atol=1e-6)

    def test_gradient_shape(self, random_transition_matrix):
        grad = dpp_log_prior_gradient(random_transition_matrix)
        assert grad.shape == random_transition_matrix.shape

    def test_ascending_the_gradient_increases_diversity(self, random_transition_matrix):
        A = random_transition_matrix.copy()
        before = dpp_log_prior(A)
        grad = dpp_log_prior_gradient(A)
        stepped = project_rows_to_simplex(A + 1e-3 * grad / np.max(np.abs(grad)))
        stepped = np.clip(stepped, 1e-10, None)
        stepped = stepped / stepped.sum(axis=1, keepdims=True)
        assert dpp_log_prior(stepped) >= before - 1e-9

    def test_paper_closed_form_agrees_up_to_row_constants_on_simplex(self):
        # On the simplex, the paper's unnormalized-kernel gradient and the
        # exact normalized-kernel gradient differ by a constant per row
        # (which the simplex projection of an ascent step removes).
        rng = np.random.default_rng(5)
        A = rng.dirichlet(np.ones(5) * 3.0, size=5)
        exact = dpp_log_prior_gradient(A, rho=0.5, jitter=0.0)
        paper = 2.0 * paper_closed_form_gradient(A)  # overall scale is irrelevant
        difference = exact - paper
        row_std = np.std(difference, axis=1)
        scale = np.max(np.abs(exact))
        assert np.all(row_std < 1e-8 * max(scale, 1.0))

    def test_rejects_invalid_rho(self):
        with pytest.raises(ValidationError):
            dpp_log_prior_gradient(np.eye(3), rho=0.0)

    @given(arrays(np.float64, (3, 4), elements=st.floats(0.05, 1.0)))
    @settings(max_examples=25, deadline=None)
    def test_property_gradient_is_finite(self, A):
        grad = dpp_log_prior_gradient(A)
        assert np.all(np.isfinite(grad))
