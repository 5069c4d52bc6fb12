"""Unit tests for the DPP transition prior and its M-step updater."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import DHMMConfig
from repro.core.transition_prior import (
    DiversityTransitionUpdater,
    DPPTransitionPrior,
    _SqrtKernelAscent,
)
from repro.dpp.log_det import dpp_log_prior
from repro.exceptions import ValidationError
from repro.metrics.diversity import average_pairwise_bhattacharyya
from repro.optim.projected_gradient import maximize_rowwise_simplex
from repro.utils.maths import normalize_rows, safe_log

FLOOR = DHMMConfig().transition_floor
ALPHAS = (0.1, 1.0, 10.0, 100.0, 1000.0)


def floored(matrix):
    """``matrix`` on the M-step's feasible set: rows on the simplex, entries >= FLOOR."""
    clipped = np.maximum(matrix, FLOOR)
    return clipped / clipped.sum(axis=1, keepdims=True)


def projected_gradient_update(updater, counts):
    """The M-step before the fixed point: Algorithm 1 from the counts, 50 steps."""
    cfg = DHMMConfig()

    def gradient(A):
        safe_A = np.clip(A, FLOOR, None)
        return counts / safe_A + updater.prior.gradient(safe_A)

    return maximize_rowwise_simplex(
        lambda A: updater.objective(counts, A),
        gradient,
        normalize_rows(counts, pseudocount=FLOOR),
        max_iter=cfg.max_inner_iter,
        tol=cfg.inner_tol,
        initial_step=cfg.initial_step,
        min_value=FLOOR,
    ).solution


def stationarity_gap(updater, counts, A):
    """Gain (nats) a diagonally scaled Newton step from ``A`` predicts.

    With one multiplier per row, a maximum has ``d_ij = A_ij (g_ij -
    lambda_i) = 0`` on entries above the floor and ``d_ij <= 0`` on floor
    entries, where ``g`` is the objective's gradient and ``lambda_i =
    sum_j A_ij g_ij``.  Scaling each entry by the curvature ``xi_ij /
    A_ij^2 + (n_i + alpha) / A_ij`` (the likelihood's, plus the fixed
    point's) turns the defects into the KKT residual in the objective's
    units, ``sum d_ij^2 / (xi_ij + A_ij (n_i + alpha))``.
    """
    grad = counts / A + updater.prior.gradient(A)
    defect = A * (grad - np.sum(A * grad, axis=1, keepdims=True))
    defect = np.where(A > 2 * FLOOR, defect, np.maximum(defect, 0.0))
    curvature = counts + A * (counts.sum(axis=1, keepdims=True) + updater.prior.alpha)
    return float(np.sum(defect**2 / curvature))


@st.composite
def m_step_instances(draw, max_states=45):
    """Expected counts, a current matrix and alpha, as one EM iteration has them."""
    k = draw(st.integers(2, max_states))
    alpha = draw(st.sampled_from(ALPHAS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    totals = rng.uniform(1.0, 5000.0, size=(k, 1))
    counts = rng.dirichlet(np.full(k, 0.5), size=k) * totals
    current = 0.9 * rng.dirichlet(np.ones(k), size=k) + 0.1 / k
    return counts, current, alpha


@st.composite
def collapsed_instances(draw):
    """Counts with a block of identical or near-identical rows."""
    counts, current, alpha = draw(m_step_instances(max_states=20))
    k = counts.shape[0]
    n_copies = draw(st.integers(2, k))
    spread = draw(st.sampled_from((0.0, 1e-9, 1e-6)))
    counts[1:n_copies] = counts[0] * (1.0 + spread * np.arange(1, n_copies))[:, None]
    # Relabeling the copies' rows changes F by at most this much, so two
    # ascents that separate them differently may end this far apart.
    relabel = -np.log(FLOOR) * float(np.abs(counts[1:n_copies] - counts[0]).sum())
    return counts, alpha, relabel


class TestDPPTransitionPrior:
    def test_alpha_zero_gives_zero_prior_and_gradient(self, random_transition_matrix):
        prior = DPPTransitionPrior(alpha=0.0)
        assert prior.log_prior(random_transition_matrix) == 0.0
        assert np.allclose(prior.gradient(random_transition_matrix), 0.0)

    def test_log_prior_scales_linearly_with_alpha(self, random_transition_matrix):
        p1 = DPPTransitionPrior(alpha=1.0).log_prior(random_transition_matrix)
        p3 = DPPTransitionPrior(alpha=3.0).log_prior(random_transition_matrix)
        assert np.isclose(p3, 3.0 * p1)

    def test_prior_prefers_diverse_matrices(self):
        prior = DPPTransitionPrior(alpha=1.0)
        diverse = np.eye(4) * 0.9 + 0.1 / 3
        diverse /= diverse.sum(axis=1, keepdims=True)
        collapsed = np.full((4, 4), 0.25)
        assert prior.log_prior(diverse) > prior.log_prior(collapsed)

    def test_invalid_parameters_raise(self):
        with pytest.raises(ValidationError):
            DPPTransitionPrior(alpha=-1.0)
        with pytest.raises(ValidationError):
            DPPTransitionPrior(rho=0.0)
        with pytest.raises(ValidationError):
            DPPTransitionPrior(jitter=-1.0)


class TestDiversityTransitionUpdater:
    def make_counts(self, seed=0, k=4, scale=50.0):
        rng = np.random.default_rng(seed)
        return rng.uniform(1.0, scale, size=(k, k))

    def test_alpha_zero_matches_normalized_counts(self):
        counts = self.make_counts()
        updater = DiversityTransitionUpdater(DPPTransitionPrior(alpha=0.0))
        out = updater.update(counts, np.full((4, 4), 0.25))
        assert np.allclose(out, normalize_rows(counts))

    def test_update_is_row_stochastic(self):
        counts = self.make_counts(1)
        updater = DiversityTransitionUpdater(DPPTransitionPrior(alpha=5.0))
        out = updater.update(counts, normalize_rows(counts))
        assert np.allclose(out.sum(axis=1), 1.0)
        assert np.all(out >= 0)

    def test_map_objective_not_below_ml_solution(self):
        counts = self.make_counts(2)
        prior = DPPTransitionPrior(alpha=10.0)
        updater = DiversityTransitionUpdater(prior)
        ml_solution = normalize_rows(counts)
        out = updater.update(counts, ml_solution)
        assert updater.objective(counts, out) >= updater.objective(counts, ml_solution) - 1e-9

    def test_prior_increases_diversity_for_collapsed_counts(self):
        # Expected counts whose rows are identical: the ML update collapses,
        # the diversity-regularized update must spread the rows apart.
        counts = np.tile(np.array([10.0, 6.0, 4.0, 2.0]), (4, 1))
        prior = DPPTransitionPrior(alpha=50.0)
        updater = DiversityTransitionUpdater(prior, DHMMConfig(alpha=50.0, max_inner_iter=100))
        out = updater.update(counts, normalize_rows(counts))
        ml_diversity = average_pairwise_bhattacharyya(normalize_rows(counts))
        assert average_pairwise_bhattacharyya(out) > ml_diversity

    def test_larger_alpha_gives_higher_prior_value(self):
        counts = self.make_counts(3)
        weak = DiversityTransitionUpdater(DPPTransitionPrior(alpha=1.0)).update(
            counts, normalize_rows(counts)
        )
        strong = DiversityTransitionUpdater(
            DPPTransitionPrior(alpha=200.0), DHMMConfig(alpha=200.0, max_inner_iter=100)
        ).update(counts, normalize_rows(counts))
        assert dpp_log_prior(strong) >= dpp_log_prior(weak) - 1e-6

    def test_solver_objective_equals_updater_objective(self):
        # The solver accepts steps by its own evaluation of F; it must be
        # the updater's objective.
        rng = np.random.default_rng(5)
        counts = self.make_counts(5, k=7)
        prior = DPPTransitionPrior(alpha=100.0)
        updater = DiversityTransitionUpdater(prior)
        ascent = _SqrtKernelAscent(counts, prior.alpha, prior.jitter, FLOOR)
        for A in (rng.dirichlet(np.ones(7), size=7), normalize_rows(counts)):
            A = floored(A)
            expected = updater.objective(counts, A)
            assert abs(ascent.evaluate(A)[0] - expected) <= 1e-9 * abs(expected)

    @pytest.mark.parametrize("rho", [0.5, 1.0])
    def test_update_keeps_a_better_current(self, rho):
        # Counts of the size EM sees: 50 projected-gradient steps from the
        # counts stop far short, so a converged current matrix is better
        # than a fresh start and the update must not lose it (rho = 1 runs
        # the projected-gradient path, with the same warm start).
        counts = self.make_counts(6, k=8, scale=3000.0)
        counts[:, 0] *= 20.0
        updater = DiversityTransitionUpdater(
            DPPTransitionPrior(alpha=100.0, rho=rho), DHMMConfig(alpha=100.0, rho=rho)
        )
        long_run = maximize_rowwise_simplex(
            lambda A: updater.objective(counts, A),
            lambda A: counts / A + updater.prior.gradient(A),
            normalize_rows(counts),
            max_iter=2000,
            tol=0.0,
            min_value=FLOOR,
        ).solution
        out = updater.update(counts, long_run)
        assert updater.objective(counts, out) >= updater.objective(counts, long_run)

    def test_objective_combines_likelihood_and_prior(self):
        counts = self.make_counts(4)
        prior = DPPTransitionPrior(alpha=2.0)
        updater = DiversityTransitionUpdater(prior)
        A = normalize_rows(counts)
        expected = float(np.sum(counts * safe_log(A))) + prior.log_prior(A)
        assert np.isclose(updater.objective(counts, A), expected)


class TestDiversityUpdaterProperties:
    @settings(max_examples=40, deadline=None)
    @given(m_step_instances())
    def test_update_never_below_current_or_counts(self, instance):
        counts, current, alpha = instance
        updater = DiversityTransitionUpdater(DPPTransitionPrior(alpha=alpha))
        out = updater.update(counts, current)
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        value = updater.objective(counts, out)
        for start in (current, floored(normalize_rows(counts))):
            assert value >= updater.objective(counts, start) - 1e-9 * abs(value)

    @settings(max_examples=40, deadline=None)
    @given(m_step_instances())
    def test_kkt_residual_is_small(self, instance):
        counts, current, alpha = instance
        updater = DiversityTransitionUpdater(DPPTransitionPrior(alpha=alpha))
        out = updater.update(counts, current)
        assert stationarity_gap(updater, counts, out) < 1e-4

    @settings(max_examples=30, deadline=None)
    @given(m_step_instances())
    def test_alpha_zero_is_normalized_counts_bitwise(self, instance):
        counts, current, _ = instance
        updater = DiversityTransitionUpdater(DPPTransitionPrior(alpha=0.0))
        assert np.array_equal(updater.update(counts, current), normalize_rows(counts))

    @settings(max_examples=30, deadline=None)
    @given(collapsed_instances())
    def test_collapsed_rows_ascend_past_projected_gradient(self, instance):
        counts, alpha, relabel = instance
        updater = DiversityTransitionUpdater(DPPTransitionPrior(alpha=alpha))
        out = updater.update(counts, normalize_rows(counts))
        assert np.all(np.isfinite(out))
        reference = projected_gradient_update(updater, counts)
        value = updater.objective(counts, out)
        # Both stop once a step gains under ~1e-6 nats; allow ten times that.
        slack = 1e-5 + 1e-9 * abs(value) + relabel
        assert value >= updater.objective(counts, reference) - slack
