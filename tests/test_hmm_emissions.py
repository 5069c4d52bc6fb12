"""Unit tests for the Gaussian, Categorical and Bernoulli emission families."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.hmm.corpus import CompiledCorpus
from repro.hmm.emissions import BernoulliEmission, CategoricalEmission, GaussianEmission


class TestGaussianEmission:
    def test_log_likelihood_matches_scipy(self):
        from scipy.stats import norm

        em = GaussianEmission(np.array([0.0, 2.0]), np.array([1.0, 4.0]))
        seq = np.array([0.5, -1.0, 3.0])
        log_obs = em.log_likelihoods(seq)
        for t, y in enumerate(seq):
            assert np.isclose(log_obs[t, 0], norm.logpdf(y, 0.0, 1.0))
            assert np.isclose(log_obs[t, 1], norm.logpdf(y, 2.0, 2.0))

    def test_m_step_recovers_weighted_means(self):
        em = GaussianEmission(np.zeros(2), np.ones(2))
        seq = np.array([1.0, 1.0, 5.0, 5.0])
        post = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        em.m_step_compiled(CompiledCorpus([seq]), post)
        assert np.allclose(em.means, [1.0, 5.0])
        assert np.all(em.variances >= 1e-6)

    def test_m_step_variance_floor(self):
        em = GaussianEmission(np.zeros(1), np.ones(1))
        seq = np.array([2.0, 2.0, 2.0])
        post = np.ones((3, 1))
        em.m_step_compiled(CompiledCorpus([seq]), post)
        assert em.variances[0] >= 1e-6

    def test_sample_is_float(self):
        em = GaussianEmission(np.array([3.0]), np.array([0.01]))
        value = em.sample(0, np.random.default_rng(0))
        assert isinstance(value, float)
        assert 2.0 < value < 4.0

    def test_random_init_matches_data_scale(self):
        rng = np.random.default_rng(0)
        sequences = [rng.normal(100.0, 1.0, size=20) for _ in range(5)]
        em = GaussianEmission.random_init(3, sequences, seed=0)
        assert np.all(np.abs(em.means - 100.0) < 20.0)

    def test_copy_is_independent(self):
        em = GaussianEmission(np.array([1.0, 2.0]), np.array([1.0, 1.0]))
        clone = em.copy()
        clone.means[0] = 99.0
        assert em.means[0] == 1.0

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValidationError):
            GaussianEmission(np.zeros(2), np.ones(3))

    def test_rejects_non_positive_variance(self):
        with pytest.raises(ValidationError):
            GaussianEmission(np.zeros(2), np.array([1.0, 0.0]))

    def test_rejects_2d_sequence(self):
        em = GaussianEmission(np.zeros(2), np.ones(2))
        with pytest.raises(ValidationError):
            em.log_likelihoods(np.zeros((3, 2)))


class TestCategoricalEmission:
    def test_log_likelihood_lookup(self):
        B = np.array([[0.7, 0.3], [0.2, 0.8]])
        em = CategoricalEmission(B)
        log_obs = em.log_likelihoods(np.array([0, 1, 1]))
        assert np.allclose(np.exp(log_obs[0]), [0.7, 0.2])
        assert np.allclose(np.exp(log_obs[1]), [0.3, 0.8])

    def test_m_step_recovers_empirical_frequencies(self):
        em = CategoricalEmission(np.full((2, 3), 1.0 / 3.0))
        seq = np.array([0, 0, 1, 2])
        post = np.array([[1.0, 0], [1.0, 0], [0, 1.0], [0, 1.0]])
        em.m_step_compiled(CompiledCorpus([seq]), post)
        assert np.allclose(em.emission_probs[0], [1.0, 0.0, 0.0])
        assert np.allclose(em.emission_probs[1], [0.0, 0.5, 0.5])

    def test_sample_respects_support(self):
        em = CategoricalEmission(np.array([[0.0, 1.0, 0.0]]))
        rng = np.random.default_rng(0)
        assert all(em.sample(0, rng) == 1 for _ in range(5))

    def test_random_init_rows_are_distributions(self):
        em = CategoricalEmission.random_init(4, 10, seed=0)
        assert em.emission_probs.shape == (4, 10)
        assert np.allclose(em.emission_probs.sum(axis=1), 1.0)

    def test_rejects_out_of_range_symbol(self):
        em = CategoricalEmission(np.array([[0.5, 0.5]]))
        with pytest.raises(ValidationError):
            em.log_likelihoods(np.array([0, 2]))

    @pytest.mark.parametrize(
        "symbols", [[1.5, 2], [1.0, 2.0], ["a"], [True, False]], ids=repr
    )
    def test_rejects_non_integer_symbols(self, symbols):
        em = CategoricalEmission(np.full((2, 3), 1.0 / 3.0))
        with pytest.raises(ValidationError, match="integer"):
            em.log_likelihoods(np.asarray(symbols))

    def test_empty_input_scores_to_an_empty_table(self):
        em = CategoricalEmission(np.full((2, 3), 1.0 / 3.0))
        assert em.log_likelihoods(np.array([])).shape == (0, 2)

    def test_rejects_non_stochastic_rows(self):
        with pytest.raises(ValidationError):
            CategoricalEmission(np.array([[0.5, 0.2]]))

    def test_copy_is_independent(self):
        em = CategoricalEmission(np.array([[0.5, 0.5]]))
        clone = em.copy()
        clone.emission_probs[0, 0] = 0.9
        assert em.emission_probs[0, 0] == 0.5


class TestBernoulliEmission:
    def test_log_likelihood_factorizes_over_pixels(self):
        probs = np.array([[0.9, 0.1], [0.5, 0.5]])
        em = BernoulliEmission(probs)
        obs = np.array([[1.0, 0.0]])
        log_obs = em.log_likelihoods(obs)
        expected_state0 = np.log(0.9) + np.log(0.9)
        expected_state1 = np.log(0.5) + np.log(0.5)
        assert np.isclose(log_obs[0, 0], expected_state0, atol=1e-3)
        assert np.isclose(log_obs[0, 1], expected_state1, atol=1e-3)

    def test_m_step_moves_towards_observed_pixel_rates(self):
        em = BernoulliEmission(np.full((1, 2), 0.5))
        obs = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
        post = np.ones((3, 1))
        em.m_step_compiled(CompiledCorpus([obs]), post)
        assert em.pixel_probs[0, 0] > 0.9
        assert np.isclose(em.pixel_probs[0, 1], 1.0 / 3.0, atol=1e-3)

    def test_fit_supervised_with_smoothing(self):
        em = BernoulliEmission(np.full((2, 2), 0.5))
        obs = [np.array([[1.0, 1.0], [0.0, 0.0]])]
        labels = [np.array([0, 1])]
        em.fit_supervised(obs, labels, pseudocount=1.0)
        assert em.pixel_probs[0, 0] > 0.5
        assert em.pixel_probs[1, 0] < 0.5

    def test_sample_is_binary_vector(self):
        em = BernoulliEmission(np.array([[0.99, 0.01]]))
        sample = em.sample(0, np.random.default_rng(0))
        assert sample.shape == (2,)
        assert set(np.unique(sample)) <= {0.0, 1.0}

    def test_probabilities_are_clipped_away_from_extremes(self):
        em = BernoulliEmission(np.array([[0.0, 1.0]]))
        assert em.pixel_probs[0, 0] > 0.0
        assert em.pixel_probs[0, 1] < 1.0

    def test_rejects_out_of_range_probabilities(self):
        with pytest.raises(ValidationError):
            BernoulliEmission(np.array([[1.5, 0.5]]))

    def test_rejects_wrong_feature_count(self):
        em = BernoulliEmission(np.full((2, 3), 0.5))
        with pytest.raises(ValidationError):
            em.log_likelihoods(np.zeros((4, 2)))

    def test_copy_is_independent(self):
        em = BernoulliEmission(np.full((1, 2), 0.5))
        clone = em.copy()
        clone.pixel_probs[0, 0] = 0.9
        assert em.pixel_probs[0, 0] == 0.5
