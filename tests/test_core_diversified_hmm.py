"""Unit tests for the unsupervised DiversifiedHMM estimator."""

import numpy as np
import pytest

from repro.core import DHMMConfig, DiversifiedHMM
from repro.exceptions import NotFittedError, ValidationError
from repro.hmm.emissions import CategoricalEmission, GaussianEmission
from repro.metrics.accuracy import one_to_one_accuracy
from repro.metrics.diversity import average_pairwise_bhattacharyya


def make_model(toy_data, alpha, seed=1, max_em_iter=10):
    emissions = GaussianEmission.random_init(5, toy_data.observations, seed=seed)
    return DiversifiedHMM(emissions, DHMMConfig(alpha=alpha, max_em_iter=max_em_iter), seed=seed)


class TestDiversifiedHMMFit:
    def test_fit_returns_history_and_sets_parameters(self, toy_data):
        model = make_model(toy_data, alpha=1.0)
        result = model.fit(toy_data.observations)
        assert len(result.history) == result.n_iter
        assert model.transmat_.shape == (5, 5)
        assert np.allclose(model.transmat_.sum(axis=1), 1.0)
        assert np.isclose(model.startprob_.sum(), 1.0)

    def test_alpha_zero_log_likelihood_is_monotone(self, toy_data):
        model = make_model(toy_data, alpha=0.0)
        result = model.fit(toy_data.observations)
        assert np.all(np.diff(result.history) >= -1e-6)

    def test_fit_improves_score_over_iterations(self, toy_data):
        model = make_model(toy_data, alpha=1.0)
        result = model.fit(toy_data.observations)
        assert result.history[-1] > result.history[0]

    def test_alpha_zero_equals_plain_hmm_trainer(self, toy_data):
        # With alpha = 0 the dHMM must be *exactly* the classical Baum-Welch
        # HMM (same updates, same result for the same initialization).
        from repro.hmm.baum_welch import BaumWelchTrainer
        from repro.hmm.model import HMM

        seed = 3
        emissions = GaussianEmission.random_init(5, toy_data.observations, seed=seed)
        dhmm = DiversifiedHMM(
            emissions.copy(), DHMMConfig(alpha=0.0, max_em_iter=5), seed=seed
        )
        dhmm.fit(toy_data.observations)

        rng = np.random.default_rng(seed)
        ref_emissions = emissions.copy()
        ref_emissions.initialize_random(toy_data.observations, rng)
        reference = HMM.random_init(ref_emissions, seed=rng)
        BaumWelchTrainer(max_iter=5, tol=1e-4).fit(reference, toy_data.observations)

        assert np.array_equal(dhmm.transmat_, reference.transmat)
        assert np.array_equal(dhmm.startprob_, reference.startprob)
        assert dhmm.fit_result_.map_objective == dhmm.fit_result_.history

    def test_diversity_prior_increases_transition_diversity(self, flat_toy_data):
        hmm = make_model(flat_toy_data, alpha=0.0, seed=2, max_em_iter=15)
        dhmm = make_model(flat_toy_data, alpha=2.0, seed=2, max_em_iter=15)
        hmm.fit(flat_toy_data.observations)
        dhmm.fit(flat_toy_data.observations)
        assert average_pairwise_bhattacharyya(dhmm.transmat_) >= average_pairwise_bhattacharyya(
            hmm.transmat_
        ) - 1e-6

    def test_accuracy_above_chance_on_toy_data(self, toy_data):
        model = make_model(toy_data, alpha=1.0, max_em_iter=15)
        model.fit(toy_data.observations)
        predictions = model.predict(toy_data.observations)
        acc = one_to_one_accuracy(toy_data.states, predictions, n_states=5)
        assert acc > 0.4  # chance is 0.2

    def test_works_with_categorical_emissions(self, tiny_pos_corpus):
        emissions = CategoricalEmission.random_init(
            tiny_pos_corpus.n_tags, tiny_pos_corpus.vocabulary_size, seed=0
        )
        model = DiversifiedHMM(emissions, DHMMConfig(alpha=1.0, max_em_iter=3), seed=0)
        result = model.fit(tiny_pos_corpus.words)
        assert np.isfinite(result.log_likelihood)
        predictions = model.predict(tiny_pos_corpus.words)
        assert len(predictions) == tiny_pos_corpus.n_sentences

    @pytest.mark.parametrize("alpha", [10.0, 100.0, 1000.0])
    def test_map_objective_is_monotone(self, tiny_pos_corpus, alpha):
        # MAP-EM: exact E-step, exact pi/B updates and a transition update
        # that never lowers its objective cannot lower ll + alpha log det.
        emissions = CategoricalEmission.random_init(
            tiny_pos_corpus.n_tags, tiny_pos_corpus.vocabulary_size, seed=0
        )
        model = DiversifiedHMM(
            emissions, DHMMConfig(alpha=alpha, max_em_iter=25, em_tol=0.0), seed=0
        )
        result = model.fit(tiny_pos_corpus.words)
        objective = np.array(result.map_objective)
        assert len(objective) == result.n_iter == 25
        assert np.all(np.diff(objective) >= -1e-9 * np.abs(objective[1:]))

    def test_fit_converges_on_the_map_objective(self, toy_data):
        model = make_model(toy_data, alpha=100.0, max_em_iter=200)
        result = model.fit(toy_data.observations)
        assert result.converged
        assert abs(result.map_objective[-1] - result.map_objective[-2]) < model.config.em_tol

    def test_empty_sequences_raise(self, toy_data):
        model = make_model(toy_data, alpha=1.0)
        with pytest.raises(ValidationError):
            model.fit([])


class TestDiversifiedHMMInference:
    def test_predict_before_fit_raises(self, toy_data):
        model = make_model(toy_data, alpha=1.0)
        with pytest.raises(NotFittedError):
            model.predict(toy_data.observations)
        with pytest.raises(NotFittedError):
            _ = model.transmat_

    def test_predict_single_matches_predict(self, toy_data):
        model = make_model(toy_data, alpha=1.0)
        model.fit(toy_data.observations)
        seq = toy_data.observations[0]
        assert np.array_equal(model.predict_single(seq), model.predict([seq])[0])

    def test_score_is_finite(self, toy_data):
        model = make_model(toy_data, alpha=1.0)
        model.fit(toy_data.observations)
        assert np.isfinite(model.score(toy_data.observations))

    def test_log_posterior_objective_adds_prior(self, toy_data):
        model = make_model(toy_data, alpha=1.0)
        model.fit(toy_data.observations)
        likelihood = model.score(toy_data.observations)
        objective = model.log_posterior_objective(toy_data.observations)
        # The DPP log prior is non-positive, so MAP objective <= likelihood.
        assert objective <= likelihood + 1e-9

    def test_reproducible_given_seed(self, toy_data):
        a = make_model(toy_data, alpha=1.0, seed=11, max_em_iter=5)
        b = make_model(toy_data, alpha=1.0, seed=11, max_em_iter=5)
        a.fit(toy_data.observations)
        b.fit(toy_data.observations)
        assert np.allclose(a.transmat_, b.transmat_)
        assert np.allclose(a.startprob_, b.startprob_)

    def test_alpha_property(self, toy_data):
        assert make_model(toy_data, alpha=7.0).alpha == 7.0
        assert make_model(toy_data, alpha=7.0).n_states == 5
