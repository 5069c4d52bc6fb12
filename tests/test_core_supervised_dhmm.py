"""Unit tests for the supervised diversified HMM."""

import numpy as np
import pytest

from repro.core import DHMMConfig, SupervisedDiversifiedHMM
from repro.datasets.ocr import N_LETTERS, N_PIXELS
from repro.dpp.log_det import dpp_log_prior
from repro.exceptions import NotFittedError, ValidationError
from repro.hmm.emissions import CategoricalEmission, GaussianEmission
from repro.metrics.accuracy import sequence_accuracy
from repro.metrics.diversity import average_pairwise_bhattacharyya


@pytest.fixture(scope="module")
def fitted_dhmm(tiny_ocr_dataset):
    model = SupervisedDiversifiedHMM(
        N_LETTERS, N_PIXELS, config=DHMMConfig(alpha=10.0, alpha_anchor=1e4)
    )
    model.fit(tiny_ocr_dataset.images, tiny_ocr_dataset.labels)
    return model


class TestSupervisedDiversifiedHMM:
    def test_fit_produces_valid_transition_matrix(self, fitted_dhmm):
        assert fitted_dhmm.transmat_.shape == (N_LETTERS, N_LETTERS)
        assert np.allclose(fitted_dhmm.transmat_.sum(axis=1), 1.0)
        assert np.all(fitted_dhmm.transmat_ >= 0)

    def test_refined_matrix_is_at_least_as_diverse_as_counts(self, fitted_dhmm):
        # The likelihood and anchor terms of Eq. (8) are both maximized
        # exactly at A0, so any ascent of the MAP objective must increase
        # the DPP log-det prior — the paper's own diversity measure.
        assert dpp_log_prior(fitted_dhmm.transmat_) >= dpp_log_prior(
            fitted_dhmm.base_transmat_
        ) - 1e-9
        # The average pairwise Bhattacharyya distance is only a proxy (the
        # log-det can grow while the mean pairwise distance dips slightly),
        # so it gets a looser bound.
        base_div = average_pairwise_bhattacharyya(fitted_dhmm.base_transmat_)
        refined_div = average_pairwise_bhattacharyya(fitted_dhmm.transmat_)
        assert refined_div >= base_div - 0.01

    def test_anchor_keeps_refinement_close_to_counts(self, tiny_ocr_dataset):
        model = SupervisedDiversifiedHMM(
            N_LETTERS, N_PIXELS, config=DHMMConfig(alpha=10.0, alpha_anchor=1e6)
        )
        model.fit(tiny_ocr_dataset.images, tiny_ocr_dataset.labels)
        assert np.max(np.abs(model.transmat_ - model.base_transmat_)) < 0.05

    def test_alpha_zero_keeps_count_estimate_exactly(self, tiny_ocr_dataset):
        model = SupervisedDiversifiedHMM(N_LETTERS, N_PIXELS, config=DHMMConfig(alpha=0.0))
        model.fit(tiny_ocr_dataset.images, tiny_ocr_dataset.labels)
        assert np.allclose(model.transmat_, model.base_transmat_)

    def test_training_accuracy_above_chance(self, fitted_dhmm, tiny_ocr_dataset):
        predictions = fitted_dhmm.predict(tiny_ocr_dataset.images)
        acc = sequence_accuracy(tiny_ocr_dataset.labels, predictions)
        assert acc > 0.3

    def test_predictions_match_sequence_lengths(self, fitted_dhmm, tiny_ocr_dataset):
        predictions = fitted_dhmm.predict(tiny_ocr_dataset.images[:5])
        for pred, img in zip(predictions, tiny_ocr_dataset.images[:5]):
            assert pred.shape[0] == img.shape[0]

    def test_score_is_finite(self, fitted_dhmm, tiny_ocr_dataset):
        assert np.isfinite(fitted_dhmm.score(tiny_ocr_dataset.images[:5]))

    def test_predict_before_fit_raises(self):
        model = SupervisedDiversifiedHMM(N_LETTERS, N_PIXELS)
        with pytest.raises(NotFittedError):
            model.predict([np.zeros((2, N_PIXELS))])

    def test_mismatched_sequences_and_labels_raise(self, tiny_ocr_dataset):
        model = SupervisedDiversifiedHMM(N_LETTERS, N_PIXELS)
        with pytest.raises(ValidationError):
            model.fit(tiny_ocr_dataset.images[:3], tiny_ocr_dataset.labels[:2])

    def test_requires_emissions_or_feature_count(self):
        with pytest.raises(ValidationError):
            SupervisedDiversifiedHMM(N_LETTERS)
        with pytest.raises(ValidationError):
            SupervisedDiversifiedHMM(1, N_PIXELS)

    def test_refinement_result_is_exposed(self, fitted_dhmm):
        assert fitted_dhmm.refinement_result_ is not None
        assert np.isfinite(fitted_dhmm.refinement_result_.objective)


def _one_hot(labels, n_states):
    return [np.eye(n_states)[np.asarray(lab)] for lab in labels]


class TestNonBernoulliEmissions:
    """Categorical and Gaussian emissions are fitted from one-hot label
    posteriors by the flat M-step; the list M-step is the reference."""

    def test_categorical_emissions_match_list_m_step(self, tiny_pos_corpus, list_m_step):
        corpus = tiny_pos_corpus
        template = CategoricalEmission.random_init(
            corpus.n_tags, corpus.vocabulary_size, seed=0
        )
        model = SupervisedDiversifiedHMM(
            corpus.n_tags, config=DHMMConfig(alpha=1.0), emissions=template
        )
        model.fit(corpus.words, corpus.tags)
        reference = template.copy()
        list_m_step(reference, corpus.words, _one_hot(corpus.tags, corpus.n_tags))
        np.testing.assert_array_equal(
            model.model_.emissions.emission_probs, reference.emission_probs
        )

    def test_gaussian_emissions_match_list_m_step(self, toy_data, list_m_step):
        n_states = toy_data.n_states
        template = GaussianEmission(np.zeros(n_states), np.ones(n_states))
        model = SupervisedDiversifiedHMM(
            n_states, config=DHMMConfig(alpha=1.0), emissions=template
        )
        model.fit(toy_data.observations, toy_data.states)
        reference = template.copy()
        list_m_step(
            reference, toy_data.observations, _one_hot(toy_data.states, n_states)
        )
        fitted = model.model_.emissions
        np.testing.assert_allclose(fitted.means, reference.means, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            fitted.variances, reference.variances, rtol=0, atol=1e-12
        )
