"""Unit tests for Baum-Welch EM training."""

import numpy as np
import pytest

from repro.exceptions import ConvergenceWarning, ValidationError
from repro.hmm.baum_welch import BaumWelchTrainer
from repro.hmm.emissions import CategoricalEmission, GaussianEmission
from repro.hmm.model import HMM
from repro.hmm.transition_updaters import MaximumLikelihoodTransitionUpdater


def make_ground_truth_categorical():
    startprob = np.array([0.7, 0.3])
    transmat = np.array([[0.85, 0.15], [0.25, 0.75]])
    emissions = CategoricalEmission(np.array([[0.9, 0.05, 0.05], [0.05, 0.05, 0.9]]))
    return HMM(startprob, transmat, emissions)


class _DriftingPriorUpdater(MaximumLikelihoodTransitionUpdater):
    """ML updates under a log prior that rises by 1 nat per evaluation."""

    def __init__(self) -> None:
        super().__init__()
        self.calls = 0

    def log_prior(self, transmat):
        self.calls += 1
        return float(self.calls)


class TestBaumWelchTrainer:
    def test_tol_reads_the_map_objective(self):
        # The likelihood settles within a few iterations; the MAP objective
        # (likelihood + log prior) keeps rising, so EM must not stop.
        truth = make_ground_truth_categorical()
        _, observations = truth.sample_dataset(40, 15, seed=0)
        model = HMM.random_init(CategoricalEmission.random_init(2, 3, seed=1), seed=1)
        result = BaumWelchTrainer(
            transition_updater=_DriftingPriorUpdater(), max_iter=40, tol=0.5
        ).fit(model, observations)
        assert not result.converged and result.n_iter == 40
        assert abs(result.history[-1] - result.history[-2]) < 0.5
        expected = [ll + k for k, ll in enumerate(result.history, start=1)]
        assert result.map_objective == expected

    def test_ml_map_objective_is_the_likelihood(self):
        truth = make_ground_truth_categorical()
        _, observations = truth.sample_dataset(40, 15, seed=0)
        model = HMM.random_init(CategoricalEmission.random_init(2, 3, seed=1), seed=1)
        result = BaumWelchTrainer(max_iter=20).fit(model, observations)
        assert result.map_objective == result.history

    def test_log_likelihood_is_monotone_non_decreasing(self):
        truth = make_ground_truth_categorical()
        _, observations = truth.sample_dataset(40, 15, seed=0)
        model = HMM.random_init(CategoricalEmission.random_init(2, 3, seed=1), seed=1)
        trainer = BaumWelchTrainer(max_iter=20, tol=0.0)
        result = trainer.fit(model, observations)
        diffs = np.diff(result.history)
        assert np.all(diffs >= -1e-6)

    def test_improves_over_random_initialization(self):
        truth = make_ground_truth_categorical()
        _, observations = truth.sample_dataset(40, 15, seed=2)
        model = HMM.random_init(CategoricalEmission.random_init(2, 3, seed=3), seed=3)
        before = model.score(observations)
        trainer = BaumWelchTrainer(max_iter=25)
        result = trainer.fit(model, observations)
        assert result.log_likelihood > before

    def test_recovers_separable_gaussian_means(self):
        emissions = GaussianEmission(np.array([0.0, 50.0]), np.array([1.0, 1.0]))
        truth = HMM(np.array([0.5, 0.5]), np.array([[0.8, 0.2], [0.3, 0.7]]), emissions)
        _, observations = truth.sample_dataset(60, 10, seed=4)
        start = GaussianEmission.random_init(2, observations, seed=5)
        model = HMM.random_init(start, seed=5)
        BaumWelchTrainer(max_iter=30).fit(model, observations)
        learned = np.sort(model.emissions.means)
        assert abs(learned[0] - 0.0) < 2.0
        assert abs(learned[1] - 50.0) < 2.0

    def test_convergence_flag_set_for_tight_model(self):
        truth = make_ground_truth_categorical()
        _, observations = truth.sample_dataset(20, 10, seed=8)
        model = truth.copy()  # start at the ground truth: EM should stop fast
        trainer = BaumWelchTrainer(max_iter=50, tol=1e-3)
        result = trainer.fit(model, observations)
        assert result.converged
        assert result.n_iter < 50

    def test_warns_when_not_converged(self):
        truth = make_ground_truth_categorical()
        _, observations = truth.sample_dataset(10, 10, seed=9)
        model = HMM.random_init(CategoricalEmission.random_init(2, 3, seed=10), seed=10)
        trainer = BaumWelchTrainer(max_iter=2, tol=0.0, warn_on_no_convergence=True)
        with pytest.warns(ConvergenceWarning):
            trainer.fit(model, observations)

    def test_empty_sequences_raise(self):
        model = HMM.random_init(CategoricalEmission.random_init(2, 3, seed=0), seed=0)
        with pytest.raises(ValidationError):
            BaumWelchTrainer().fit(model, [])

    def test_invalid_hyperparameters_raise(self):
        with pytest.raises(ValidationError):
            BaumWelchTrainer(max_iter=0)
        with pytest.raises(ValidationError):
            BaumWelchTrainer(tol=-1.0)

    def test_e_step_statistics_shapes(self):
        truth = make_ground_truth_categorical()
        _, observations = truth.sample_dataset(5, 6, seed=11)
        corpus = truth.compile(observations)
        stats = truth.inference_engine.posteriors_corpus(
            truth.startprob, truth.transmat, corpus, corpus.score(truth.emissions)
        )
        assert stats.start_counts.shape == (2,)
        assert stats.xi_sum.shape == (2, 2)
        assert stats.gamma_concat.shape == (30, 2)
        # The training E-step keeps no per-sequence transition counts.
        assert stats.sequence_xi is None
        assert np.isclose(stats.start_counts.sum(), 5.0)
        # Each sequence contributes T-1 expected transitions.
        assert np.isclose(stats.xi_sum.sum(), 5 * 5.0)


class _CountingEmission(CategoricalEmission):
    """Counts scoring calls; family stays abstract to keep the registry clean."""

    family = "abstract"

    def __init__(self, emission_probs):
        super().__init__(emission_probs)
        self.scoring_calls = 0
        self.batch_calls = 0
        self.weight_calls = 0

    def log_likelihoods(self, observations):
        self.scoring_calls += 1
        return super().log_likelihoods(observations)

    def scaled_likelihoods(self, observations, rows, out):
        self.weight_calls += 1
        return super().scaled_likelihoods(observations, rows, out)

    def log_likelihoods_batch(self, sequences):
        self.batch_calls += 1
        return super().log_likelihoods_batch(sequences)


class TestEStepUsesBatchScoring:
    def test_batch_inference_scores_emissions_once(self):
        # Regression: batched inference used to loop `log_likelihoods(seq)`
        # over the sequences.  predict/score over N sequences must score the
        # compiled corpus with exactly one concatenated-corpus call.
        truth = make_ground_truth_categorical()
        _, observations = truth.sample_dataset(12, 9, seed=13)
        emissions = _CountingEmission(truth.emissions.emission_probs)
        model = HMM(truth.startprob, truth.transmat, emissions)
        assert len(model.predict(observations)) == 12
        assert emissions.scoring_calls == 1
        model.score(observations)
        assert emissions.scoring_calls == 2
        assert emissions.batch_calls == 0

    def test_fit_scores_emissions_once_per_iteration(self):
        truth = make_ground_truth_categorical()
        _, observations = truth.sample_dataset(10, 6, seed=14)
        emissions = _CountingEmission(truth.emissions.emission_probs)
        model = HMM(truth.startprob, truth.transmat, emissions)
        n_iter = BaumWelchTrainer(max_iter=4, tol=0.0).fit(model, observations).n_iter
        # The compiled-corpus fit asks the emission model for the packed
        # observation weights exactly once per EM iteration, builds no log
        # table and never scores per sequence.
        assert emissions.weight_calls == n_iter
        assert emissions.scoring_calls == 0
        assert emissions.batch_calls == 0


class TestMaximumLikelihoodTransitionUpdater:
    def test_normalizes_counts(self):
        updater = MaximumLikelihoodTransitionUpdater()
        counts = np.array([[6.0, 2.0], [1.0, 3.0]])
        out = updater.update(counts, np.full((2, 2), 0.5))
        assert np.allclose(out, [[0.75, 0.25], [0.25, 0.75]])

    def test_pseudocount_smooths_zero_rows(self):
        updater = MaximumLikelihoodTransitionUpdater(pseudocount=1.0)
        counts = np.array([[0.0, 0.0], [4.0, 0.0]])
        out = updater.update(counts, np.full((2, 2), 0.5))
        assert np.allclose(out[0], [0.5, 0.5])
        assert np.allclose(out[1], [5.0 / 6.0, 1.0 / 6.0])

    def test_negative_pseudocount_rejected(self):
        with pytest.raises(ValueError):
            MaximumLikelihoodTransitionUpdater(pseudocount=-0.5)

    def test_objective_is_expected_log_likelihood(self):
        updater = MaximumLikelihoodTransitionUpdater()
        counts = np.array([[2.0, 1.0], [1.0, 2.0]])
        A = np.array([[0.5, 0.5], [0.5, 0.5]])
        assert np.isclose(updater.objective(counts, A), 6 * np.log(0.5))
