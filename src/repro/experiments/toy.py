"""Toy-data experiments (paper Section 4.1: Fig. 2-5 and Table 1)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import DHMMConfig
from repro.core.diversified_hmm import DiversifiedHMM
from repro.datasets.toy import (
    TOY_SEQUENCE_LENGTH,
    TOY_N_SEQUENCES,
    ToyDataset,
    generate_toy_dataset,
    sigma_sweep_values,
)
from repro.hmm.corpus import CompiledCorpus
from repro.hmm.emissions.gaussian import GaussianEmission
from repro.hmm.engine import InferenceEngine
from repro.metrics.accuracy import one_to_one_accuracy
from repro.metrics.diversity import average_pairwise_bhattacharyya
from repro.metrics.histograms import effective_state_count, state_histogram
from repro.utils.rng import SeedLike, spawn_generators


@dataclass
class ToyComparisonResult:
    """Outcome of one HMM vs dHMM comparison on a toy dataset.

    Covers the numbers behind Fig. 2, Table 1 and Fig. 4: learned models,
    inferred state histograms, 1-to-1 accuracies and transition diversities.
    """

    dataset: ToyDataset
    hmm: DiversifiedHMM
    dhmm: DiversifiedHMM
    hmm_accuracy: float
    dhmm_accuracy: float
    true_histogram: np.ndarray
    hmm_histogram: np.ndarray
    dhmm_histogram: np.ndarray
    hmm_diversity: float
    dhmm_diversity: float
    true_diversity: float

    def summary_rows(self) -> list[tuple[str, float, float, float]]:
        """Rows of the Table-1-style summary (model, accuracy, diversity, #states)."""
        threshold = 50.0
        return [
            ("ground-truth", 1.0, self.true_diversity,
             float(np.sum(self.true_histogram >= threshold))),
            ("HMM", self.hmm_accuracy, self.hmm_diversity,
             float(np.sum(self.hmm_histogram >= threshold))),
            ("dHMM", self.dhmm_accuracy, self.dhmm_diversity,
             float(np.sum(self.dhmm_histogram >= threshold))),
        ]


@dataclass
class SigmaSweepResult:
    """Series behind Fig. 3 (diversity vs sigma) and Fig. 5 (#states vs sigma)."""

    sigmas: np.ndarray
    hmm_diversity: np.ndarray
    dhmm_diversity: np.ndarray
    true_diversity: float
    hmm_n_states: np.ndarray
    dhmm_n_states: np.ndarray
    hmm_accuracy: np.ndarray = field(default_factory=lambda: np.array([]))
    dhmm_accuracy: np.ndarray = field(default_factory=lambda: np.array([]))


def _fit_pair(
    dataset: ToyDataset,
    alpha: float,
    seed: SeedLike,
    max_em_iter: int,
    corpus: CompiledCorpus | None = None,
) -> tuple[DiversifiedHMM, DiversifiedHMM]:
    """Fit a plain HMM (alpha=0) and a dHMM with identical initialization.

    ``corpus`` shares one compiled encoding of ``dataset.observations``
    between both fits (and the caller's decodes).
    """
    k = dataset.n_states
    hmm_config = DHMMConfig(alpha=0.0, max_em_iter=max_em_iter)
    dhmm_config = DHMMConfig(alpha=alpha, max_em_iter=max_em_iter)
    emissions = GaussianEmission.random_init(k, dataset.observations, seed=seed)
    hmm = DiversifiedHMM(emissions.copy(), hmm_config, seed=seed)
    dhmm = DiversifiedHMM(emissions.copy(), dhmm_config, seed=seed)
    data = corpus if corpus is not None else dataset.observations
    hmm.fit(data)
    dhmm.fit(data)
    return hmm, dhmm


def run_toy_comparison(
    alpha: float = 1.0,
    n_sequences: int = TOY_N_SEQUENCES,
    sequence_length: int = TOY_SEQUENCE_LENGTH,
    sigma: float = 0.025,
    max_em_iter: int = 30,
    seed: SeedLike = 0,
) -> ToyComparisonResult:
    """Reproduce the Fig. 2 / Table 1 comparison on one toy dataset.

    Trains the classical HMM (``alpha = 0``) and the dHMM with the given
    ``alpha`` on the same data and the same random initialization, decodes
    the training sequences with Viterbi and evaluates 1-to-1 accuracy,
    state-usage histograms and transition-row diversity.
    """
    dataset = generate_toy_dataset(
        n_sequences=n_sequences, sequence_length=sequence_length, sigma=sigma, seed=seed
    )
    corpus = InferenceEngine().compile(dataset.observations)
    hmm, dhmm = _fit_pair(dataset, alpha, seed, max_em_iter, corpus=corpus)

    k = dataset.n_states
    hmm_labels = hmm.predict_corpus(corpus)
    dhmm_labels = dhmm.predict_corpus(corpus)

    return ToyComparisonResult(
        dataset=dataset,
        hmm=hmm,
        dhmm=dhmm,
        hmm_accuracy=one_to_one_accuracy(dataset.states, hmm_labels, n_states=k),
        dhmm_accuracy=one_to_one_accuracy(dataset.states, dhmm_labels, n_states=k),
        true_histogram=state_histogram(dataset.states, k),
        hmm_histogram=state_histogram(hmm_labels, k),
        dhmm_histogram=state_histogram(dhmm_labels, k),
        hmm_diversity=average_pairwise_bhattacharyya(hmm.transmat_),
        dhmm_diversity=average_pairwise_bhattacharyya(dhmm.transmat_),
        true_diversity=average_pairwise_bhattacharyya(dataset.model.transmat),
    )


def run_sigma_sweep(
    sigmas: np.ndarray | None = None,
    alpha: float = 1.0,
    n_runs: int = 3,
    n_sequences: int = TOY_N_SEQUENCES,
    sequence_length: int = TOY_SEQUENCE_LENGTH,
    max_em_iter: int = 20,
    state_threshold: float = 50.0,
    seed: SeedLike = 0,
) -> SigmaSweepResult:
    """Reproduce the Fig. 3 / Fig. 5 sweep over the emission sigma.

    For every sigma the toy data is regenerated, HMM and dHMM are trained
    (averaged over ``n_runs`` random initializations, paper uses 10), and
    the transition-row diversity, the number of effectively used states and
    the 1-to-1 accuracy are recorded.
    """
    if sigmas is None:
        sigmas = sigma_sweep_values(10)
    sigmas = np.asarray(sigmas, dtype=np.float64)

    hmm_div = np.zeros(sigmas.size)
    dhmm_div = np.zeros(sigmas.size)
    hmm_states = np.zeros(sigmas.size)
    dhmm_states = np.zeros(sigmas.size)
    hmm_acc = np.zeros(sigmas.size)
    dhmm_acc = np.zeros(sigmas.size)

    run_rngs = spawn_generators(seed, n_runs * sigmas.size)
    true_diversity = average_pairwise_bhattacharyya(
        generate_toy_dataset(4, 2, seed=0).model.transmat
    )

    for s_idx, sigma in enumerate(sigmas):
        for run in range(n_runs):
            rng = run_rngs[s_idx * n_runs + run]
            dataset = generate_toy_dataset(
                n_sequences=n_sequences,
                sequence_length=sequence_length,
                sigma=float(sigma),
                seed=rng,
            )
            corpus = InferenceEngine().compile(dataset.observations)
            hmm, dhmm = _fit_pair(dataset, alpha, rng, max_em_iter, corpus=corpus)
            k = dataset.n_states
            hmm_labels = hmm.predict_corpus(corpus)
            dhmm_labels = dhmm.predict_corpus(corpus)

            hmm_div[s_idx] += average_pairwise_bhattacharyya(hmm.transmat_)
            dhmm_div[s_idx] += average_pairwise_bhattacharyya(dhmm.transmat_)
            hmm_states[s_idx] += effective_state_count(hmm_labels, k, state_threshold)
            dhmm_states[s_idx] += effective_state_count(dhmm_labels, k, state_threshold)
            hmm_acc[s_idx] += one_to_one_accuracy(dataset.states, hmm_labels, n_states=k)
            dhmm_acc[s_idx] += one_to_one_accuracy(dataset.states, dhmm_labels, n_states=k)

    scale = 1.0 / n_runs
    return SigmaSweepResult(
        sigmas=sigmas,
        hmm_diversity=hmm_div * scale,
        dhmm_diversity=dhmm_div * scale,
        true_diversity=true_diversity,
        hmm_n_states=hmm_states * scale,
        dhmm_n_states=dhmm_states * scale,
        hmm_accuracy=hmm_acc * scale,
        dhmm_accuracy=dhmm_acc * scale,
    )
