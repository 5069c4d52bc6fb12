"""Unsupervised PoS-tagging experiments (paper Section 4.2.1: Table 2, Fig. 7-9)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import DHMMConfig
from repro.core.diversified_hmm import DiversifiedHMM
from repro.datasets.pos import PosCorpus, generate_wsj_like_corpus
from repro.hmm.corpus import CompiledCorpus
from repro.hmm.emissions.categorical import CategoricalEmission
from repro.hmm.engine import InferenceEngine
from repro.metrics.accuracy import align_labels_one_to_one, one_to_one_accuracy, remap_predictions
from repro.metrics.diversity import row_diversity_profile
from repro.utils.rng import SeedLike


#: The alpha grid of Fig. 7 / Fig. 10.
PAPER_ALPHA_GRID = (0.0, 0.1, 1.0, 10.0, 100.0, 1000.0)


@dataclass
class PosAlphaSweepResult:
    """Accuracy-vs-alpha series of Fig. 7, plus the fitted models."""

    alphas: np.ndarray
    accuracies: np.ndarray
    models: list[DiversifiedHMM]
    corpus: PosCorpus

    @property
    def baseline_accuracy(self) -> float:
        """Accuracy of the plain HMM (the ``alpha = 0`` entry)."""
        zero_idx = int(np.argmin(np.abs(self.alphas)))
        return float(self.accuracies[zero_idx])

    @property
    def best_alpha(self) -> float:
        """The alpha achieving the highest 1-to-1 accuracy."""
        return float(self.alphas[int(np.argmax(self.accuracies))])

    @property
    def best_accuracy(self) -> float:
        return float(self.accuracies.max())


def fit_pos_model(
    corpus: PosCorpus,
    alpha: float,
    max_em_iter: int = 15,
    seed: SeedLike = 0,
    compiled: CompiledCorpus | None = None,
) -> DiversifiedHMM:
    """Fit an (un)regularized HMM tagger on a PoS corpus.

    ``compiled`` lets sweep drivers share one
    :class:`~repro.hmm.corpus.CompiledCorpus` encoding of ``corpus.words``
    across every fit of a grid instead of re-deriving it per model.
    """
    config = DHMMConfig(alpha=alpha, max_em_iter=max_em_iter)
    emissions = CategoricalEmission.random_init(
        corpus.n_tags, corpus.vocabulary_size, seed=seed
    )
    model = DiversifiedHMM(emissions, config, seed=seed)
    model.fit(compiled if compiled is not None else corpus.words)
    return model


def run_pos_alpha_sweep(
    corpus: PosCorpus | None = None,
    alphas=PAPER_ALPHA_GRID,
    max_em_iter: int = 15,
    seed: SeedLike = 0,
    **corpus_kwargs,
) -> PosAlphaSweepResult:
    """Reproduce Fig. 7: unsupervised tagging accuracy as a function of alpha.

    ``alpha = 0`` is the traditional-HMM baseline; the paper reports 0.4475
    for the baseline and a best of 0.4688 at ``alpha = 100`` on WSJ.
    """
    if corpus is None:
        corpus = generate_wsj_like_corpus(seed=seed, **corpus_kwargs)
    alphas_arr = np.asarray(list(alphas), dtype=np.float64)
    accuracies = np.zeros(alphas_arr.size)
    models: list[DiversifiedHMM] = []
    # One compile serves every fit and decode of the grid.
    compiled = InferenceEngine().compile(corpus.words)
    for idx, alpha in enumerate(alphas_arr):
        model = fit_pos_model(
            corpus, float(alpha), max_em_iter=max_em_iter, seed=seed, compiled=compiled
        )
        predictions = model.predict_corpus(compiled)
        accuracies[idx] = one_to_one_accuracy(corpus.tags, predictions, n_states=corpus.n_tags)
        models.append(model)
    return PosAlphaSweepResult(
        alphas=alphas_arr, accuracies=accuracies, models=models, corpus=corpus
    )


def transition_diversity_profile(
    model: DiversifiedHMM, reference_tag: int = 0
) -> np.ndarray:
    """Fig. 8 / Fig. 12-style profile: diversity of one tag's transitions vs the rest.

    Returns the Bhattacharyya distance between the transition distribution of
    ``reference_tag`` and every other tag's transition distribution.
    """
    return row_diversity_profile(model.transmat_, reference_tag)


def tag_frequency_histograms(
    corpus: PosCorpus,
    hmm_model: DiversifiedHMM,
    dhmm_model: DiversifiedHMM,
) -> dict[str, np.ndarray]:
    """Fig. 9: per-tag token counts under the gold tags and both models.

    Model predictions are first aligned to the gold tags with the Hungarian
    1-to-1 mapping (as in the accuracy computation), then the number of
    tokens assigned to each tag is counted.  The gold counts exhibit the
    skewed long-tail distribution the paper describes.
    """
    n_tags = corpus.n_tags
    result: dict[str, np.ndarray] = {"ground_truth": corpus.tag_histogram()}
    compiled = InferenceEngine().compile(corpus.words)
    for name, model in (("hmm", hmm_model), ("dhmm", dhmm_model)):
        predictions = model.predict_corpus(compiled)
        mapping = align_labels_one_to_one(corpus.tags, predictions, n_states=n_tags)
        remapped = remap_predictions(predictions, mapping)
        counts = np.zeros(n_tags)
        for sent in remapped:
            np.add.at(counts, sent, 1.0)
        result[name] = counts
    return result


def corpus_statistics(corpus: PosCorpus) -> list[tuple[str, int, float]]:
    """Table 2-style rows: (tag name, token count, fraction of all tokens)."""
    histogram = corpus.tag_histogram()
    total = histogram.sum()
    rows = []
    for idx, name in enumerate(corpus.tag_names):
        count = int(histogram[idx])
        rows.append((name, count, float(count / total) if total else 0.0))
    return sorted(rows, key=lambda row: row[1], reverse=True)
