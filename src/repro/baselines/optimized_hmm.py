"""The "Optimized HMM" baseline of Fig. 11.

Krevat & Cuzzillo's "Improving off-line handwritten character recognition
with hidden Markov models" adds several engineering tricks to the plain
count-trained HMM: stronger emission smoothing, per-pixel feature weighting
(down-weighting uninformative pixels) and an emission/transition balance
exponent.  The paper reports it obtains only a "limited improvement" over
the plain HMM; this implementation provides the same knobs.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.baselines.hmm_classifier import SupervisedHMMClassifier
from repro.exceptions import NotFittedError, ValidationError


class OptimizedHMMClassifier(SupervisedHMMClassifier):
    """Supervised HMM with emission weighting and likelihood scaling tricks.

    Parameters
    ----------
    emission_weight:
        Exponent applied to the emission log-likelihoods during decoding;
        values below 1 reduce the (often overconfident) influence of the 128
        independent-pixel likelihood relative to the transition model.
    informative_pixel_floor:
        Pixels whose across-class variance falls below this floor are
        down-weighted, mimicking the feature-selection trick.
    """

    def __init__(
        self,
        n_states: int,
        n_features: int,
        transition_pseudocount: float = 0.5,
        emission_pseudocount: float = 2.0,
        emission_weight: float = 0.35,
        informative_pixel_floor: float = 0.01,
    ) -> None:
        super().__init__(
            n_states,
            n_features,
            transition_pseudocount=transition_pseudocount,
            emission_pseudocount=emission_pseudocount,
        )
        if emission_weight <= 0:
            raise ValidationError(f"emission_weight must be positive, got {emission_weight}")
        if informative_pixel_floor < 0:
            raise ValidationError("informative_pixel_floor must be non-negative")
        self.emission_weight = emission_weight
        self.informative_pixel_floor = informative_pixel_floor
        self.pixel_weights_: np.ndarray | None = None

    def fit(
        self, sequences: Sequence[np.ndarray], labels: Sequence[np.ndarray]
    ) -> "OptimizedHMMClassifier":
        super().fit(sequences, labels)
        assert self.model_ is not None
        probs = self.model_.emissions.pixel_probs  # type: ignore[attr-defined]
        variance = probs.var(axis=0)
        weights = np.where(variance >= self.informative_pixel_floor, 1.0, 0.5)
        self.pixel_weights_ = weights
        return self

    def predict(self, sequences: Sequence[np.ndarray]) -> list[np.ndarray]:
        if self.model_ is None or self.pixel_weights_ is None:
            raise NotFittedError("OptimizedHMMClassifier must be fit before prediction")
        model = self.model_
        probs = model.emissions.pixel_probs  # type: ignore[attr-defined]
        log_p = np.log(probs)
        log_1p = np.log1p(-probs)
        weights = self.pixel_weights_

        # Score the weighted emissions over the concatenated corpus (two
        # matmuls total) and decode through the compiled-corpus path instead
        # of building one table per word in Python.
        corpus = model.compile(
            [np.asarray(seq, dtype=np.float64) for seq in sequences]
        )
        obs = np.asarray(corpus.concat, dtype=np.float64)
        weighted_obs = obs * weights[None, :]
        weighted_neg = (1.0 - obs) * weights[None, :]
        scores = self.emission_weight * (
            weighted_obs @ log_p.T + weighted_neg @ log_1p.T
        )
        decoded = model.inference_engine.viterbi_corpus(
            model.startprob, model.transmat, corpus, scores
        )
        return [path for path, _ in decoded]

    # ------------------------------------------------------------------ #
    def to_state_dict(self) -> dict:
        """Serializable snapshot including the decoding-trick parameters."""
        state = super().to_state_dict()
        state["emission_weight"] = self.emission_weight
        state["informative_pixel_floor"] = self.informative_pixel_floor
        state["pixel_weights"] = (
            self.pixel_weights_.copy() if self.pixel_weights_ is not None else None
        )
        return state

    @classmethod
    def from_state_dict(cls, state: dict) -> "OptimizedHMMClassifier":
        classifier = cls(
            int(state["n_states"]),
            int(state["n_features"]),
            transition_pseudocount=float(state["transition_pseudocount"]),
            emission_pseudocount=float(state["emission_pseudocount"]),
            emission_weight=float(state["emission_weight"]),
            informative_pixel_floor=float(state["informative_pixel_floor"]),
        )
        if state.get("model") is not None:
            from repro.hmm.model import HMM

            classifier.model_ = HMM.from_state_dict(state["model"])
        if state.get("pixel_weights") is not None:
            classifier.pixel_weights_ = np.asarray(
                state["pixel_weights"], dtype=np.float64
            )
        return classifier
