"""Product-of-Bernoullis emissions (naive Bayes pixels) for the OCR task.

Each hidden state (letter) emits a binary feature vector of dimension ``D``
(128 = 16x8 pixels in the paper); pixels are conditionally independent given
the state, each with its own Bernoulli parameter.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import ValidationError
from repro.hmm.emissions.base import EmissionModel
from repro.utils.rng import SeedLike, as_generator

_PROB_FLOOR = 1e-4


class BernoulliEmission(EmissionModel):
    """Per-state independent Bernoulli distributions over binary features.

    Parameters
    ----------
    pixel_probs:
        Matrix of shape ``(n_states, n_features)`` with
        ``pixel_probs[i, d] = P(y_td = 1 | x_t = i)``.  Values are clipped
        away from 0/1 so log-likelihoods stay finite.
    """

    family = "bernoulli"

    def __init__(self, pixel_probs: np.ndarray) -> None:
        P = np.asarray(pixel_probs, dtype=np.float64)
        if P.ndim != 2:
            raise ValidationError(f"pixel_probs must be 2-D, got shape {P.shape}")
        if np.any(P < 0) or np.any(P > 1):
            raise ValidationError("pixel_probs must lie in [0, 1]")
        self.pixel_probs = np.clip(P, _PROB_FLOOR, 1.0 - _PROB_FLOOR)
        self.n_states, self.n_features = P.shape

    @classmethod
    def random_init(
        cls, n_states: int, n_features: int, seed: SeedLike = None
    ) -> "BernoulliEmission":
        """Initialize pixel probabilities uniformly in ``[0.25, 0.75]``."""
        rng = as_generator(seed)
        probs = rng.uniform(0.25, 0.75, size=(n_states, n_features))
        return cls(probs)

    def log_likelihoods(self, observations: np.ndarray) -> np.ndarray:
        obs = np.asarray(observations, dtype=np.float64)
        if obs.ndim != 2 or obs.shape[1] != self.n_features:
            raise ValidationError(
                f"Bernoulli emissions expect sequences of shape (T, {self.n_features}), "
                f"got {obs.shape}"
            )
        log_p = np.log(self.pixel_probs)
        log_1p = np.log1p(-self.pixel_probs)
        return obs @ log_p.T + (1.0 - obs) @ log_1p.T

    def m_step_compiled(self, corpus, gamma_concat: np.ndarray) -> None:
        """Vectorized M-step: one ``(K, N) @ (N, D)`` matmul over the corpus."""
        obs = np.asarray(corpus.concat, dtype=np.float64)
        weight_sum = gamma_concat.sum(axis=0)
        weighted_pixels = gamma_concat.T @ obs
        safe = np.maximum(weight_sum, 1e-12)[:, None]
        self.pixel_probs = np.clip(weighted_pixels / safe, _PROB_FLOOR, 1.0 - _PROB_FLOOR)

    def sample(self, state: int, rng: np.random.Generator) -> np.ndarray:
        return (rng.random(self.n_features) < self.pixel_probs[state]).astype(np.float64)

    def initialize_random(self, sequences: Sequence[np.ndarray], seed: SeedLike = None) -> None:
        fresh = self.random_init(self.n_states, self.n_features, seed)
        self.pixel_probs = fresh.pixel_probs

    def copy(self) -> "BernoulliEmission":
        return BernoulliEmission(self.pixel_probs.copy())

    def to_state_dict(self) -> dict:
        return {"family": self.family, "pixel_probs": self.pixel_probs.copy()}

    @classmethod
    def _from_state_dict(cls, state: dict) -> "BernoulliEmission":
        return cls(state["pixel_probs"])

    def fit_supervised(
        self,
        sequences: Sequence[np.ndarray],
        labels: Sequence[np.ndarray],
        pseudocount: float = 1.0,
    ) -> None:
        """Maximum-likelihood (with Laplace smoothing) fit from labeled data."""
        counts = np.full((self.n_states, self.n_features), pseudocount)
        totals = np.full(self.n_states, 2.0 * pseudocount)
        for seq, lab in zip(sequences, labels):
            obs = np.asarray(seq, dtype=np.float64)
            lab = np.asarray(lab, dtype=np.int64)
            for state in range(self.n_states):
                mask = lab == state
                if np.any(mask):
                    counts[state] += obs[mask].sum(axis=0)
                    totals[state] += float(mask.sum())
        self.pixel_probs = np.clip(counts / totals[:, None], _PROB_FLOOR, 1.0 - _PROB_FLOOR)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"BernoulliEmission(n_states={self.n_states}, n_features={self.n_features})"
