"""Univariate Gaussian emissions (the toy experiment of the paper)."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import ValidationError
from repro.hmm.emissions.base import EmissionModel
from repro.utils.rng import SeedLike, as_generator

_LOG_2PI = float(np.log(2.0 * np.pi))
_MIN_VARIANCE = 1e-6


class GaussianEmission(EmissionModel):
    """One univariate Gaussian per hidden state.

    Serialization: :meth:`to_state_dict` / :meth:`from_state_dict` snapshot
    the per-state means and variances.

    Parameters
    ----------
    means:
        Vector of per-state means ``B.mu`` (length ``n_states``).
    variances:
        Vector of per-state variances ``B.sigma^2``; values are floored at a
        small constant so degenerate states cannot produce infinite
        likelihoods during EM.
    """

    family = "gaussian"

    def __init__(self, means: np.ndarray, variances: np.ndarray) -> None:
        means = np.asarray(means, dtype=np.float64)
        variances = np.asarray(variances, dtype=np.float64)
        if means.ndim != 1 or variances.ndim != 1:
            raise ValidationError("means and variances must be one-dimensional")
        if means.shape != variances.shape:
            raise ValidationError(
                f"means and variances must have the same length, got "
                f"{means.shape} and {variances.shape}"
            )
        if np.any(variances <= 0):
            raise ValidationError("variances must be strictly positive")
        self.means = means.copy()
        self.variances = np.maximum(variances, _MIN_VARIANCE)
        self.n_states = means.size

    @classmethod
    def random_init(
        cls,
        n_states: int,
        sequences: Sequence[np.ndarray] | None = None,
        seed: SeedLike = None,
    ) -> "GaussianEmission":
        """Create a randomly initialized Gaussian emission model.

        Means are drawn from a normal distribution matched to the data range
        and variances from a Gamma distribution, mirroring the paper's
        initialization of the toy experiment.
        """
        rng = as_generator(seed)
        if sequences:
            values = np.concatenate([np.asarray(s, dtype=np.float64) for s in sequences])
            loc, scale = float(values.mean()), float(values.std() + 1e-3)
        else:
            loc, scale = 0.0, 1.0
        means = rng.normal(loc=loc, scale=scale, size=n_states)
        variances = rng.gamma(shape=2.0, scale=max(scale, 0.5), size=n_states)
        return cls(means, np.maximum(variances, _MIN_VARIANCE))

    def log_likelihoods(self, observations: np.ndarray) -> np.ndarray:
        obs = np.asarray(observations, dtype=np.float64)
        if obs.ndim != 1:
            raise ValidationError(f"Gaussian emissions expect 1-D sequences, got {obs.shape}")
        diff = obs[:, None] - self.means[None, :]
        return -0.5 * (_LOG_2PI + np.log(self.variances)[None, :] + diff**2 / self.variances[None, :])

    def m_step_compiled(self, corpus, gamma_concat: np.ndarray) -> None:
        """Vectorized M-step: weighted moments of the concatenated corpus."""
        obs = np.asarray(corpus.concat, dtype=np.float64)
        safe = np.maximum(gamma_concat.sum(axis=0), 1e-12)
        new_means = (gamma_concat.T @ obs) / safe
        diff_sq = (obs[:, None] - new_means[None, :]) ** 2
        new_variances = np.maximum(
            np.sum(gamma_concat * diff_sq, axis=0) / safe, _MIN_VARIANCE
        )
        self.means = new_means
        self.variances = new_variances

    def sample(self, state: int, rng: np.random.Generator) -> float:
        return float(rng.normal(self.means[state], np.sqrt(self.variances[state])))

    def initialize_random(self, sequences: Sequence[np.ndarray], seed: SeedLike = None) -> None:
        fresh = self.random_init(self.n_states, sequences, seed)
        self.means = fresh.means
        self.variances = fresh.variances

    def copy(self) -> "GaussianEmission":
        return GaussianEmission(self.means.copy(), self.variances.copy())

    def to_state_dict(self) -> dict:
        return {
            "family": self.family,
            "means": self.means.copy(),
            "variances": self.variances.copy(),
        }

    @classmethod
    def _from_state_dict(cls, state: dict) -> "GaussianEmission":
        return cls(state["means"], state["variances"])

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"GaussianEmission(n_states={self.n_states})"
