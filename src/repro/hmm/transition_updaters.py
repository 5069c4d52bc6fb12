"""Pluggable M-step updates for the transition matrix.

The only place where the dHMM differs from the classical Baum-Welch
algorithm is the M-step for the transition matrix ``A``.  The trainer
therefore delegates that update to a :class:`TransitionUpdater`; the plain
maximum-likelihood updater lives here, and the diversity-regularized updater
(a converged ascent of counts + DPP log-det) lives in
:mod:`repro.core.transition_prior`.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.utils.maths import normalize_rows


class TransitionUpdater(abc.ABC):
    """Strategy object computing the M-step update of the transition matrix."""

    @abc.abstractmethod
    def update(self, expected_counts: np.ndarray, current: np.ndarray) -> np.ndarray:
        """Return the new transition matrix.

        Parameters
        ----------
        expected_counts:
            ``(K, K)`` matrix of expected transition counts
            ``sum_n sum_t q(x_{t-1}=i, x_t=j)`` accumulated over all
            training sequences in the E-step (or raw counts in the
            supervised case).
        current:
            The transition matrix from the previous iteration, used as the
            starting point by iterative updaters.
        """

    def objective(self, expected_counts: np.ndarray, transmat: np.ndarray) -> float:
        """Objective value this updater maximizes (for convergence traces)."""
        safe = np.clip(transmat, 1e-300, None)
        return float(np.sum(expected_counts * np.log(safe)))

    def log_prior(self, transmat: np.ndarray) -> float:
        """Log prior of ``transmat`` added to the likelihood in the MAP objective.

        The maximum-likelihood updaters have none (0.0), so their MAP
        objective is the likelihood itself.
        """
        return 0.0


class MaximumLikelihoodTransitionUpdater(TransitionUpdater):
    """Classical Baum-Welch closed-form update: normalize expected counts.

    An optional pseudocount implements simple Dirichlet smoothing, which is
    also what the "Optimized HMM" baseline uses.
    """

    def __init__(self, pseudocount: float = 0.0) -> None:
        if pseudocount < 0:
            raise ValueError(f"pseudocount must be non-negative, got {pseudocount}")
        self.pseudocount = pseudocount

    def update(self, expected_counts: np.ndarray, current: np.ndarray) -> np.ndarray:
        counts = np.asarray(expected_counts, dtype=np.float64)
        return normalize_rows(counts, pseudocount=self.pseudocount)
