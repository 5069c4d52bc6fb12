"""Log-space forward-backward inference (the E-step of HMM/dHMM training).

The recursions follow Rabiner (1989) / the paper's Eq. (9)-(10) but are run
entirely in the log domain so that PoS sentences of length up to 250 with a
10K vocabulary remain numerically stable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import DimensionMismatchError
from repro.utils.maths import logsumexp, safe_log


@dataclass
class SequencePosteriors:
    """Posterior quantities of one sequence produced by forward-backward.

    Attributes
    ----------
    gamma:
        ``(T, K)`` array of unary posteriors ``q(x_t = i)``.
    xi_sum:
        ``(K, K)`` array with the pairwise posteriors summed over time,
        ``sum_t q(x_{t-1} = i, x_t = j)`` — exactly the expected transition
        counts needed by the M-step.
    log_likelihood:
        Log marginal likelihood ``log P(y_1..T)`` of the sequence.
    """

    gamma: np.ndarray
    xi_sum: np.ndarray
    log_likelihood: float


def _validate_inputs(
    log_transmat: np.ndarray, log_obs: np.ndarray, log_startprob: np.ndarray | None = None
) -> None:
    """Shared shape validation for the forward/backward recursions.

    The number of states is keyed off the observation table; the transition
    matrix (and, when given, the start distribution) must agree with it.
    """
    if log_obs.ndim != 2:
        raise DimensionMismatchError(
            f"observation log-likelihoods must be 2-D (T, K), got shape {log_obs.shape}"
        )
    n_states = log_obs.shape[1]
    if log_transmat.shape != (n_states, n_states):
        raise DimensionMismatchError(
            f"transition matrix shape {log_transmat.shape} does not match "
            f"{n_states} states"
        )
    if log_startprob is not None and log_startprob.shape != (n_states,):
        raise DimensionMismatchError(
            f"start distribution shape {log_startprob.shape} does not match "
            f"{n_states} states"
        )


def log_forward(
    log_startprob: np.ndarray, log_transmat: np.ndarray, log_obs: np.ndarray
) -> np.ndarray:
    """Forward messages ``log alpha[t, i] = log P(y_1..t, x_t = i)``."""
    log_transmat = np.ascontiguousarray(log_transmat)
    _validate_inputs(log_transmat, log_obs, log_startprob=log_startprob)
    T, n_states = log_obs.shape
    log_alpha = np.full((T, n_states), -np.inf)
    log_alpha[0] = log_startprob + log_obs[0]
    for t in range(1, T):
        log_alpha[t] = log_obs[t] + logsumexp(
            log_alpha[t - 1][:, None] + log_transmat, axis=0
        )
    return log_alpha


def log_backward(log_transmat: np.ndarray, log_obs: np.ndarray) -> np.ndarray:
    """Backward messages ``log beta[t, i] = log P(y_{t+1}..T | x_t = i)``."""
    log_transmat = np.ascontiguousarray(log_transmat)
    _validate_inputs(log_transmat, log_obs)
    T, n_states = log_obs.shape
    log_beta = np.zeros((T, n_states))
    for t in range(T - 2, -1, -1):
        log_beta[t] = logsumexp(
            log_transmat + (log_obs[t + 1] + log_beta[t + 1])[None, :], axis=1
        )
    return log_beta


def sequence_log_likelihood(
    startprob: np.ndarray, transmat: np.ndarray, log_obs: np.ndarray
) -> float:
    """Log marginal likelihood of one sequence."""
    log_alpha = log_forward(safe_log(startprob), safe_log(transmat), log_obs)
    return float(logsumexp(log_alpha[-1]))


def compute_posteriors(
    startprob: np.ndarray, transmat: np.ndarray, log_obs: np.ndarray
) -> SequencePosteriors:
    """Run forward-backward and return unary/pairwise posteriors.

    Parameters
    ----------
    startprob, transmat:
        Probability-domain initial distribution and transition matrix.
    log_obs:
        ``(T, K)`` per-state observation log-likelihoods.
    """
    log_pi = safe_log(np.asarray(startprob, dtype=np.float64))
    log_A = safe_log(np.asarray(transmat, dtype=np.float64))
    return compute_posteriors_from_log(
        log_pi, log_A, np.asarray(log_obs, dtype=np.float64)
    )


def compute_posteriors_from_log(
    log_startprob: np.ndarray, log_transmat: np.ndarray, log_obs: np.ndarray
) -> SequencePosteriors:
    """Forward-backward posteriors from *log-domain* parameters.

    Identical to :func:`compute_posteriors` but takes ``log(pi)`` and
    ``log(A)`` directly, so callers that decode many sequences (e.g. the
    inference engine's log-domain reference backend) can precompute the
    logs once instead of once per sequence.

    Every entry point reads ``log_transmat`` in C order: numpy's sums round
    by memory layout, so a transposed view of the same values would change
    the last bits of the result.
    """
    log_transmat = np.ascontiguousarray(log_transmat)
    log_alpha = log_forward(log_startprob, log_transmat, log_obs)
    log_beta = log_backward(log_transmat, log_obs)
    log_likelihood = float(logsumexp(log_alpha[-1]))

    log_gamma = log_alpha + log_beta - log_likelihood
    gamma = np.exp(log_gamma)
    gamma /= np.maximum(gamma.sum(axis=1, keepdims=True), 1e-300)

    T, n_states = log_obs.shape
    xi_sum = np.zeros((n_states, n_states))
    for t in range(1, T):
        log_xi = (
            log_alpha[t - 1][:, None]
            + log_transmat
            + (log_obs[t] + log_beta[t])[None, :]
            - log_likelihood
        )
        xi = np.exp(log_xi)
        total = xi.sum()
        if total > 0:
            xi /= total
        xi_sum += xi

    return SequencePosteriors(gamma=gamma, xi_sum=xi_sum, log_likelihood=log_likelihood)
