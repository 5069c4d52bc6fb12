"""Numerical helpers used across the HMM and DPP code."""

from __future__ import annotations

import numpy as np

#: Smallest probability kept when taking logs; prevents -inf propagation.
LOG_EPS = 1e-300


def safe_log(x: np.ndarray | float) -> np.ndarray:
    """Elementwise log that maps zeros to ``log(LOG_EPS)`` instead of ``-inf``."""
    arr = np.asarray(x, dtype=np.float64)
    # np.clip(arr, LOG_EPS, None) computes exactly this, through a slower
    # Python wrapper; per-token streaming scores call safe_log every push.
    return np.log(np.maximum(arr, LOG_EPS))


def logsumexp(values: np.ndarray, axis: int | None = None) -> np.ndarray:
    """Numerically stable ``log(sum(exp(values)))`` along ``axis``.

    Mirrors :func:`scipy.special.logsumexp` but keeps the library's hot loops
    free of scipy imports.
    """
    arr = np.asarray(values, dtype=np.float64)
    maximum = np.max(arr, axis=axis, keepdims=True)
    maximum = np.where(np.isfinite(maximum), maximum, 0.0)
    summed = np.sum(np.exp(arr - maximum), axis=axis, keepdims=True)
    with np.errstate(divide="ignore"):
        out = np.log(summed) + maximum
    if axis is None:
        return np.asarray(out).reshape(())
    return np.squeeze(out, axis=axis)


def normalize_rows(matrix: np.ndarray, pseudocount: float = 0.0) -> np.ndarray:
    """Normalize each row of ``matrix`` to sum to one.

    Degenerate rows fall back to the uniform distribution instead of
    producing NaN/inf output: a row is degenerate when its sum (after
    adding ``pseudocount``) is zero — e.g. a state never observed in
    supervised counting with ``pseudocount=0`` — or not finite.
    """
    arr = np.asarray(matrix, dtype=np.float64) + pseudocount
    sums = arr.sum(axis=1, keepdims=True)
    # In place on the fresh copy: an emission M-step normalizes a (K, V)
    # table every EM iteration, and full-size temporaries cost page faults.
    with np.errstate(invalid="ignore", divide="ignore"):
        arr /= sums
    valid = np.isfinite(sums[:, 0]) & (sums[:, 0] > 0)
    arr[~valid] = 1.0 / arr.shape[1]
    return arr


def normalize_log_probabilities(log_values: np.ndarray, axis: int = -1) -> np.ndarray:
    """Exponentiate and normalize log-domain values along ``axis``."""
    log_values = np.asarray(log_values, dtype=np.float64)
    log_norm = logsumexp(log_values, axis=axis)
    return np.exp(log_values - np.expand_dims(log_norm, axis))


def bhattacharyya_coefficient(p: np.ndarray, q: np.ndarray) -> float:
    """Bhattacharyya coefficient ``sum_i sqrt(p_i q_i)`` of two distributions."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    return float(np.sum(np.sqrt(np.clip(p, 0.0, None) * np.clip(q, 0.0, None))))


def bhattacharyya_distance(p: np.ndarray, q: np.ndarray) -> float:
    """Bhattacharyya distance ``-log BC(p, q)`` between two distributions."""
    coeff = bhattacharyya_coefficient(p, q)
    return float(-np.log(max(coeff, LOG_EPS)))
