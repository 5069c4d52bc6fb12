"""Log-determinant prior score and its gradient with respect to transitions.

The diversity prior of the dHMM is ``alpha * log det(K~_A)`` where ``K~_A``
is the normalized probability product kernel over the rows of the transition
matrix ``A``.  The paper quotes the closed form (Eq. 15, for rho = 0.5)

    d log|K~_A| / d A_ij = 1/2 * sum_m [K~_A^{-1}]_{mi} sqrt(A_mj / A_ij)

which is the gradient of the *unnormalized* kernel's log-determinant.  The
projected-gradient M-step evaluates its objective through the *normalized*
kernel, so this module implements the exact gradient of the normalized form
(it differs by per-row normalization terms; on the probability simplex the
two agree up to components that are constant within a row and therefore
vanish under the simplex projection).  The exact form keeps every line-search
step a true ascent direction for any ``rho > 0``.
"""

from __future__ import annotations

import numpy as np

from repro.dpp.kernels import transition_kernel_matrix
from repro.exceptions import ValidationError

_MIN_PROB = 1e-12


def _factorize_psd(arr: np.ndarray, need_inverse: bool = True):
    """One-time factorization of a symmetric PSD matrix.

    Returns ``("cholesky", L)`` when the Cholesky factorization succeeds.
    On the semi-definite fallback, returns ``("eigh", (eigvals, eigvecs))``
    with clamped eigenvalues — or the cheaper ``("eigvals", eigvals)`` when
    ``need_inverse`` is False, since eigenvectors are only required to
    reconstruct the inverse.  Both the log-determinant and (when requested)
    the inverse are derived from this single factorization, so callers
    never factorize the same kernel twice.
    """
    try:
        return "cholesky", np.linalg.cholesky(arr)
    except np.linalg.LinAlgError:
        if need_inverse:
            eigvals, eigvecs = np.linalg.eigh(arr)
            eigvals = np.clip(eigvals, np.finfo(np.float64).tiny, None)
            return "eigh", (eigvals, eigvecs)
        eigvals = np.linalg.eigvalsh(arr)
        eigvals = np.clip(eigvals, np.finfo(np.float64).tiny, None)
        return "eigvals", eigvals


def _log_det_from_factor(kind: str, factor) -> float:
    if kind == "cholesky":
        return float(2.0 * np.sum(np.log(np.diag(factor))))
    if kind == "eigh":
        return float(np.sum(np.log(factor[0])))
    return float(np.sum(np.log(factor)))


def _inverse_from_factor(kind: str, factor) -> np.ndarray:
    if kind == "cholesky":
        # Two triangular solves against the identity (cho_solve-style),
        # reusing the factor instead of a fresh LU inside ``inv``.  scipy
        # is imported here, where training needs it, so a process that
        # only serves never loads it.
        from scipy.linalg import cho_solve

        identity = np.eye(factor.shape[0])
        return cho_solve((factor, True), identity)
    if kind == "eigh":
        eigvals, eigvecs = factor
        return (eigvecs / eigvals[None, :]) @ eigvecs.T
    raise ValidationError("factorization was computed without inverse support")


def log_det_psd(matrix: np.ndarray, jitter: float = 0.0) -> float:
    """Log-determinant of a symmetric positive (semi-)definite matrix.

    Uses a Cholesky factorization and falls back to an eigenvalue
    decomposition with clamped eigenvalues when the matrix is only
    semi-definite numerically.
    """
    arr = np.asarray(matrix, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"matrix must be square, got shape {arr.shape}")
    if jitter > 0:
        arr = arr + jitter * np.eye(arr.shape[0])
    kind, factor = _factorize_psd(arr, need_inverse=False)
    return _log_det_from_factor(kind, factor)


def psd_log_det_and_solve(matrix: np.ndarray, rhs: np.ndarray) -> tuple[float, np.ndarray]:
    """``log det(matrix)`` and ``matrix^-1 rhs`` from one factorization.

    Cholesky when it succeeds, otherwise the clamped eigendecomposition of
    :func:`log_det_psd`; the solve reuses whichever factor was computed.
    """
    kind, factor = _factorize_psd(np.asarray(matrix, dtype=np.float64))
    log_det = _log_det_from_factor(kind, factor)
    if kind == "cholesky":
        from scipy.linalg import cho_solve

        return log_det, cho_solve((factor, True), rhs, check_finite=False)
    eigvals, eigvecs = factor
    return log_det, eigvecs @ ((eigvecs.T @ rhs) / eigvals[:, None])


def dpp_log_prior(
    transition_matrix: np.ndarray, rho: float = 0.5, jitter: float = 1e-10
) -> float:
    """Unnormalized log-probability of ``A`` under the DPP diversity prior.

    Returns ``log det(K~_A)`` (Eq. 6 without the constant normalizer, which
    the paper also drops).  The value is non-positive because the normalized
    kernel has unit diagonal.  Entries of ``A`` are floored at the same
    ``1e-12`` the gradient path uses, so value and gradient always refer to
    the same kernel; genuinely negative entries are rejected, not clipped.
    """
    A = np.asarray(transition_matrix, dtype=np.float64)
    if np.any(A < 0):
        raise ValidationError("transition_matrix must be non-negative")
    kernel = transition_kernel_matrix(
        np.clip(A, _MIN_PROB, None), rho=rho, jitter=jitter
    )
    return log_det_psd(kernel)


def dpp_log_prior_and_gradient(
    transition_matrix: np.ndarray, rho: float = 0.5, jitter: float = 1e-10
) -> tuple[float, np.ndarray]:
    """``log det(K~_A)`` and its exact gradient from one kernel factorization.

    The kernel is built once and factorized once (Cholesky, with an
    eigendecomposition fallback); the gradient needs the kernel inverse
    anyway, so the log-determinant is read off the factor's diagonal for
    free and the inverse comes from triangular solves against the identity
    instead of a separate LU factorization.  This is the engine behind
    :func:`dpp_log_prior_gradient` — every gradient evaluation pays for
    exactly one factorization — and serves callers that want the prior
    value and gradient at the same point.

    Gradient derivation (for the normalized correlation kernel): with
    ``P = A ** rho``, ``raw = P P^T``, ``s_i = raw_ii`` and
    ``K~ = raw / sqrt(s_i s_l)``,

        d log|K~| / dA_ij
            = 2 rho A_ij^{rho-1} *
              ( sum_l [K~^-1]_{li} P_lj / sqrt(s_i s_l)
                - [K~^-1]_{ii} P_ij / s_i
                - (1 - [K~^-1]_{ii}) P_ij / s_i )

    which is evaluated in a fully vectorized form.
    """
    A = np.asarray(transition_matrix, dtype=np.float64)
    if A.ndim != 2:
        raise ValidationError(f"transition_matrix must be 2-D, got shape {A.shape}")
    if rho <= 0:
        raise ValidationError(f"rho must be positive, got {rho}")
    if np.any(A < 0):
        raise ValidationError("transition_matrix must be non-negative")
    A = np.clip(A, _MIN_PROB, None)

    powered = A ** rho
    raw = powered @ powered.T
    row_scale = np.clip(np.diag(raw), np.finfo(np.float64).tiny, None)
    norms = np.sqrt(row_scale)

    kernel = transition_kernel_matrix(A, rho=rho, jitter=jitter)
    kind, factor = _factorize_psd(kernel)
    log_det = _log_det_from_factor(kind, factor)
    kernel_inv = _inverse_from_factor(kind, factor)
    inv_diag = np.diag(kernel_inv)

    # T1_ij = sum_l [K~^-1]_{li} P_lj / sqrt(s_i s_l)  (all l, including i)
    scaled_inv = kernel_inv / norms[:, None]           # divide row l by sqrt(s_l)
    T1 = (scaled_inv.T @ powered) / norms[:, None]     # divide row i by sqrt(s_i)
    # Remove the l = i contribution and subtract the normalization pull-back,
    # which together give  - P_ij / s_i  (the inv_diag terms cancel).
    correction = powered / row_scale[:, None]
    T1 -= inv_diag[:, None] * correction
    T2 = (1.0 - inv_diag)[:, None] * correction

    prefactor = 2.0 * rho * A ** (rho - 1.0)
    return log_det, prefactor * (T1 - T2)


def dpp_log_prior_gradient(
    transition_matrix: np.ndarray, rho: float = 0.5, jitter: float = 1e-10
) -> np.ndarray:
    """Exact gradient of ``log det(K~_A)`` with respect to the entries of ``A``.

    See :func:`dpp_log_prior_and_gradient` for the derivation; this wrapper
    discards the log-determinant.
    """
    return dpp_log_prior_and_gradient(transition_matrix, rho=rho, jitter=jitter)[1]


def paper_closed_form_gradient(transition_matrix: np.ndarray) -> np.ndarray:
    """The paper's Eq. (15) closed form (rho = 0.5, unnormalized kernel).

    Kept for reference and tested against the exact gradient: on the
    probability simplex the two differ only by components that are constant
    within each row, which the simplex projection removes.
    """
    A = np.clip(np.asarray(transition_matrix, dtype=np.float64), _MIN_PROB, None)
    kernel = transition_kernel_matrix(A, rho=0.5)
    kernel_inv = np.linalg.inv(kernel)
    sqrt_A = np.sqrt(A)
    weighted = kernel_inv.T @ sqrt_A
    return 0.5 * weighted / sqrt_A
