"""Input validation helpers shared by all models."""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.exceptions import DimensionMismatchError, ValidationError

_PROB_ATOL = 1e-6


def check_probability_vector(vector, name: str = "vector", atol: float = _PROB_ATOL) -> np.ndarray:
    """Validate that ``vector`` is a 1-D probability distribution.

    Returns the vector as a float64 array.  Raises :class:`ValidationError`
    if entries are negative or do not sum to one within ``atol``.
    """
    arr = np.asarray(vector, dtype=np.float64)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValidationError(f"{name} must be non-empty")
    if np.any(~np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite entries")
    if np.any(arr < -atol):
        raise ValidationError(f"{name} contains negative entries")
    total = float(arr.sum())
    if not np.isclose(total, 1.0, atol=atol):
        raise ValidationError(f"{name} must sum to 1, got {total}")
    return arr


def check_probability_matrix(matrix, name: str = "matrix", atol: float = _PROB_ATOL) -> np.ndarray:
    """Validate that ``matrix`` is row-stochastic and return it as float64."""
    arr = np.asarray(matrix, dtype=np.float64)
    if arr.ndim != 2:
        raise ValidationError(f"{name} must be two-dimensional, got shape {arr.shape}")
    if np.any(~np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite entries")
    if np.any(arr < -atol):
        raise ValidationError(f"{name} contains negative entries")
    sums = arr.sum(axis=1)
    if not np.allclose(sums, 1.0, atol=atol):
        worst = int(np.argmax(np.abs(sums - 1.0)))
        raise ValidationError(
            f"rows of {name} must sum to 1; row {worst} sums to {sums[worst]}"
        )
    return arr


def check_square_matrix(matrix, name: str = "matrix") -> np.ndarray:
    """Validate that ``matrix`` is square and finite."""
    arr = np.asarray(matrix, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionMismatchError(f"{name} must be square, got shape {arr.shape}")
    if np.any(~np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite entries")
    return arr


def check_sequences(
    sequences: Iterable[Sequence[int]] | Iterable[np.ndarray],
    name: str = "sequences",
    min_length: int = 1,
    n_symbols: int | None = None,
    dtype=np.int64,
) -> list[np.ndarray]:
    """Validate a collection of integer observation/label sequences.

    Each sequence is converted to a 1-D integer array.  When ``n_symbols`` is
    given, entries must lie in ``[0, n_symbols)``.
    """
    out: list[np.ndarray] = []
    for idx, seq in enumerate(sequences):
        arr = np.asarray(seq, dtype=dtype)
        if arr.ndim != 1:
            raise ValidationError(f"{name}[{idx}] must be one-dimensional, got shape {arr.shape}")
        if arr.size < min_length:
            raise ValidationError(
                f"{name}[{idx}] has length {arr.size}, expected at least {min_length}"
            )
        if n_symbols is not None and arr.size > 0:
            if arr.min() < 0 or arr.max() >= n_symbols:
                raise ValidationError(
                    f"{name}[{idx}] contains symbols outside [0, {n_symbols})"
                )
        out.append(arr)
    if not out:
        raise ValidationError(f"{name} must contain at least one sequence")
    return out


def check_real_sequences(
    sequences, name: str = "sequences", min_length: int = 1
) -> list[np.ndarray]:
    """Validate real-valued observation sequences (1-D float arrays)."""
    out: list[np.ndarray] = []
    for idx, seq in enumerate(sequences):
        arr = np.asarray(seq, dtype=np.float64)
        if arr.ndim != 1:
            raise ValidationError(f"{name}[{idx}] must be one-dimensional, got shape {arr.shape}")
        if arr.size < min_length:
            raise ValidationError(
                f"{name}[{idx}] has length {arr.size}, expected at least {min_length}"
            )
        if np.any(~np.isfinite(arr)):
            raise ValidationError(f"{name}[{idx}] contains non-finite values")
        out.append(arr)
    if not out:
        raise ValidationError(f"{name} must contain at least one sequence")
    return out


def check_binary_sequences(sequences, name: str = "sequences", n_features: int | None = None) -> list[np.ndarray]:
    """Validate sequences of binary feature vectors with shape ``(T, D)``."""
    out: list[np.ndarray] = []
    for idx, seq in enumerate(sequences):
        arr = np.asarray(seq, dtype=np.float64)
        if arr.ndim != 2:
            raise ValidationError(f"{name}[{idx}] must be two-dimensional, got shape {arr.shape}")
        if n_features is not None and arr.shape[1] != n_features:
            raise DimensionMismatchError(
                f"{name}[{idx}] has {arr.shape[1]} features, expected {n_features}"
            )
        if np.any((arr != 0.0) & (arr != 1.0)):
            raise ValidationError(f"{name}[{idx}] must contain only 0/1 values")
        out.append(arr)
    if not out:
        raise ValidationError(f"{name} must contain at least one sequence")
    return out


def group_by_dtype_kind(arrays: Sequence[np.ndarray]) -> list[list[int]]:
    """Indices of ``arrays`` grouped by dtype kind, groups in first-seen order.

    Merging arrays of different kinds (``np.concatenate``, ``np.stack``)
    casts them to one dtype — a bool to an int, an int to a float — so a
    dtype check on the merged array judges the cast, not the inputs.
    Merge within each group instead: every array keeps its own kind, and
    a homogeneous input is a single group.
    """
    groups: dict[str, list[int]] = {}
    for index, array in enumerate(arrays):
        groups.setdefault(array.dtype.kind, []).append(index)
    return list(groups.values())
