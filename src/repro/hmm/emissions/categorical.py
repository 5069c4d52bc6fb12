"""Categorical (multinomial) emissions used for PoS tagging over a vocabulary."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import ValidationError
from repro.hmm.emissions.base import EmissionModel
from repro.utils.maths import normalize_rows, safe_log
from repro.utils.rng import SeedLike, as_generator


class CategoricalEmission(EmissionModel):
    """Per-state categorical distribution over a discrete vocabulary.

    Parameters
    ----------
    emission_probs:
        Row-stochastic matrix ``B`` of shape ``(n_states, n_symbols)``;
        ``B[i, v] = P(y_t = v | x_t = i)``.
    """

    family = "categorical"

    def __init__(self, emission_probs: np.ndarray) -> None:
        B = np.asarray(emission_probs, dtype=np.float64)
        if B.ndim != 2:
            raise ValidationError(f"emission_probs must be 2-D, got shape {B.shape}")
        if np.any(B < 0):
            raise ValidationError("emission_probs must be non-negative")
        sums = B.sum(axis=1)
        if not np.allclose(sums, 1.0, atol=1e-6):
            raise ValidationError("rows of emission_probs must sum to 1")
        if np.allclose(sums, 1.0, rtol=0.0, atol=1e-12):
            # Already normalized: keep the caller's buffer.  This preserves
            # read-only memory-mapped tables (serving artifacts loaded with
            # mmap=True) — renormalizing would silently copy the whole
            # table onto the private heap, defeating page sharing.
            self.emission_probs = B
        else:
            self.emission_probs = B / sums[:, None]
        self.n_states, self.n_symbols = B.shape

    @classmethod
    def random_init(
        cls, n_states: int, n_symbols: int, seed: SeedLike = None, concentration: float = 1.0
    ) -> "CategoricalEmission":
        """Draw each state's emission row from a symmetric Dirichlet."""
        rng = as_generator(seed)
        rows = rng.dirichlet(np.full(n_symbols, concentration), size=n_states)
        return cls(rows)

    def _symbols(self, observations: np.ndarray) -> np.ndarray:
        """``observations`` as a checked 1-D array of in-range integer symbols."""
        obs = np.asarray(observations)
        if obs.ndim != 1:
            raise ValidationError(f"Categorical emissions expect 1-D sequences, got {obs.shape}")
        if obs.size == 0:
            return obs
        if obs.dtype.kind not in "iu":
            raise ValidationError(
                f"categorical observations must be integer symbols, got dtype {obs.dtype}"
            )
        if obs.min() < 0 or obs.max() >= self.n_symbols:
            raise ValidationError("observation symbol out of range")
        return obs

    def log_likelihoods(self, observations: np.ndarray) -> np.ndarray:
        """Emission table from one fancy-index and one log.

        ``log`` is elementwise, so gathering then logging equals logging
        the ``(K, V)`` table then gathering, bit for bit; the cheaper order
        is picked from the input.  An input with at least ``V`` tokens (a
        training corpus) logs the table once (``K * V`` logs instead of
        ``N * K``); a short one, such as a serving micro-batch or a stream
        tick, logs only the ``N * K`` gathered entries.
        """
        obs = self._symbols(observations)
        if obs.size == 0:
            return np.empty((0, self.n_states))
        if obs.size < self.n_symbols:
            return safe_log(self.emission_probs.T[obs])
        return safe_log(self.emission_probs).T[obs]

    def scaled_likelihoods(  # repro: hot-path
        self, observations: np.ndarray, rows: np.ndarray, out: np.ndarray
    ) -> tuple[np.ndarray, None]:
        """The weights are ``B``'s own columns: one gather, no log, no shift.

        Row ``r`` is column ``observations[rows[r]]`` of ``B``, copied
        from a contiguous ``B^T`` (one ``(V, K)`` transpose per call).  A
        symbol no state emits gives a zero row; the forward pass then
        flags the sequence as vanished and the log-domain reference
        recomputes it.
        """
        symbols = self._symbols(observations)
        table = np.ascontiguousarray(self.emission_probs.T)
        # mode="clip" lets take write straight into ``out``; the symbols
        # were checked in range above.
        return np.take(table, symbols[rows], axis=0, out=out, mode="clip"), None

    def log_likelihoods_batch(self, sequences: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Score the concatenated corpus in one call, then split per sequence."""
        arrays = [np.asarray(seq) for seq in sequences]
        for obs in arrays:
            if obs.ndim != 1:
                raise ValidationError(
                    f"Categorical emissions expect 1-D sequences, got {obs.shape}"
                )
        if not arrays:
            return []
        flat = np.concatenate(arrays) if len(arrays) > 1 else arrays[0]
        bounds = np.cumsum([a.shape[0] for a in arrays])[:-1]
        return np.split(self.log_likelihoods(flat), bounds)

    def m_step_compiled(self, corpus, gamma_concat: np.ndarray) -> None:
        """Vectorized M-step: one sparse product over the corpus.

        The expected counts ``sum_{t: y_t = v} gamma_t`` are the product of
        the ``(V, N)`` token-indicator matrix with ``gamma``.  Built in CSC
        form, column ``t`` holding a single 1 at row ``y_t``, scipy's
        product walks the tokens in order and adds each ``gamma`` row to
        its symbol's row: the additions of a per-state weighted
        ``bincount``, in the same order, so the counts equal it bit for
        bit in one pass over ``gamma``.
        """
        # Imported here: serving processes load this module but never fit,
        # and scipy.sparse would add ~14 ms to their start-up.
        import scipy.sparse

        tokens = self._symbols(corpus.concat)
        n_tokens = tokens.shape[0]
        indicator = scipy.sparse.csc_array(
            (np.ones(n_tokens), tokens, np.arange(n_tokens + 1)),
            shape=(self.n_symbols, n_tokens),
        )
        counts = indicator @ np.ascontiguousarray(gamma_concat, dtype=np.float64)
        self.emission_probs = normalize_rows(np.ascontiguousarray(counts.T))

    def sample(self, state: int, rng: np.random.Generator) -> int:
        return int(rng.choice(self.n_symbols, p=self.emission_probs[state]))

    def initialize_random(self, sequences: Sequence[np.ndarray], seed: SeedLike = None) -> None:
        fresh = self.random_init(self.n_states, self.n_symbols, seed)
        self.emission_probs = fresh.emission_probs

    def copy(self) -> "CategoricalEmission":
        return CategoricalEmission(self.emission_probs.copy())

    def to_state_dict(self) -> dict:
        return {"family": self.family, "emission_probs": self.emission_probs.copy()}

    @classmethod
    def _from_state_dict(cls, state: dict) -> "CategoricalEmission":
        return cls(state["emission_probs"])

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"CategoricalEmission(n_states={self.n_states}, n_symbols={self.n_symbols})"
