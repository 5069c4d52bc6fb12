"""Compiled corpus: encode a dataset once, reuse it across every EM iteration.

Training hammers the same corpus over and over: every EM iteration re-scores
the same observations and walks the same sequences through the same
recursions.  None of that structure changes between iterations — only the
model parameters do.  :class:`CompiledCorpus` hoists all of it out of the
loop:

* the observations are concatenated into one flat token array (``concat``),
  so emissions are evaluated with a single vectorized call per iteration:
  the E-step asks the emission model for the observation weights of the
  packed rows (one gather of ``B``'s columns for categorical emissions, no
  log table), and decoding scores ``concat`` into an ``(n_tokens, K)`` log
  table in the same order (:meth:`CompiledCorpus.score`);
* the sequences are packed time-major once (:class:`PackedPlan`, the
  ``PackedSequence`` layout of PyTorch's ``pack_padded_sequence``): sorted
  by length, longest first, so the ``n_t`` sequences still active at step
  ``t`` are the leading ranks and their tokens occupy one contiguous block
  of packed rows.  A recursion step over the whole corpus is then a slice
  — no padding, no mask — and the number of Python steps is the longest
  sequence's length, not a sum over length-buckets;
* the plan's ``rows`` map each packed row to its concatenated token, so
  the kernels gather their packed inputs (from ``B`` or from the score
  table) and return posteriors to a concatenated ``(N, K)`` ``gamma`` with
  one fancy-index each — exactly the layout the vectorized emission
  M-steps (a sparse token-indicator product for categorical emissions,
  matmuls for the others, over the flat corpus) consume.

The compiled structure is emission-agnostic (it stores the raw observation
arrays) and model-agnostic (no probabilities are baked in), so one compile
serves every EM iteration, every restart of an ablation grid, and every
batched decode over the same dataset.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.exceptions import DimensionMismatchError, ValidationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hmm.emissions.base import EmissionModel


@dataclass(frozen=True)
class LongSequenceWindows:
    """Window-decode plan for one long sequence of a :class:`CompiledCorpus`.

    Sequences longer than the corpus' ``long_threshold`` are kept out of
    the packed plan — one such sequence would add T serial recursion steps
    for every corpus kernel call and materialize O(T * K) tensors — and
    instead carry this plan: the inference backends route them through the
    chunked long-sequence kernels (:mod:`repro.hmm.longseq`) over a view of
    the corpus score table.

    Attributes
    ----------
    seq_index:
        Index of the sequence in the corpus ordering.
    offset / length:
        The sequence's slice ``[offset, offset + length)`` of the
        concatenated token array (and of the corpus score table).
    window / overlap:
        Chunked-decode knobs frozen at compile time (from
        :class:`~repro.core.config.InferenceConfig` by default).
    """

    seq_index: int
    offset: int
    length: int
    window: int
    overlap: int

    @property
    def n_windows(self) -> int:
        """Number of decode windows the plan produces."""
        from repro.hmm.longseq import plan_windows

        return len(plan_windows(self.length, self.window, self.overlap))


@dataclass(frozen=True, eq=False)
class PackedPlan:
    """Time-major packed layout of a set of sequences.

    The sequences are ranked by length, longest first (ties keep corpus
    order), and stored step by step: step ``t`` holds one packed row for
    each of the ``batch_sizes[t]`` sequences longer than ``t`` — ranks
    ``0 .. batch_sizes[t] - 1`` in rank order — at packed rows
    ``step_offsets[t] .. step_offsets[t + 1] - 1``.  Because
    ``batch_sizes`` never increases, the rows active at step ``t`` are a
    prefix of the rows active at step ``t - 1``.

    Attributes
    ----------
    order:
        ``(S,)`` sequence indices (into the corpus ordering) by rank.
    batch_sizes:
        ``(L,)`` number of sequences active at each step; ``L`` is the
        longest length and ``batch_sizes[0] == S``.
    step_offsets:
        ``(L + 1,)`` first packed row of each step (cumulative
        ``batch_sizes``).
    rows:
        ``(R,)`` concatenated-token index of every packed row: the
        permutation from packed order to concatenated order.
    ranks:
        ``(R,)`` rank of the sequence every packed row belongs to.
    n_tokens:
        Length of the concatenated token array the rows index.
    """

    order: np.ndarray
    batch_sizes: np.ndarray
    step_offsets: np.ndarray
    rows: np.ndarray
    ranks: np.ndarray
    n_tokens: int

    @classmethod
    def build(cls, idx: np.ndarray, lengths: np.ndarray, offsets: np.ndarray) -> "PackedPlan":
        """Pack sequences ``idx`` given the corpus' ``lengths`` / ``offsets``."""
        idx = np.asarray(idx, dtype=np.intp)
        order = idx[np.argsort(-lengths[idx], kind="stable")]
        neg_lengths = -lengths[order]  # ascending
        max_len = -int(neg_lengths[0]) if order.size else 0
        steps = np.arange(max_len, dtype=np.intp)
        # batch_sizes[t] = number of sequences longer than t.
        batch_sizes = np.searchsorted(neg_lengths, -steps)
        step_offsets = np.zeros(max_len + 1, dtype=np.intp)
        np.cumsum(batch_sizes, out=step_offsets[1:])
        ranks = np.arange(step_offsets[-1], dtype=np.intp) - np.repeat(
            step_offsets[:-1], batch_sizes
        )
        # Packed row (t, rank) is token t of sequence order[rank].
        rows = offsets[order][ranks] + np.repeat(steps, batch_sizes)
        return cls(order, batch_sizes, step_offsets, rows, ranks, int(offsets[-1]))

    @property
    def n_rows(self) -> int:
        """Number of packed rows (tokens of the packed sequences)."""
        return int(self.rows.size)

    @cached_property
    def inverse(self) -> np.ndarray:
        """``(n_tokens,)`` packed row of every concatenated token.

        Tokens of sequences outside the plan map to row 0.  Packed results
        return to concatenated order through this map with one gather,
        which is faster than scattering through ``rows``.
        """
        inverse = np.zeros(self.n_tokens, dtype=np.intp)
        inverse[self.rows] = np.arange(self.n_rows, dtype=np.intp)
        return inverse


class CompiledCorpus:
    """One-time encoding of a sequence dataset for repeated batched inference.

    Parameters
    ----------
    sequences:
        Observation sequences (1-D for categorical/Gaussian emissions, 2-D
        ``(T, D)`` for Bernoulli).  All sequences must share dimensionality.
    long_threshold:
        Sequences longer than this stay out of the packed plan and are
        compiled into :class:`LongSequenceWindows` plans instead (see
        ``long_windows``); ``None`` (the default for direct construction)
        disables long-sequence routing.
        :meth:`~repro.hmm.engine.InferenceEngine.compile` fills it from
        :class:`~repro.core.config.InferenceConfig`.
    decode_window / decode_overlap:
        Window plan knobs recorded on each long sequence's plan; default to
        4096 / 256 when ``long_threshold`` is set without them.
    """

    def __init__(
        self,
        sequences: Sequence[np.ndarray],
        long_threshold: int | None = None,
        decode_window: int | None = None,
        decode_overlap: int | None = None,
    ) -> None:
        if decode_window is None:
            decode_window = 4096
        if decode_overlap is None:
            decode_overlap = 256
        if decode_window < 2 * decode_overlap:
            raise ValidationError(
                f"decode_window must be at least 2 * decode_overlap "
                f"({2 * decode_overlap}), got {decode_window}"
            )
        if long_threshold is not None and long_threshold < decode_window:
            raise ValidationError(
                f"long_threshold must be at least decode_window "
                f"({decode_window}), got {long_threshold}"
            )
        arrays = [np.asarray(seq) for seq in sequences]
        if not arrays:
            raise ValidationError("cannot compile an empty corpus")
        first = arrays[0]
        for arr in arrays:
            if arr.ndim != first.ndim or arr.shape[1:] != first.shape[1:]:
                raise DimensionMismatchError(
                    f"all sequences must share dimensionality; got shapes "
                    f"{first.shape} and {arr.shape}"
                )
            if arr.ndim == 0 or arr.shape[0] < 1:
                raise DimensionMismatchError("sequences must have at least one timestep")
        self.sequences = arrays
        self.lengths = np.array([a.shape[0] for a in arrays], dtype=np.int64)
        self.offsets = np.zeros(len(arrays) + 1, dtype=np.int64)
        np.cumsum(self.lengths, out=self.offsets[1:])
        self.concat = np.concatenate(arrays, axis=0) if len(arrays) > 1 else arrays[0]
        self.long_threshold = long_threshold
        self.decode_window = int(decode_window)
        self.decode_overlap = int(decode_overlap)
        # Long sequences (length > long_threshold) stay out of the packed
        # plan: they compile into window-decode plans the backends route
        # through the chunked long-sequence kernels.
        self.long_windows: list[LongSequenceWindows] = []
        if long_threshold is not None:
            long_mask = self.lengths > long_threshold
            for j in np.flatnonzero(long_mask):
                self.long_windows.append(
                    LongSequenceWindows(
                        seq_index=int(j),
                        offset=int(self.offsets[j]),
                        length=int(self.lengths[j]),
                        window=self.decode_window,
                        overlap=self.decode_overlap,
                    )
                )
            short_idx = np.flatnonzero(~long_mask)
        else:
            short_idx = np.arange(len(arrays))
        self.packed = PackedPlan.build(short_idx, self.lengths, self.offsets)

    # -------------------------------------------------------------- #
    @property
    def n_sequences(self) -> int:
        """Number of sequences in the corpus."""
        return len(self.sequences)

    @property
    def n_tokens(self) -> int:
        """Total number of timesteps across all sequences."""
        return int(self.offsets[-1])

    # -------------------------------------------------------------- #
    def score(self, emissions: "EmissionModel") -> np.ndarray:  # repro: hot-path
        """Emission log-likelihoods of the whole corpus.

        Returns the ``(n_tokens, K)`` table in concatenated token order:
        the concatenated corpus is scored with one vectorized call
        (:meth:`~repro.hmm.emissions.base.EmissionModel.log_likelihoods`).
        Decoding and likelihood scoring run on it; the training E-step
        takes the emission model itself and builds no table.  Callers
        deriving their own corpus-level scores (e.g. baselines re-weighting
        log-likelihoods before decoding) pass any table of this shape to
        the corpus kernels instead.
        """
        return emissions.log_likelihoods(self.concat)

    def split(self, concat_values: np.ndarray) -> list[np.ndarray]:
        """Split a ``(n_tokens, ...)`` array into per-sequence views."""
        # Plain slicing: np.split pays a few microseconds per piece.
        bounds = self.offsets.tolist()
        return [concat_values[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"CompiledCorpus(n_sequences={self.n_sequences}, "
            f"n_tokens={self.n_tokens}, max_packed_len={self.packed.batch_sizes.size}, "
            f"n_long={len(self.long_windows)})"
        )


@dataclass
class CorpusPosteriors:
    """Corpus-level sufficient statistics of one forward-backward pass.

    Unlike the per-sequence :class:`~repro.hmm.forward_backward.SequencePosteriors`
    list, everything here is already stacked/accumulated in the layout the
    M-step consumes, so trainer-side accumulation loops disappear.

    Attributes
    ----------
    gamma_concat:
        ``(n_tokens, K)`` unary posteriors in concatenated token order
        (``corpus.split`` recovers the per-sequence arrays).
    start_counts:
        ``(K,)`` sum of ``gamma[0]`` over all sequences — the ``pi`` M-step
        numerator.
    xi_sum:
        ``(K, K)`` expected transition counts summed over all sequences —
        the transition M-step input.
    log_likelihoods:
        ``(n_sequences,)`` per-sequence log marginal likelihoods.
    sequence_xi:
        ``(n_sequences, K, K)`` expected transition counts of each sequence
        on its own, kept only when the caller asks the backend for them
        (the per-sequence posterior entry points); ``None`` otherwise, so
        training never holds the per-sequence array.
    """

    gamma_concat: np.ndarray
    start_counts: np.ndarray
    xi_sum: np.ndarray
    log_likelihoods: np.ndarray
    sequence_xi: np.ndarray | None = None

    @property
    def log_likelihood(self) -> float:
        """Total corpus log-likelihood."""
        return float(self.log_likelihoods.sum())
