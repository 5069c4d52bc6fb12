"""Compiled corpus: encode a dataset once, reuse it across every EM iteration.

Training hammers the same corpus over and over: every EM iteration re-scores
the same observations, re-buckets the same lengths, re-pads the same index
structure and then walks the sequences in Python to accumulate statistics.
None of that structure changes between iterations — only the model
parameters do.  :class:`CompiledCorpus` hoists all of it out of the loop:

* the observations are concatenated into one flat token array (``concat``),
  so emission scoring is a single vectorized call per iteration — one
  ``(K, V)`` log-table lookup for categorical emissions, one matmul pair for
  Bernoulli;
* the sequences are assigned to padded length-buckets once, and each bucket
  stores a ``(B, L_max)`` *position tensor* indexing into the concatenated
  array (padding points at a sentinel row), so materializing a bucket's
  ``(B, L_max, K)`` emission tensor is one fancy-index — no per-sequence
  Python, no re-padding;
* the same position tensors serve as scatter maps on the way back: bucket
  level posteriors are written into a concatenated ``(N, K)`` ``gamma``
  array with one fancy-index assignment per bucket, which is exactly the
  layout the vectorized emission M-steps (bincount / matmul over the flat
  corpus) consume.

The compiled structure is emission-agnostic (it stores the raw observation
arrays) and model-agnostic (no probabilities are baked in), so one compile
serves every EM iteration, every restart of an ablation grid, and every
batched decode over the same dataset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.exceptions import DimensionMismatchError, ValidationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hmm.emissions.base import EmissionModel


def bucket_indices(lengths: Sequence[int], bucket_size: int) -> list[np.ndarray]:
    """Group sequence indices into padded length-buckets.

    Sequences are sorted by length (stable) and chunked into groups of at
    most ``bucket_size``, so each bucket holds sequences of similar length
    and the padding waste of processing the bucket as one dense
    ``(B, L_max, K)`` tensor stays small.

    Returns
    -------
    list of integer arrays, each an index set into the original ordering.
    """
    if bucket_size < 1:
        raise ValueError(f"bucket_size must be positive, got {bucket_size}")
    order = np.argsort(np.asarray(lengths), kind="stable")
    return [order[i : i + bucket_size] for i in range(0, order.size, bucket_size)]


@dataclass(frozen=True)
class LongSequenceWindows:
    """Window-decode plan for one long sequence of a :class:`CompiledCorpus`.

    Sequences longer than the corpus' ``long_threshold`` are kept out of
    the padded length-buckets — one ``(1, T, K)`` bucket row would both
    serialize the recursion and materialize O(T * K) tensors — and instead
    carry this plan: the inference backends route them through the chunked
    long-sequence kernels (:mod:`repro.hmm.longseq`) over a view of the
    corpus score table.

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


@dataclass(frozen=True)
class CorpusBucket:
    """One padded length-bucket of a :class:`CompiledCorpus`.

    Attributes
    ----------
    idx:
        ``(B,)`` sequence indices (into the corpus ordering) of the bucket.
    lengths:
        ``(B,)`` sequence lengths, aligned with ``idx``.
    positions:
        ``(B, L_max)`` int64 indices into the concatenated token array;
        padded slots hold ``n_tokens`` (the sentinel row appended by
        :meth:`CompiledCorpus.score`).  Used both to *gather* padded
        emission tensors and to *scatter* bucket posteriors back into the
        flat ``(N, K)`` layout.
    """

    idx: np.ndarray
    lengths: np.ndarray
    positions: np.ndarray

    @property
    def max_len(self) -> int:
        return self.positions.shape[1]


class CompiledCorpus:
    """One-time encoding of a sequence dataset for repeated batched inference.

    Parameters
    ----------
    sequences:
        Observation sequences (1-D for categorical/Gaussian emissions, 2-D
        ``(T, D)`` for Bernoulli).  All sequences must share dimensionality.
    bucket_size:
        Maximum number of sequences per padded length-bucket; align it with
        the inference backend's ``bucket_size``
        (:meth:`repro.hmm.engine.InferenceEngine.compile` does).
    long_threshold:
        Sequences longer than this stay out of the padded buckets and are
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
        bucket_size: int = 64,
        long_threshold: int | None = None,
        decode_window: int | None = None,
        decode_overlap: int | None = None,
    ) -> None:
        if bucket_size < 1:
            raise ValidationError(f"bucket_size must be positive, got {bucket_size}")
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
        self.bucket_size = int(bucket_size)
        self.lengths = np.array([a.shape[0] for a in arrays], dtype=np.int64)
        self.offsets = np.zeros(len(arrays) + 1, dtype=np.int64)
        np.cumsum(self.lengths, out=self.offsets[1:])
        self.concat = np.concatenate(arrays, axis=0) if len(arrays) > 1 else arrays[0]
        self.long_threshold = long_threshold
        self.decode_window = int(decode_window)
        self.decode_overlap = int(decode_overlap)
        # Long sequences (length > long_threshold) bypass the padded
        # buckets entirely: they compile into window-decode plans the
        # backends route through the chunked long-sequence kernels.
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
            short_idx = np.arange(len(arrays), dtype=np.int64)
        self.buckets: list[CorpusBucket] = []
        for sub in bucket_indices(self.lengths[short_idx], self.bucket_size):
            idx = short_idx[sub]
            blens = self.lengths[idx]
            max_len = int(blens.max())
            span = np.arange(max_len, dtype=np.int64)
            positions = np.where(
                span[None, :] < blens[:, None],
                self.offsets[idx][:, None] + span[None, :],
                self.n_tokens,
            )
            self.buckets.append(
                CorpusBucket(idx=idx, lengths=blens, positions=positions)
            )

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
        """Emission log-likelihoods of the whole corpus, ready to gather.

        Returns an ``(n_tokens + 1, K)`` table: the concatenated corpus is
        scored with one vectorized call
        (:meth:`~repro.hmm.emissions.base.EmissionModel.log_likelihoods`)
        and a zero sentinel row is appended so padded bucket positions
        gather finite zeros — exactly the padding the bucket kernels were
        written against.
        """
        return self.extend_scores(emissions.log_likelihoods(self.concat))

    def extend_scores(self, scores: np.ndarray) -> np.ndarray:  # repro: hot-path
        """Append the padding sentinel row to a custom ``(n_tokens, K)`` table.

        For callers that derive their own corpus-level emission scores
        (e.g. baselines re-weighting log-likelihoods before decoding)
        instead of going through :meth:`score`.
        """
        scores = np.asarray(scores, dtype=np.float64)
        if scores.ndim != 2 or scores.shape[0] != self.n_tokens:
            raise DimensionMismatchError(
                f"corpus score table must have shape ({self.n_tokens}, K), "
                f"got {scores.shape}"
            )
        ext = np.empty((self.n_tokens + 1, scores.shape[1]))
        ext[:-1] = scores
        ext[-1] = 0.0
        return ext

    def gather(
        self, scores_ext: np.ndarray, bucket: CorpusBucket
    ) -> np.ndarray:  # repro: hot-path
        """Padded ``(B, L_max, K)`` emission tensor of one bucket (one fancy-index)."""
        return scores_ext[bucket.positions]

    def split(self, concat_values: np.ndarray) -> list[np.ndarray]:
        """Split a ``(n_tokens, ...)`` array into per-sequence views."""
        return np.split(concat_values, self.offsets[1:-1])

    def tables(self, scores_ext: np.ndarray) -> list[np.ndarray]:
        """Per-sequence ``(T, K)`` emission tables (views into ``scores_ext``)."""
        return self.split(scores_ext[:-1])

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"CompiledCorpus(n_sequences={self.n_sequences}, "
            f"n_tokens={self.n_tokens}, n_buckets={len(self.buckets)}, "
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
