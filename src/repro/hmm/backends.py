"""Inference backends: batched scaled-domain and per-sequence log-domain.

The engine (:mod:`repro.hmm.engine`) delegates all forward-backward, Viterbi
and likelihood computations to an :class:`InferenceBackend`.  Every backend
method runs over a :class:`~repro.hmm.corpus.CompiledCorpus` and its
extended emission score table (``forward_backward_corpus`` /
``viterbi_corpus`` / ``log_likelihood_corpus``), plus ``viterbi_long`` for
one long sequence.  Two backends are provided:

* :class:`ScaledBatchedBackend` — the default.  Runs the forward-backward
  recursions in the probability domain with Rabiner's per-timestep scaling,
  so no ``logsumexp`` appears in any inner loop, over the corpus' padded
  length-buckets, so every timestep is a single ``(B, K) @ (K, K)`` matmul
  over the whole bucket.  The pairwise posteriors ``xi_sum`` of a bucket
  come from one batched ``(B, K, L) @ (B, L, K)`` matmul instead of a
  Python loop over ``T``.  Viterbi decoding runs batched in the *log*
  domain (its recursion is max-only, so no scaling is needed) through a
  fused kernel that is bit-identical to the reference — see
  :meth:`_viterbi_bucket`.  Long sequences (the corpus' ``long_windows``)
  take the chunked Viterbi and segment-scan kernels of :mod:`repro.hmm.longseq`.
* :class:`LogDomainBackend` — the original per-sequence log-space
  recursions, looped over the corpus one sequence at a time and kept as a
  bit-identical reference so equivalence of the scaled engine is testable
  (see ``tests/test_hmm_engine.py``).

Scaling scheme
--------------
For each timestep the per-state observation log-likelihoods are shifted by
their row maximum ``m_t = max_i log b_i(y_t)`` before exponentiation, so the
probability-domain observation weights lie in ``[0, 1]``.  The forward
messages are renormalized to sum to one after every step; the normalizers
``c_t`` (together with the shifts ``m_t``) recover the exact log marginal
likelihood as ``sum_t (log c_t + m_t)``.  The backward messages reuse the
same ``c_t``, which makes ``gamma_t = alpha_hat_t * beta_hat_t`` and

    xi_t[i, j] = alpha_hat_{t-1}[i] * A[i, j] * obs_t[j] * beta_hat_t[j] / c_t

exactly normalized — identical (up to rounding) to the log-domain reference.
"""

from __future__ import annotations

import abc
from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.exceptions import DimensionMismatchError, ValidationError
from repro.hmm.corpus import CompiledCorpus, CorpusPosteriors
from repro.hmm.forward_backward import compute_posteriors_from_log, log_forward
from repro.hmm.longseq import (
    ArraySource,
    LongDecodeResult,
    checkpointed_posteriors,
    chunked_viterbi,
    streaming_log_likelihood,
)
from repro.hmm.viterbi import viterbi_decode_from_log
from repro.utils.maths import logsumexp, safe_log

__all__ = [
    "InferenceBackend",
    "ScaledBatchedBackend",
    "LogDomainBackend",
    "BatchedStreamingSession",
    "StreamStep",
    "available_backends",
    "build_backend",
    "viterbi_backpointer_dtype",
]


#: Smallest admissible scaling constant; prevents division by zero when an
#: entire forward message underflows (mirrors ``LOG_EPS`` of the reference).
_TINY = 1e-300


def viterbi_backpointer_dtype(n_states: int) -> np.dtype:
    """Smallest unsigned integer dtype that can index ``n_states`` states.

    Viterbi backpointer tensors have shape ``(B, L_max, K)``; storing them
    as int64 wastes 8 bytes per entry when the state space is tiny (the
    paper's workloads have K <= 45).  uint8 covers K <= 256, uint16 covers
    K <= 65536; beyond that the int64 of the reference implementation is
    kept.
    """
    if n_states < 1:
        raise ValidationError(f"n_states must be positive, got {n_states}")
    if n_states - 1 <= np.iinfo(np.uint8).max:
        return np.dtype(np.uint8)
    if n_states - 1 <= np.iinfo(np.uint16).max:
        return np.dtype(np.uint16)
    return np.dtype(np.int64)


class InferenceBackend(abc.ABC):
    """Strategy object performing HMM inference over a compiled corpus.

    Every corpus method takes probability-domain parameters, a
    :class:`~repro.hmm.corpus.CompiledCorpus` and its ``(n_tokens + 1, K)``
    emission score table (:meth:`CompiledCorpus.score` /
    :meth:`CompiledCorpus.extend_scores`), and returns per-sequence results
    in corpus order.  The caller (the engine) scores the corpus once and
    caches derived parameters, handing ``log(pi)`` / ``log(A)`` over through
    the ``log_startprob`` / ``log_transmat`` keywords.
    """

    name: str = "abstract"

    @staticmethod
    def _check_corpus(
        startprob: np.ndarray,
        transmat: np.ndarray,
        corpus: CompiledCorpus,
        scores_ext: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Float64 parameters and score table, checked against each other.

        An un-extended ``(n_tokens, K)`` table would silently shift every
        split boundary and truncate the last sequence; insist on the
        ``(n_tokens + 1, K)`` shape that :meth:`CompiledCorpus.score` /
        :meth:`CompiledCorpus.extend_scores` produce.
        """
        startprob = np.asarray(startprob, dtype=np.float64)
        transmat = np.asarray(transmat, dtype=np.float64)
        _check_params(startprob, transmat)
        scores_ext = np.asarray(scores_ext, dtype=np.float64)
        expected = (corpus.n_tokens + 1, startprob.shape[0])
        if scores_ext.shape != expected:
            raise DimensionMismatchError(
                f"corpus score table must have shape {expected} "
                f"(CompiledCorpus.score output), got {scores_ext.shape}"
            )
        return startprob, transmat, scores_ext

    @abc.abstractmethod
    def forward_backward_corpus(
        self,
        startprob: np.ndarray,
        transmat: np.ndarray,
        corpus: CompiledCorpus,
        scores_ext: np.ndarray,
        log_startprob: np.ndarray | None = None,
        log_transmat: np.ndarray | None = None,
        sequence_xi: bool = False,
    ) -> CorpusPosteriors:
        """Stacked posterior statistics over a whole compiled corpus.

        With ``sequence_xi`` the result also carries every sequence's own
        expected transition counts (:attr:`CorpusPosteriors.sequence_xi`),
        which the per-sequence posterior entry points return.
        """

    @abc.abstractmethod
    def viterbi_corpus(
        self,
        startprob: np.ndarray,
        transmat: np.ndarray,
        corpus: CompiledCorpus,
        scores_ext: np.ndarray,
        log_startprob: np.ndarray | None = None,
        log_transmat: np.ndarray | None = None,
    ) -> list[tuple[np.ndarray, float]]:
        """Most likely path and joint log-probability per corpus sequence."""

    @abc.abstractmethod
    def log_likelihood_corpus(
        self,
        startprob: np.ndarray,
        transmat: np.ndarray,
        corpus: CompiledCorpus,
        scores_ext: np.ndarray,
        log_startprob: np.ndarray | None = None,
        log_transmat: np.ndarray | None = None,
    ) -> np.ndarray:
        """Log marginal likelihood of every corpus sequence (1-D array)."""

    @abc.abstractmethod
    def viterbi_long(
        self,
        startprob: np.ndarray,
        transmat: np.ndarray,
        source,
        *,
        window: int,
        overlap: int,
        group_size: int | None = None,
        log_startprob: np.ndarray | None = None,
        log_transmat: np.ndarray | None = None,
    ) -> LongDecodeResult:
        """Chunked Viterbi over one long sequence (see :func:`chunked_viterbi`)."""


def _check_params(startprob: np.ndarray, transmat: np.ndarray) -> None:
    if startprob.ndim != 1:
        raise DimensionMismatchError(
            f"start distribution must be 1-D, got shape {startprob.shape}"
        )
    n_states = startprob.shape[0]
    if transmat.shape != (n_states, n_states):
        raise DimensionMismatchError(
            f"transition matrix shape {transmat.shape} does not match "
            f"{n_states} states"
        )


class ScaledBatchedBackend(InferenceBackend):
    """Rabiner-scaled probability-domain recursions over padded buckets.

    Parameters
    ----------
    bucket_size:
        Maximum number of sequences processed together in one padded
        ``(B, L_max, K)`` tensor.  Sequences are sorted by length first, so
        buckets are nearly rectangular.
    """

    name = "scaled"

    def __init__(self, bucket_size: int = 64) -> None:
        if bucket_size < 1:
            raise ValueError(f"bucket_size must be positive, got {bucket_size}")
        self.bucket_size = bucket_size
        #: dtype of the most recent Viterbi backpointer allocation;
        #: introspection hook for the benchmark's memory-footprint gate.
        self.last_backpointer_dtype: np.dtype | None = None

    @staticmethod
    def _obs_weights(log_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-timestep max-shifted observation weights ``exp(log_b - m)``."""
        shift = np.max(log_b, axis=2)
        shift = np.where(np.isfinite(shift), shift, 0.0)
        return np.exp(log_b - shift[:, :, None]), shift

    # -------------------------------------------------------------- #
    # Bucket kernels
    # -------------------------------------------------------------- #
    def _forward_bucket(  # repro: hot-path
        self,
        startprob: np.ndarray,
        transmat: np.ndarray,
        log_b: np.ndarray,
        lengths: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Scaled forward pass over one padded bucket.

        Returns ``(alpha_hat, c, obs, shift, log_likelihoods, underflow)``
        where ``alpha_hat[b, t]`` is the normalized forward message,
        ``c[b, t]`` its normalizer (1 in the padded region), ``obs``/``shift``
        the max-shifted observation weights, and ``underflow`` a boolean mask
        of sequences whose forward message vanished in the probability
        domain (their ``log_likelihoods`` entries are unreliable and must be
        recomputed with the log-domain reference).
        """
        batch, max_len, _ = log_b.shape
        obs, shift = self._obs_weights(log_b)

        alpha_hat = np.empty_like(obs)
        scale = np.ones((batch, max_len))

        alpha = startprob[None, :] * obs[:, 0]
        raw = alpha.sum(axis=1)
        # A forward message summing to exactly zero means the probability
        # domain underflowed (either a genuinely impossible sequence or an
        # extreme >700-nat spread only the log domain can represent).  Such
        # sequences are flagged and recomputed with the log-domain reference
        # recursions, so the scaled backend never misreports them.
        underflow = raw < _TINY
        c0 = np.maximum(raw, _TINY)
        alpha = alpha / c0[:, None]
        alpha_hat[:, 0] = alpha
        scale[:, 0] = c0

        for t in range(1, max_len):  # repro: loop-ok[inherent time recursion]
            active = t < lengths
            propagated = (alpha @ transmat) * obs[:, t]
            raw = propagated.sum(axis=1)
            underflow |= active & (raw < _TINY)
            c_t = np.where(active, np.maximum(raw, _TINY), 1.0)
            alpha = np.where(active[:, None], propagated / c_t[:, None], alpha)
            alpha_hat[:, t] = alpha
            scale[:, t] = c_t

        mask = np.arange(max_len)[None, :] < lengths[:, None]
        log_likelihoods = (
            np.log(scale)  # repro: ignore[hot-path-unguarded-log] -- scale is clamped to _TINY by the recursion above
            + np.where(mask, shift, 0.0)
        ).sum(axis=1)
        return alpha_hat, scale, obs, shift, log_likelihoods, underflow

    def _fb_corpus_bucket(  # repro: hot-path
        self,
        startprob: np.ndarray,
        transmat: np.ndarray,
        log_b: np.ndarray,
        lengths: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Forward-backward over one padded bucket of a compiled corpus.

        Returns ``(gamma, xi_rows, log_likelihoods)``: ``gamma`` is the
        padded ``(B, L, K)`` posterior tensor (ready to scatter through the
        bucket's position map) and ``xi_rows`` the ``(B, K, K)`` expected
        transition counts of each sequence, from one batched
        ``(B, K, L) @ (B, L, K)`` matmul instead of a Python loop over the
        bucket's sequences.  Underflowed rows are repaired in place with
        the log-domain reference.
        """
        batch, max_len, n_states = log_b.shape
        alpha_hat, scale, obs, _, log_likelihoods, underflow = self._forward_bucket(
            startprob, transmat, log_b, lengths
        )

        # Underflowed rows are recomputed by the log-domain reference below;
        # their pass through here can legitimately overflow (scale clamped to
        # _TINY), so silence the spurious warnings in that case only.
        errstate = (
            {"over": "ignore", "invalid": "ignore", "divide": "ignore"}
            if underflow.any()
            else {}
        )
        with np.errstate(**errstate):
            beta_hat = np.empty_like(obs)
            beta = np.ones((batch, n_states))
            beta_hat[:, max_len - 1] = beta
            for t in range(max_len - 2, -1, -1):  # repro: loop-ok[inherent backward time recursion]
                update = (t + 1) < lengths
                weighted = obs[:, t + 1] * beta
                propagated = (weighted @ transmat.T) / scale[:, t + 1, None]
                beta = np.where(update[:, None], propagated, beta)
                beta_hat[:, t] = beta

            gamma = alpha_hat * beta_hat
            gamma /= np.maximum(gamma.sum(axis=2, keepdims=True), _TINY)
            # xi weight w[b, t, j] = obs * beta_hat / c_t, so a sequence's
            # xi_sum is A * (alpha_hat[:-1].T @ w[1:]).
            xi_weight = obs * beta_hat / scale[:, :, None]

        if max_len > 1:
            # Mask invalid (padded / underflowed) timestep pairs by
            # *assignment*, not multiplication: an underflowed row can hold
            # inf in xi_weight, and inf * 0 would poison its matmul with NaN.
            valid = np.arange(1, max_len)[None, :] < lengths[:, None]
            pair_ok = (valid & ~underflow[:, None])[:, :, None]
            a = np.where(pair_ok, alpha_hat[:, :-1, :], 0.0)
            w = np.where(pair_ok, xi_weight[:, 1:, :], 0.0)
            xi_rows = transmat * (a.transpose(0, 2, 1) @ w)
        else:
            xi_rows = np.zeros((batch, n_states, n_states))

        if underflow.any():
            log_pi, log_A = safe_log(startprob), safe_log(transmat)
            for b in np.flatnonzero(underflow):  # repro: loop-ok[rare underflow repair]
                length = int(lengths[b])
                ref = compute_posteriors_from_log(log_pi, log_A, log_b[b, :length])
                gamma[b, :length] = ref.gamma
                xi_rows[b] = ref.xi_sum
                log_likelihoods[b] = ref.log_likelihood
        return gamma, xi_rows, log_likelihoods

    # -------------------------------------------------------------- #
    # Compiled-corpus kernels (zero per-sequence Python on the hot path)
    # -------------------------------------------------------------- #
    def forward_backward_corpus(
        self, startprob, transmat, corpus, scores_ext,
        log_startprob=None, log_transmat=None, sequence_xi=False,
    ) -> CorpusPosteriors:
        startprob, transmat, scores_ext = self._check_corpus(
            startprob, transmat, corpus, scores_ext
        )
        n_states = startprob.shape[0]
        # One sentinel row absorbs every padded scatter position.
        gamma_ext = np.empty((corpus.n_tokens + 1, n_states))
        start_counts = np.zeros(n_states)
        xi_sum = np.zeros((n_states, n_states))
        xi_seq = (
            np.empty((corpus.n_sequences, n_states, n_states)) if sequence_xi else None
        )
        lls = np.empty(corpus.n_sequences)

        for bucket in corpus.buckets:
            gamma, xi_rows, ll_part = self._fb_corpus_bucket(
                startprob, transmat, corpus.gather(scores_ext, bucket),
                bucket.lengths,
            )
            gamma_ext[bucket.positions] = gamma
            # Only the per-sequence entry points keep the rows; training
            # reads the bucket total alone.
            xi_sum += xi_rows.sum(axis=0)
            start_counts += gamma[:, 0].sum(axis=0)
            lls[bucket.idx] = ll_part
            if xi_seq is not None:
                xi_seq[bucket.idx] = xi_rows
        for lw in corpus.long_windows:
            # Long sequences bypass the padded buckets: the block-wise
            # segment scan over a view of the corpus score table keeps the
            # working set at a few blocks per sequence, whatever T is.
            r = checkpointed_posteriors(
                startprob,
                transmat,
                ArraySource(scores_ext[lw.offset : lw.offset + lw.length]),
            )
            gamma_ext[lw.offset : lw.offset + lw.length] = r.gamma
            xi_sum += r.xi_sum
            start_counts += r.gamma[0]
            lls[lw.seq_index] = r.log_likelihood
            if xi_seq is not None:
                xi_seq[lw.seq_index] = r.xi_sum
        return CorpusPosteriors(
            gamma_concat=gamma_ext[:-1],
            start_counts=start_counts,
            xi_sum=xi_sum,
            log_likelihoods=lls,
            sequence_xi=xi_seq,
        )

    def viterbi_corpus(
        self, startprob, transmat, corpus, scores_ext,
        log_startprob=None, log_transmat=None,
    ) -> list[tuple[np.ndarray, float]]:
        startprob, transmat, scores_ext = self._check_corpus(
            startprob, transmat, corpus, scores_ext
        )
        log_pi, log_AT = self._viterbi_log_params(
            startprob, transmat, log_startprob, log_transmat
        )
        results: list[tuple[np.ndarray, float]] = [None] * corpus.n_sequences

        for bucket in corpus.buckets:
            bucket_results = self._viterbi_bucket(
                log_pi, log_AT, corpus.gather(scores_ext, bucket),
                bucket.lengths,
            )
            for j, res in zip(bucket.idx, bucket_results):
                results[j] = res
        for lw in corpus.long_windows:
            # Long sequences decode through the chunked stitcher instead of
            # one giant padded bucket row.
            long_res = self.viterbi_long(
                startprob,
                transmat,
                ArraySource(scores_ext[lw.offset : lw.offset + lw.length]),
                window=lw.window,
                overlap=lw.overlap,
                log_startprob=log_startprob,
                log_transmat=log_transmat,
            )
            results[lw.seq_index] = (long_res.path, long_res.log_joint)
        return results

    def log_likelihood_corpus(
        self, startprob, transmat, corpus, scores_ext,
        log_startprob=None, log_transmat=None,
    ) -> np.ndarray:
        startprob, transmat, scores_ext = self._check_corpus(
            startprob, transmat, corpus, scores_ext
        )
        lls = np.empty(corpus.n_sequences)

        for bucket in corpus.buckets:
            log_b = corpus.gather(scores_ext, bucket)
            _, _, _, _, bucket_lls, underflow = self._forward_bucket(
                startprob, transmat, log_b, bucket.lengths
            )
            if underflow.any():
                log_pi, log_A = safe_log(startprob), safe_log(transmat)
                for b in np.flatnonzero(underflow):
                    log_alpha = log_forward(
                        log_pi, log_A, log_b[b, : bucket.lengths[b]]
                    )
                    bucket_lls[b] = float(logsumexp(log_alpha[-1]))
            lls[bucket.idx] = bucket_lls
        for lw in corpus.long_windows:
            # Forward-only segment scan: one block of memory per long sequence.
            lls[lw.seq_index] = streaming_log_likelihood(
                startprob,
                transmat,
                ArraySource(scores_ext[lw.offset : lw.offset + lw.length]),
            )
        return lls

    def _viterbi_bucket(  # repro: hot-path
        self,
        log_startprob: np.ndarray,
        log_transmat_T: np.ndarray,
        log_b: np.ndarray,
        lengths: np.ndarray,
    ) -> list[tuple[np.ndarray, float]]:
        """Fused batched Viterbi over one padded bucket.

        Unlike forward-backward, the Viterbi recursion contains no
        ``logsumexp`` — only max — so it vectorizes in the log domain at
        full speed.  Running it there removes everything the old
        probability-domain kernel spent most of its time on: the ``exp`` of
        the whole observation tensor, the per-timestep peak normalization
        (max / clamp / divide / log), and the ``_TINY`` underflow fallback
        (log-space cannot underflow).  As a bonus every elementary float
        operation now matches :func:`viterbi_decode_from_log` exactly, so
        decoded paths and joint log-probabilities are *bit-identical* to
        the log-domain reference, tie-breaking included.

        The fused inner step is three vectorized ops against preallocated,
        reused buffers: one broadcast add of the ``(B, K)`` message against
        the pre-transposed *contiguous* transition table
        (``scores[b, j, i] = delta[b, i] + log A[i, j]``), one argmax over
        the contiguous last axis, and one flat gather of the winning scores
        through the argmax (instead of a second full max reduction), folded
        into the observation add.  Backpointers live in the smallest
        integer dtype that can index the state space (uint8/uint16 for the
        paper's workloads, not int64), and because buckets are sorted by
        length, rows whose sequence has ended drop off the *front* of every
        buffer — each timestep only touches the still-active suffix, with
        no masked ``np.where`` updates at all.
        """
        if lengths.size > 1 and np.any(lengths[:-1] > lengths[1:]):
            # Callers (compiled corpora, long-sequence windows) always hand
            # over length-sorted buckets; re-sort defensively if not.
            order = np.argsort(lengths, kind="stable")
            sorted_results = self._viterbi_bucket(
                log_startprob, log_transmat_T, log_b[order], lengths[order]
            )
            results: list[tuple[np.ndarray, float]] = [None] * lengths.size
            for pos, res in zip(order, sorted_results):  # repro: loop-ok[defensive unsort]
                results[pos] = res
            return results

        batch, max_len, n_states = log_b.shape
        rows = np.arange(batch)

        delta = log_startprob[None, :] + log_b[:, 0]
        backpointers = np.zeros(
            (batch, max_len, n_states), dtype=viterbi_backpointer_dtype(n_states)
        )
        self.last_backpointer_dtype = backpointers.dtype
        scores = np.empty((batch, n_states, n_states))
        arg = np.empty((batch, n_states), dtype=np.intp)
        best = np.empty(batch * n_states)
        gather_idx = np.empty(batch * n_states, dtype=np.intp)
        flat_offsets = np.arange(batch * n_states, dtype=np.intp) * n_states
        for t in range(1, max_len):  # repro: loop-ok[inherent time recursion]
            # First row still alive at time t (lengths are sorted ascending).
            first = int(np.searchsorted(lengths, t, side="right"))
            n_active = batch - first
            if n_active == 0:
                break
            flat = n_active * n_states
            sub_scores = scores[:n_active]
            sub_arg = arg[:n_active]
            np.add(
                delta[first:, None, :], log_transmat_T[None, :, :], out=sub_scores
            )
            sub_scores.argmax(axis=2, out=sub_arg)
            np.add(flat_offsets[:flat], sub_arg.reshape(-1), out=gather_idx[:flat])
            np.take(sub_scores.reshape(-1), gather_idx[:flat], out=best[:flat])
            np.add(
                best[:flat].reshape(n_active, n_states),
                log_b[first:, t],
                out=delta[first:],
            )
            backpointers[first:, t] = sub_arg

        final_state = delta.argmax(axis=1)
        log_joint = delta[rows, final_state]

        paths = np.zeros((batch, max_len), dtype=np.int64)
        paths[rows, lengths - 1] = final_state
        for t in range(max_len - 2, -1, -1):  # repro: loop-ok[inherent backtrack recursion]
            within = (t + 1) < lengths
            follow = backpointers[rows, t + 1, paths[:, t + 1]]
            paths[:, t] = np.where(within, follow, paths[:, t])

        return [
            (paths[b, : lengths[b]].copy(), float(log_joint[b])) for b in range(batch)
        ]

    def _viterbi_log_params(
        self,
        startprob: np.ndarray,
        transmat: np.ndarray,
        log_startprob: np.ndarray | None,
        log_transmat: np.ndarray | None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(log pi, contiguous log A^T)`` for the log-domain Viterbi kernel."""
        if log_startprob is None:
            log_startprob = safe_log(np.asarray(startprob, dtype=np.float64))
        if log_transmat is None:
            log_transmat = safe_log(np.asarray(transmat, dtype=np.float64))
        return log_startprob, np.ascontiguousarray(log_transmat.T)

    def viterbi_long(
        self,
        startprob: np.ndarray,
        transmat: np.ndarray,
        source,
        *,
        window: int,
        overlap: int,
        group_size: int | None = None,
        log_startprob: np.ndarray | None = None,
        log_transmat: np.ndarray | None = None,
    ) -> LongDecodeResult:
        """Chunked Viterbi feeding window groups straight to the fused kernel.

        Each group of windows becomes one padded ``(G, window, K)`` bucket
        decoded by :meth:`_viterbi_bucket` — no per-window repack, no
        length sorting (all windows have equal length).  ``group_size``
        defaults to the backend's ``bucket_size``.
        """
        startprob = np.asarray(startprob, dtype=np.float64)
        transmat = np.asarray(transmat, dtype=np.float64)
        _check_params(startprob, transmat)
        log_pi, log_AT = self._viterbi_log_params(
            startprob, transmat, log_startprob, log_transmat
        )
        if group_size is None:
            group_size = self.bucket_size

        def decode_bucket(start_log, padded, lengths):
            return self._viterbi_bucket(start_log, log_AT, padded, lengths)

        # log_AT.T is exactly log(A) (the kernel keeps the transpose
        # contiguous); reuse it for stitch scoring instead of re-deriving.
        return chunked_viterbi(
            log_pi,
            log_AT.T,
            source,
            window=window,
            overlap=overlap,
            group_size=group_size,
            decode_bucket=decode_bucket,
        )


class LogDomainBackend(InferenceBackend):
    """Reference backend: the original per-sequence log-space recursions.

    Loops over the corpus one sequence at a time (``corpus.tables``) and
    runs :func:`repro.hmm.forward_backward.compute_posteriors_from_log` /
    :func:`repro.hmm.viterbi.viterbi_decode_from_log` on each, exactly as
    calling them sequence by sequence would; long sequences are decoded
    whole, never chunked.  The only difference is that ``log(pi)`` /
    ``log(A)`` are taken once per call (the engine caches them across
    calls) instead of once per sequence.
    """

    name = "log"

    def _prepare(
        self, startprob, transmat, corpus, scores_ext, log_startprob, log_transmat
    ):
        """Checked ``(log pi, log A, per-sequence tables)`` for the loops below."""
        startprob, transmat, scores_ext = self._check_corpus(
            startprob, transmat, corpus, scores_ext
        )
        if log_startprob is None:
            log_startprob = safe_log(startprob)
        if log_transmat is None:
            log_transmat = safe_log(transmat)
        return log_startprob, log_transmat, corpus.tables(scores_ext)

    def forward_backward_corpus(
        self, startprob, transmat, corpus, scores_ext,
        log_startprob=None, log_transmat=None, sequence_xi=False,
    ) -> CorpusPosteriors:
        log_pi, log_A, tables = self._prepare(
            startprob, transmat, corpus, scores_ext, log_startprob, log_transmat
        )
        results = [compute_posteriors_from_log(log_pi, log_A, table) for table in tables]
        xi = np.array([r.xi_sum for r in results])
        return CorpusPosteriors(
            gamma_concat=np.concatenate([r.gamma for r in results]),
            start_counts=np.sum([r.gamma[0] for r in results], axis=0),
            xi_sum=xi.sum(axis=0),
            log_likelihoods=np.array([r.log_likelihood for r in results]),
            sequence_xi=xi if sequence_xi else None,
        )

    def viterbi_corpus(
        self, startprob, transmat, corpus, scores_ext,
        log_startprob=None, log_transmat=None,
    ) -> list[tuple[np.ndarray, float]]:
        log_pi, log_A, tables = self._prepare(
            startprob, transmat, corpus, scores_ext, log_startprob, log_transmat
        )
        return [viterbi_decode_from_log(log_pi, log_A, table) for table in tables]

    def log_likelihood_corpus(
        self, startprob, transmat, corpus, scores_ext,
        log_startprob=None, log_transmat=None,
    ) -> np.ndarray:
        log_pi, log_A, tables = self._prepare(
            startprob, transmat, corpus, scores_ext, log_startprob, log_transmat
        )
        return np.array(
            [float(logsumexp(log_forward(log_pi, log_A, table)[-1])) for table in tables]
        )

    def viterbi_long(
        self,
        startprob: np.ndarray,
        transmat: np.ndarray,
        source,
        *,
        window: int,
        overlap: int,
        group_size: int | None = None,
        log_startprob: np.ndarray | None = None,
        log_transmat: np.ndarray | None = None,
    ) -> LongDecodeResult:
        """Chunked Viterbi decoding each window with the reference recursion."""
        startprob = np.asarray(startprob, dtype=np.float64)
        transmat = np.asarray(transmat, dtype=np.float64)
        _check_params(startprob, transmat)
        if log_startprob is None:
            log_startprob = safe_log(startprob)
        if log_transmat is None:
            log_transmat = safe_log(transmat)

        def decode_bucket(start_log, padded, lengths):
            return [
                viterbi_decode_from_log(start_log, log_transmat, padded[b, :n])
                for b, n in enumerate(lengths)
            ]

        return chunked_viterbi(
            log_startprob,
            log_transmat,
            source,
            window=window,
            overlap=overlap,
            group_size=64 if group_size is None else group_size,
            decode_bucket=decode_bucket,
        )


# ------------------------------------------------------------------ #
# Streaming (incremental) inference
# ------------------------------------------------------------------ #
@dataclass
class StreamStep:
    """Result of advancing one stream of a :class:`BatchedStreamingSession`.

    Attributes
    ----------
    t:
        Zero-based index of the timestep just consumed.
    filtering:
        Filtering posterior ``p(x_t | y_1..t)`` of length ``K``.
    log_likelihood:
        Running log marginal likelihood ``log P(y_1..t)``.
    finalized:
        Newly finalized ``(position, state)`` pairs from the fixed-lag
        Viterbi window (empty until the window exceeds the lag).
    """

    t: int
    filtering: np.ndarray
    log_likelihood: float
    finalized: list[tuple[int, int]] = field(default_factory=list)


@dataclass
class _StreamSlot:
    """Bookkeeping of one stream inside a :class:`BatchedStreamingSession`."""

    lag: int | None
    t: int = -1
    next_emit: int = 0
    #: backpointer columns (as lists) for times (next_emit, t]; bp[i]
    #: belongs to time next_emit + 1 + i.
    bp: deque = field(default_factory=deque)
    finished: bool = False


class BatchedStreamingSession:
    """Incremental inference over online streams: filtering + fixed-lag Viterbi.

    Each call to :meth:`step_many` consumes one emission log-likelihood row
    per advancing stream and maintains two log-domain recursions per stream:

    * the forward (filtering) recursion, yielding the posterior
      ``p(x_t | y_1..t)`` and the running log marginal likelihood after
      every step — the quantities an online tagger shows per token;
    * the Viterbi recursion over a sliding window of ``lag`` backpointer
      columns.  Once ``lag`` further observations have arrived, the label
      of a position is *finalized* by backtracking from the current best
      state; :meth:`finish` flushes the remaining window with a full
      backtrack.

    The forward and Viterbi messages of all streams are stacked in one
    ``(B, 2, K)`` array, so one tick over M advancing streams runs both
    ``K x K`` propagations as a single vectorized ``(M, 2, K, K)``
    broadcast/reduction.  A single online sequence is a session with one
    stream, stepped one row per tick; that is what
    :class:`~repro.serving.StreamingDecoder` runs.

    Every step equals the offline log-domain reference exactly: its
    ``log_likelihood`` is the ``logsumexp`` of the
    :func:`~repro.hmm.forward_backward.log_forward` row, its ``filtering``
    is that row normalized, the labels finalized at step ``t`` are
    :func:`~repro.hmm.viterbi.viterbi_decode_from_log` on the prefix up to
    ``t``, and :meth:`finish` returns the full-sequence Viterbi path from
    the first unfinalized position on (so with ``lag >= T`` or
    ``lag=None`` the emitted path *is* the Viterbi path).  Each reduction
    runs over the same ``K`` values in the same order as the reference,
    and argmax breaks ties on the first index; the exact equalities are
    asserted in ``tests/test_hmm_streaming_batch.py``.  The per-step cost
    is ``O(K^2)`` per stream.

    Streams are independent: they may have different lags, start at
    different times (:meth:`add_stream` mid-flight), advance on different
    ticks (pass an explicit ``streams`` subset to :meth:`step_many`) and
    finish independently (:meth:`finish` frees the slot for reuse).
    """

    def __init__(
        self,
        log_startprob: np.ndarray,
        log_transmat: np.ndarray,
        lags: Sequence[int | None] = (),
    ) -> None:
        self._log_pi = np.asarray(log_startprob, dtype=np.float64)
        self._log_A = np.asarray(log_transmat, dtype=np.float64)
        n_states = self._log_pi.shape[0]
        if self._log_A.shape != (n_states, n_states):
            raise DimensionMismatchError(
                f"transition matrix shape {self._log_A.shape} does not match "
                f"{n_states} states"
            )
        self.n_states = n_states
        self._slots: list[_StreamSlot] = []
        self._free: list[int] = []
        #: per-stream messages: [:, 0] forward log-alpha, [:, 1] Viterbi delta.
        self._messages = np.zeros((0, 2, n_states))
        for lag in lags:
            self.add_stream(lag)

    # -------------------------------------------------------------- #
    @property
    def n_streams(self) -> int:
        """Number of active (unfinished) streams."""
        return sum(1 for slot in self._slots if not slot.finished)

    def active_streams(self) -> list[int]:
        """Ids of all unfinished streams, in id order."""
        return [i for i, slot in enumerate(self._slots) if not slot.finished]

    def add_stream(self, lag: int | None = None) -> int:
        """Open one more stream; returns its id (finished slots are reused)."""
        if lag is not None and lag < 1:
            raise ValidationError(f"lag must be at least 1, got {lag}")
        if self._free:
            i = self._free.pop()
            self._slots[i] = _StreamSlot(lag=lag)
            self._messages[i] = 0.0
            return i
        self._slots.append(_StreamSlot(lag=lag))
        pad = np.zeros((1, 2, self.n_states))
        self._messages = np.concatenate([self._messages, pad])
        return len(self._slots) - 1

    def _slot(self, i: int) -> _StreamSlot:
        if not 0 <= i < len(self._slots):
            raise ValidationError(f"unknown stream id {i}")
        return self._slots[i]

    # -------------------------------------------------------------- #
    @staticmethod
    def _backtrack(
        slot: _StreamSlot, state: int, down_to: int
    ) -> list[tuple[int, int]]:
        """States of positions ``down_to .. t`` on a stream's best path.

        ``state`` is the argmax of the stream's current Viterbi message.
        """
        states = [state]
        for tau in range(slot.t, down_to, -1):
            state = slot.bp[tau - slot.next_emit - 1][state]
            states.append(state)
        states.reverse()
        return list(zip(range(down_to, slot.t + 1), states))

    def _tail(self, i: int) -> list[tuple[int, int]]:
        """Stream ``i``'s current best labels from its first unfinalized position."""
        slot = self._slots[i]
        if slot.t < 0:
            return []
        return self._backtrack(slot, int(np.argmax(self._messages[i, 1])), slot.next_emit)

    def step_many(  # repro: hot-path
        self,
        log_obs_rows: np.ndarray,
        streams: Sequence[int] | None = None,
    ) -> list[StreamStep]:
        """Advance several streams by one token each, as one batched tick.

        Parameters
        ----------
        log_obs_rows:
            ``(M, K)`` emission log-likelihood rows, one per advancing
            stream, aligned with ``streams``.
        streams:
            Ids of the streams consuming a token this tick; defaults to
            every active stream (in id order).

        Returns one :class:`StreamStep` per advanced stream, in order.
        """
        rows = np.asarray(log_obs_rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != self.n_states:
            raise DimensionMismatchError(
                f"expected log-likelihood rows of shape (M, {self.n_states}), "
                f"got {rows.shape}"
            )
        if streams is None:
            streams = self.active_streams()
        streams = [int(i) for i in streams]
        if len(streams) != rows.shape[0]:
            raise ValidationError(
                f"{rows.shape[0]} rows for {len(streams)} streams"
            )
        if len(set(streams)) != len(streams):
            raise ValidationError("duplicate stream ids in one tick")
        slots = [self._slot(i) for i in streams]
        finished = [i for i, slot in zip(streams, slots) if slot.finished]
        if finished:
            raise ValidationError(f"cannot step finished stream {finished[0]}")
        if not streams:
            return []

        # One recursion over all M rows and both messages: a single
        # (M, 2, K, K) broadcast whose max over the previous state is both
        # the forward logsumexp's peak and the Viterbi score.  Streams
        # taking their first token then overwrite their rows with
        # log(pi) + row; a tick of first tokens only has nothing to
        # propagate.  Both logsumexp reductions are
        # repro.utils.maths.logsumexp inlined op for op, with the ufunc
        # reductions called directly to skip the ndarray method wrappers.
        fresh = [m for m, slot in enumerate(slots) if slot.t < 0]
        bp_columns: list[list[int]] = []
        with np.errstate(divide="ignore"):
            if len(fresh) == len(slots):
                messages = (self._log_pi + rows)[:, None, :].repeat(2, axis=1)
            else:
                scores = self._messages.take(streams, axis=0)[:, :, :, None] + self._log_A
                best = np.maximum.reduce(scores, axis=2)
                bp_columns = scores[:, 1].argmax(axis=1).tolist()
                peak = np.where(np.isfinite(best[:, :1]), best[:, :1], 0.0)
                alpha = scores[:, 0] - peak
                np.exp(alpha, out=alpha)
                best[:, 0] = np.log(np.add.reduce(alpha, axis=1)) + peak[:, 0]  # repro: ignore[hot-path-unguarded-log] -- exact logsumexp: a zero sum must give -inf, a clamp would change underflowing rows
                messages = best + rows[:, None, :]
                if fresh:
                    messages[fresh] = (self._log_pi + rows[fresh])[:, None, :]
            self._messages[streams] = messages

            new_alpha = messages[:, 0]
            peak = np.maximum.reduce(new_alpha, axis=1, keepdims=True)
            peak = np.where(np.isfinite(peak), peak, 0.0)
            summed = np.add.reduce(np.exp(new_alpha - peak), axis=1, keepdims=True)
            log_likelihood = np.log(summed) + peak  # repro: ignore[hot-path-unguarded-log] -- exact logsumexp: a zero sum must give -inf, a clamp would change underflowing rows
        filtering = np.exp(new_alpha - log_likelihood)
        filtering /= np.add.reduce(filtering, axis=1, keepdims=True)

        # Per-stream values become Python scalars once per tick, so the
        # bookkeeping loop below makes no numpy calls.
        log_likelihoods = log_likelihood[:, 0].tolist()
        best_states = messages[:, 1].argmax(axis=1).tolist()
        steps: list[StreamStep] = []
        for m, slot in enumerate(slots):  # repro: loop-ok[per-stream step assembly]
            slot.t += 1
            if slot.t:
                slot.bp.append(bp_columns[m])
            finalized: list[tuple[int, int]] = []
            if slot.lag is not None and slot.t - slot.next_emit >= slot.lag:
                last = slot.t - slot.lag
                finalized = self._backtrack(slot, best_states[m], slot.next_emit)[
                    : last - slot.next_emit + 1
                ]
                slot.next_emit = last + 1
                while len(slot.bp) > slot.t - slot.next_emit:  # repro: loop-ok[bounded window trim]
                    slot.bp.popleft()
            steps.append(
                StreamStep(
                    t=slot.t,
                    filtering=filtering[m].copy(),
                    log_likelihood=log_likelihoods[m],
                    finalized=finalized,
                )
            )
        return steps

    def step(self, stream: int, log_obs_t: np.ndarray) -> StreamStep:
        """Advance one stream by one token (a one-row :meth:`step_many`)."""
        row = np.asarray(log_obs_t, dtype=np.float64).reshape(1, -1)
        return self.step_many(row, [stream])[0]

    def finish(self, stream: int) -> list[tuple[int, int]]:
        """Finalize one stream's remaining window and free its slot.

        Returns the remaining ``(position, state)`` pairs: the full-sequence
        Viterbi path from the first unfinalized position on.  When no label
        was finalized early (``lag >= T`` or ``lag=None``) that is the whole
        Viterbi path.  A finished stream returns ``[]``.
        """
        slot = self._slot(stream)
        if slot.finished:
            return []
        slot.finished = True
        remaining = self._tail(stream)
        slot.bp.clear()
        slot.next_emit = slot.t + 1
        self._free.append(stream)
        return remaining

    def peek_tail(self, stream: int) -> list[tuple[int, int]]:
        """One stream's provisional tail labels, without finalizing it.

        Returns the same ``(position, state)`` pairs :meth:`finish` would
        emit for ``stream`` right now, but keeps the stream open: the
        window is not flushed, and further steps may still revise these
        labels (they are provisional, exactly like the tail of a chunked
        decode window before its overlap is stitched).
        """
        if self._slot(stream).finished:
            return []
        return self._tail(stream)


_BACKENDS = {
    ScaledBatchedBackend.name: ScaledBatchedBackend,
    LogDomainBackend.name: LogDomainBackend,
}


def available_backends() -> tuple[str, ...]:
    """Names of the registered inference backends."""
    return tuple(sorted(_BACKENDS))


def build_backend(name: str, bucket_size: int = 64) -> InferenceBackend:
    """Instantiate a backend by name (``"scaled"`` or ``"log"``)."""
    try:
        cls = _BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown inference backend {name!r}; available: {available_backends()}"
        ) from None
    if cls is ScaledBatchedBackend:
        return cls(bucket_size=bucket_size)
    return cls()
