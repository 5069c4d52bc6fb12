"""Inference backends: batched scaled-domain and per-sequence log-domain.

The engine (:mod:`repro.hmm.engine`) delegates all forward-backward, Viterbi
and likelihood computations to an :class:`InferenceBackend`.  Every backend
method runs over a :class:`~repro.hmm.corpus.CompiledCorpus` and its
emissions (``forward_backward_corpus`` / ``viterbi_corpus`` /
``log_likelihood_corpus``).  ``viterbi_long``, the chunked decode of one
long sequence, is written once on the base class; a backend supplies only
its decode of one group of equal-length windows (``_viterbi_bucket``).
The model parameters arrive as one :class:`ModelParams`: float64 ``pi``
and ``A`` with their logs and transposes, each derived once.  The emissions
are the ``(n_tokens, K)`` log-likelihood table or the
:class:`~repro.hmm.emissions.base.EmissionModel` itself; the scaled
forward-backward kernel asks a model for probability-domain weights in
packed order, and every other kernel scores it into the table.  Two
backends are provided:

* :class:`ScaledBatchedBackend` — the default.  Runs the forward-backward
  recursions in the probability domain with Rabiner's per-timestep scaling,
  so no ``logsumexp`` appears in any inner loop, over the corpus' packed
  time-major layout (:class:`~repro.hmm.corpus.PackedPlan`): step ``t`` is
  one ``(n_t, K) @ (K, K)`` matmul over the contiguous rows of the ``n_t``
  sequences still active, so a whole corpus takes one Python step per
  position of its longest sequence.  The expected transition counts
  ``xi_sum`` accumulate one ``(K, n_t) @ (n_t, K)`` matmul per step.
  Viterbi decoding runs in the *log* domain (its recursion is max-only, so
  no scaling is needed) through one fused kernel that is bit-identical to
  the reference — see :meth:`~ScaledBatchedBackend._viterbi_packed`.  It
  decodes packed corpora and requests, and each long-sequence window
  group as the packed plan of equal-length sequences it is.  Long
  sequences (the corpus' ``long_windows``) take the chunked Viterbi and
  segment-scan kernels of :mod:`repro.hmm.longseq`.
* :class:`LogDomainBackend` — the original per-sequence log-space
  recursions, looped over the corpus one sequence at a time (and over a
  window group one window at a time) and kept as a bit-identical reference
  so equivalence of the scaled engine is testable (see
  ``tests/test_hmm_engine.py``).

Scaling scheme
--------------
The observation weights of timestep ``t`` are ``b_i(y_t) / exp(m_t)``: from
a log table, the row shifted by its maximum ``m_t = max_i log b_i(y_t)``
before exponentiation, so the weights lie in ``[0, 1]``; from a model,
whatever :meth:`~repro.hmm.emissions.base.EmissionModel.scaled_likelihoods`
returns (categorical emissions: the column of ``B``, ``m_t = 0``).  The
forward messages are renormalized to sum to one after every step; the
normalizers ``c_t`` (together with the shifts ``m_t``) recover the exact
log marginal likelihood as ``sum_t (log c_t + m_t)``.  The backward
messages reuse the same ``c_t``, which makes
``gamma_t = alpha_hat_t * beta_hat_t`` and

    xi_t[i, j] = alpha_hat_{t-1}[i] * A[i, j] * obs_t[j] * beta_hat_t[j] / c_t

exactly normalized — identical (up to rounding) to the log-domain reference.
A sequence the probability domain cannot represent — its forward message
vanishes, or a posterior row comes out non-finite or zero because its
backward message overflowed or vanished — is recomputed with the
log-domain reference instead.
"""

from __future__ import annotations

import abc
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from typing import Sequence

import numpy as np

from repro.exceptions import DimensionMismatchError, ValidationError
from repro.hmm.corpus import CompiledCorpus, CorpusPosteriors, PackedPlan
from repro.hmm.emissions.base import EmissionModel, scaled_rows
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
    "LONG_GROUP_SIZE",
    "ModelParams",
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

#: Windows of one long sequence decoded together as one group by
#: :meth:`InferenceBackend.viterbi_long` unless a caller sets
#: ``group_size``; the group is ``(window, LONG_GROUP_SIZE, K)``.
LONG_GROUP_SIZE = 64

#: Bytes of the ``(rows, K, K)`` score buffer of one packed Viterbi step;
#: steps with more active sequences run in row tiles of this size.
_VITERBI_TILE_BYTES = 1 << 20


def viterbi_backpointer_dtype(n_states: int) -> np.dtype:
    """Smallest unsigned integer dtype that can index ``n_states`` states.

    Viterbi backpointers hold ``K`` entries per token (one row per packed
    row); storing them as int64 wastes 7 bytes per entry
    when the state space is tiny (the paper's workloads have K <= 45).
    uint8 covers K <= 256, uint16 covers K <= 65536; beyond that the int64
    of the reference implementation is kept.
    """
    if n_states < 1:
        raise ValidationError(f"n_states must be positive, got {n_states}")
    if n_states - 1 <= np.iinfo(np.uint8).max:
        return np.dtype(np.uint8)
    if n_states - 1 <= np.iinfo(np.uint16).max:
        return np.dtype(np.uint16)
    return np.dtype(np.int64)


class ModelParams:
    """One model's ``(pi, A)`` and everything the kernels derive from them.

    ``startprob`` and ``transmat`` are float64 copies, so a caller editing
    its own arrays in place cannot change them.  The logs (under
    :func:`~repro.utils.maths.safe_log`'s ``LOG_EPS`` clamp) and the
    contiguous transposes are built on first use and kept: this class is
    the one place the inference kernels take ``log pi`` / ``log A`` or
    transpose ``A`` / ``log A``.  :class:`~repro.hmm.engine.InferenceEngine`
    keeps one per parameter set; a test calling a backend or a
    long-sequence scan directly builds its own.
    """

    def __init__(self, startprob: np.ndarray, transmat: np.ndarray) -> None:
        self.startprob = np.array(startprob, dtype=np.float64)
        self.transmat = np.array(transmat, dtype=np.float64)
        if self.startprob.ndim != 1:
            raise DimensionMismatchError(
                f"start distribution must be 1-D, got shape {self.startprob.shape}"
            )
        n_states = self.n_states
        if self.transmat.shape != (n_states, n_states):
            raise DimensionMismatchError(
                f"transition matrix shape {self.transmat.shape} does not match "
                f"{n_states} states"
            )

    @property
    def n_states(self) -> int:
        return self.startprob.shape[0]

    def matches(self, startprob: np.ndarray, transmat: np.ndarray) -> bool:
        """Whether ``(startprob, transmat)`` still equal these parameters.

        An ``O(K^2)`` comparison, negligible next to any inference call, so
        in-place edits of a model's arrays are detected, not only rebinding.
        """
        return np.array_equal(startprob, self.startprob) and np.array_equal(
            transmat, self.transmat
        )

    @cached_property
    def log_startprob(self) -> np.ndarray:
        return safe_log(self.startprob)

    @cached_property
    def log_transmat(self) -> np.ndarray:
        return safe_log(self.transmat)

    @cached_property
    def log_transmat_T(self) -> np.ndarray:
        """``log A^T``, contiguous: the Viterbi kernels' transition operand."""
        return np.ascontiguousarray(self.log_transmat.T)

    @cached_property
    def transmat_T(self) -> np.ndarray:
        """``A^T``, contiguous: the backward recursions' transition operand."""
        return np.ascontiguousarray(self.transmat.T)


class InferenceBackend(abc.ABC):
    """Strategy object performing HMM inference over a compiled corpus.

    Every corpus method takes the model's :class:`ModelParams`, a
    :class:`~repro.hmm.corpus.CompiledCorpus` and its emissions — the
    ``(n_tokens, K)`` emission log-likelihood table in concatenated token
    order (:meth:`CompiledCorpus.score`) or the
    :class:`~repro.hmm.emissions.base.EmissionModel` that scores it — and
    returns per-sequence results in corpus order.
    """

    name: str = "abstract"

    @staticmethod
    def _check_corpus(
        params: ModelParams,
        corpus: CompiledCorpus,
        emissions: np.ndarray | EmissionModel,
        keep_model: bool = False,
    ) -> np.ndarray | EmissionModel:
        """The emissions as a float64 table, checked against the parameters.

        An emission model must cover the transition matrix's states; it is
        returned as is with ``keep_model``, and otherwise scored into its
        table over the concatenated corpus.  A table of any other length
        would silently shift every split boundary and truncate or misalign
        sequences; insist on the ``(n_tokens, K)`` shape that
        :meth:`CompiledCorpus.score` produces.
        """
        n_states = params.n_states
        if isinstance(emissions, EmissionModel):
            if emissions.n_states != n_states:
                raise DimensionMismatchError(
                    f"emission model covers {emissions.n_states} states, "
                    f"the transition matrix {n_states}"
                )
            if keep_model:
                return emissions
            emissions = corpus.score(emissions)
        scores = np.asarray(emissions, dtype=np.float64)
        expected = (corpus.n_tokens, n_states)
        if scores.shape != expected:
            raise DimensionMismatchError(
                f"corpus score table must have shape {expected} "
                f"(CompiledCorpus.score output), got {scores.shape}"
            )
        return scores

    @abc.abstractmethod
    def forward_backward_corpus(
        self,
        params: ModelParams,
        corpus: CompiledCorpus,
        emissions: np.ndarray | EmissionModel,
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
        params: ModelParams,
        corpus: CompiledCorpus,
        emissions: np.ndarray | EmissionModel,
    ) -> list[tuple[np.ndarray, float]]:
        """Most likely path and joint log-probability per corpus sequence."""

    @abc.abstractmethod
    def log_likelihood_corpus(
        self,
        params: ModelParams,
        corpus: CompiledCorpus,
        emissions: np.ndarray | EmissionModel,
    ) -> np.ndarray:
        """Log marginal likelihood of every corpus sequence (1-D array)."""

    def viterbi_long(
        self,
        params: ModelParams,
        source,
        *,
        window: int,
        overlap: int,
        group_size: int | None = None,
    ) -> LongDecodeResult:
        """Chunked Viterbi over one long sequence (see :func:`chunked_viterbi`).

        Each group of ``group_size`` windows (default
        :data:`LONG_GROUP_SIZE`) is decoded by :meth:`_viterbi_bucket`, the
        one step the backends implement differently.
        """
        return chunked_viterbi(
            params,
            source,
            window=window,
            overlap=overlap,
            group_size=LONG_GROUP_SIZE if group_size is None else group_size,
            decode_bucket=self._viterbi_bucket,
        )

    @abc.abstractmethod
    def _viterbi_bucket(
        self,
        log_startprob: np.ndarray,
        log_transmat_T: np.ndarray,
        windows: np.ndarray,
    ) -> list[tuple[np.ndarray, float]]:
        """Viterbi decode of a group of equal-length windows.

        ``windows`` is time-major, ``(L, G, K)``: ``windows[:, g]`` is
        window ``g``.  ``log_transmat_T`` is ``log A^T``, contiguous.
        Returns one ``(path, log_joint)`` per window, each exactly what
        :func:`viterbi_decode_from_log` returns for that window alone.
        """


def _log_rows(
    emissions: np.ndarray | EmissionModel, corpus: CompiledCorpus, lo: int, hi: int
) -> np.ndarray:
    """Emission log-likelihood rows of the corpus tokens ``lo .. hi - 1``."""
    if isinstance(emissions, EmissionModel):
        return emissions.log_likelihoods(corpus.concat[lo:hi])
    return emissions[lo:hi]


class ScaledBatchedBackend(InferenceBackend):
    """Rabiner-scaled probability-domain recursions over a packed corpus.

    Every corpus kernel walks the corpus' time-major
    :class:`~repro.hmm.corpus.PackedPlan`: step ``t`` is one batched
    operation over the contiguous packed rows of the ``n_t`` sequences
    still active, which are always the leading ranks.  A call takes one
    Python step per position of the longest sequence, with no padding and
    no masks.
    """

    name = "scaled"

    def __init__(self) -> None:
        #: dtype and shape of the most recent Viterbi backpointer
        #: allocation; introspection hooks for the benchmark's
        #: memory-footprint gate.
        self.last_backpointer_dtype: np.dtype | None = None
        self.last_backpointer_shape: tuple[int, ...] | None = None

    # -------------------------------------------------------------- #
    # Packed kernels
    # -------------------------------------------------------------- #
    @staticmethod
    def _packed_log_likelihoods(  # repro: hot-path
        plan: PackedPlan, scale: np.ndarray, shift: np.ndarray | None
    ) -> np.ndarray:
        """Per-rank ``sum_t (log c_t + m_t)`` (``m_t = 0`` without shifts)."""
        terms = np.log(np.maximum(scale, _TINY))
        if shift is not None:
            terms += shift
        return np.bincount(plan.ranks, terms, minlength=plan.order.size)

    @staticmethod
    def _forward_packed(  # repro: hot-path
        params: ModelParams,
        plan: PackedPlan,
        obs: np.ndarray,
        alpha: np.ndarray,
        scale: np.ndarray,
    ) -> None:
        """Scaled forward pass over a packed corpus.

        Writes the normalized forward messages into ``alpha``, which may be
        ``obs`` itself when only the likelihood is wanted, and every row's
        normalizer ``c_t`` into ``scale`` *before* the ``_TINY`` clamp: a
        value below ``_TINY`` means the sequence's forward message vanished
        in the probability domain (an impossible sequence, or a spread only
        the log domain can represent), and its results must come from the
        log-domain reference.
        """
        sizes = plan.batch_sizes.tolist()
        offsets = plan.step_offsets.tolist()
        transmat = params.transmat
        propagated = np.empty((sizes[0], params.n_states))
        np.multiply(params.startprob, obs[: sizes[0]], out=alpha[: sizes[0]])
        for t, n in enumerate(sizes):  # repro: loop-ok[inherent time recursion]
            lo = offsets[t]
            cur = alpha[lo : lo + n]
            if t:
                # The n sequences active at t are the first n of step t - 1.
                prev = offsets[t - 1]
                np.matmul(alpha[prev : prev + n], transmat, out=propagated[:n])
                np.multiply(propagated[:n], obs[lo : lo + n], out=cur)
            # Row sums by einsum: faster than a reduction over the short
            # state axis, and unlike a BLAS matrix-vector product (which
            # rounds a row differently by its position in the block) each
            # sum depends on its own row alone, so reordering the corpus
            # permutes the results exactly.
            raw = np.einsum("ij->i", cur, out=scale[lo : lo + n])
            cur /= np.maximum(raw, _TINY)[:, None]

    @staticmethod
    def _backward_packed(  # repro: hot-path
        params: ModelParams,
        plan: PackedPlan,
        obs: np.ndarray,
        alpha: np.ndarray,
        scale: np.ndarray,
        norms: np.ndarray,
        xi_ranks: np.ndarray | None,
    ) -> np.ndarray:
        """Scaled backward pass turning ``alpha`` into ``gamma`` in place.

        Returns the transition statistic ``sum_t alpha_hat_{t-1}^T w_t``
        with ``w_t = obs_t * beta_hat_t / c_t``; times ``A`` elementwise it
        is the expected transition counts.  ``norms`` receives every
        posterior row's sum before normalization, and ``xi_ranks`` (when
        given, ``(S, K, K)``) the statistic of each sequence rank.
        """
        sizes = plan.batch_sizes.tolist()
        offsets = plan.step_offsets.tolist()
        n_states = params.n_states
        transmat_T = params.transmat_T
        # Ranks past the active prefix have ended: their beta stays 1.
        beta = np.ones((sizes[0], n_states))
        weights = np.empty_like(beta)
        pairs = (
            np.empty((sizes[0], n_states, n_states)) if xi_ranks is not None else None
        )
        xi = np.zeros((n_states, n_states))
        for t in range(len(sizes) - 1, -1, -1):  # repro: loop-ok[inherent backward time recursion]
            n, lo = sizes[t], offsets[t]
            cur = alpha[lo : lo + n]
            if t:
                w = weights[:n]
                np.multiply(obs[lo : lo + n], beta[:n], out=w)
                w /= scale[lo : lo + n, None]
                prev = alpha[offsets[t - 1] : offsets[t - 1] + n]
                xi += prev.T @ w
                if xi_ranks is not None:
                    np.multiply(prev[:, :, None], w[:, None, :], out=pairs[:n])
                    xi_ranks[:n] += pairs[:n]
            cur *= beta[:n]
            total = np.einsum("ij->i", cur, out=norms[lo : lo + n])
            cur /= np.maximum(total, _TINY)[:, None]
            if t:
                np.matmul(w, transmat_T, out=beta[:n])
        return xi

    def _fb_packed(  # repro: hot-path
        self,
        params: ModelParams,
        corpus: CompiledCorpus,
        plan: PackedPlan,
        emissions: np.ndarray | EmissionModel,
        buffer: np.ndarray,
        sequence_xi: bool,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, np.ndarray, np.ndarray]:
        """Forward-backward over a packed plan.

        Returns ``(gamma, xi, xi_ranks, log_likelihoods, failed)``: the
        packed posteriors, the transition statistic of
        :meth:`_backward_packed` and its per-rank form (``None`` unless
        ``sequence_xi``), the log-likelihood of every rank, and the ranks
        whose results are unusable — a vanished forward message, or a
        posterior row that is not finite or sums to zero (a backward
        message overflowed or vanished).  Unusable ranks can poison the
        transition statistic; the caller re-runs without them.  The
        observation weights — a model's own
        :meth:`~repro.hmm.emissions.base.EmissionModel.scaled_likelihoods`,
        or the max-shifted ``exp`` of a table's gathered rows — are built
        in ``buffer`` (``(R, K)`` or larger), which holds nothing useful
        afterwards.
        """
        n_states = params.n_states
        if isinstance(emissions, EmissionModel):
            obs, shift = emissions.scaled_likelihoods(
                corpus.concat, plan.rows, buffer[: plan.n_rows]
            )
        else:
            obs, shift = scaled_rows(emissions, plan.rows, buffer[: plan.n_rows])
        alpha = np.empty_like(obs)
        scale = np.empty(plan.n_rows)
        self._forward_packed(params, plan, obs, alpha, scale)
        lls = self._packed_log_likelihoods(plan, scale, shift)
        xi_ranks = (
            np.zeros((plan.order.size, n_states, n_states)) if sequence_xi else None
        )
        norms = np.empty(plan.n_rows)
        xi = self._backward_packed(params, plan, obs, alpha, scale, norms, xi_ranks)
        usable = (scale >= _TINY) & (norms >= _TINY) & (norms < np.inf)
        failed = np.unique(plan.ranks[~usable]) if not usable.all() else usable[:0]
        return alpha, xi, xi_ranks, lls, failed

    # -------------------------------------------------------------- #
    # Compiled-corpus kernels (zero per-sequence Python on the hot path)
    # -------------------------------------------------------------- #
    def forward_backward_corpus(
        self, params, corpus, emissions, sequence_xi=False
    ) -> CorpusPosteriors:
        emissions = self._check_corpus(params, corpus, emissions, keep_model=True)
        n_states = params.n_states
        # The packed observation weights are built in gamma's buffer, and
        # the packed posteriors land in it once those weights are spent.
        gamma = np.empty((corpus.n_tokens, n_states))
        start_counts = np.zeros(n_states)
        xi_sum = np.zeros((n_states, n_states))
        xi_seq = (
            np.empty((corpus.n_sequences, n_states, n_states)) if sequence_xi else None
        )
        lls = np.empty(corpus.n_sequences)
        plan = corpus.packed
        repair: list[int] = []
        # Sequences the probability domain cannot represent overflow or
        # divide by zero on their way to being flagged; they are recomputed
        # with the log-domain reference below, so no warning is meaningful.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            while plan.n_rows:
                packed, xi, xi_ranks, part_lls, failed = self._fb_packed(
                    params, corpus, plan, emissions, gamma, sequence_xi
                )
                if failed.size:
                    # Rare: drop the failed sequences and run the rest again,
                    # so none of their rows reaches xi_sum.
                    repair += plan.order[failed].tolist()
                    plan = PackedPlan.build(
                        np.sort(np.delete(plan.order, failed)),
                        corpus.lengths,
                        corpus.offsets,
                    )
                    continue
                np.take(packed, plan.inverse, axis=0, out=gamma, mode="clip")
                start_counts += packed[: plan.order.size].sum(axis=0)
                xi_sum += params.transmat * xi
                lls[plan.order] = part_lls
                if xi_seq is not None:
                    xi_seq[plan.order] = params.transmat * xi_ranks
                break
            for j in repair:
                lo, hi = corpus.offsets[j], corpus.offsets[j + 1]
                ref = compute_posteriors_from_log(
                    params.log_startprob,
                    params.log_transmat,
                    _log_rows(emissions, corpus, lo, hi),
                )
                gamma[lo:hi] = ref.gamma
                xi_sum += ref.xi_sum
                start_counts += ref.gamma[0]
                lls[j] = ref.log_likelihood
                if xi_seq is not None:
                    xi_seq[j] = ref.xi_sum
        for lw in corpus.long_windows:
            # Long sequences stay out of the packed plan: the block-wise
            # segment scan over the sequence's log rows keeps the working
            # set at a few blocks per sequence, whatever T is.
            r = checkpointed_posteriors(
                params,
                ArraySource(
                    _log_rows(emissions, corpus, lw.offset, lw.offset + lw.length)
                ),
            )
            gamma[lw.offset : lw.offset + lw.length] = r.gamma
            xi_sum += r.xi_sum
            start_counts += r.gamma[0]
            lls[lw.seq_index] = r.log_likelihood
            if xi_seq is not None:
                xi_seq[lw.seq_index] = r.xi_sum
        return CorpusPosteriors(
            gamma_concat=gamma,
            start_counts=start_counts,
            xi_sum=xi_sum,
            log_likelihoods=lls,
            sequence_xi=xi_seq,
        )

    def viterbi_corpus(
        self, params, corpus, emissions
    ) -> list[tuple[np.ndarray, float]]:
        scores = self._check_corpus(params, corpus, emissions)
        plan = corpus.packed
        results: list[tuple[np.ndarray, float]] = [None] * corpus.n_sequences
        if plan.n_rows:
            packed_paths, packed_joints = self._viterbi_packed(
                params.log_startprob,
                params.log_transmat_T,
                plan.batch_sizes.tolist(),
                np.take(scores, plan.rows, axis=0, mode="clip"),
            )
            paths = packed_paths[plan.inverse]
            joints = np.empty(corpus.n_sequences)
            joints[plan.order] = packed_joints
            results = list(zip(corpus.split(paths), joints.tolist()))
        for lw in corpus.long_windows:
            # Long sequences decode through the chunked stitcher instead of
            # adding T steps to the packed recursion.
            long_res = self.viterbi_long(
                params,
                ArraySource(scores[lw.offset : lw.offset + lw.length]),
                window=lw.window,
                overlap=lw.overlap,
            )
            results[lw.seq_index] = (long_res.path, long_res.log_joint)
        return results

    def log_likelihood_corpus(self, params, corpus, emissions) -> np.ndarray:
        scores = self._check_corpus(params, corpus, emissions)
        lls = np.empty(corpus.n_sequences)
        plan = corpus.packed
        if plan.n_rows:
            obs, shift = scaled_rows(
                scores, plan.rows, np.empty((plan.n_rows, params.n_states))
            )
            scale = np.empty(plan.n_rows)
            # Only the likelihood is wanted: the messages overwrite the weights.
            self._forward_packed(params, plan, obs, obs, scale)
            lls[plan.order] = self._packed_log_likelihoods(plan, scale, shift)
            for j in plan.order[np.unique(plan.ranks[~(scale >= _TINY)])]:
                log_alpha = log_forward(
                    params.log_startprob,
                    params.log_transmat,
                    scores[corpus.offsets[j] : corpus.offsets[j + 1]],
                )
                lls[j] = float(logsumexp(log_alpha[-1]))
        for lw in corpus.long_windows:
            # Forward-only segment scan: one block of memory per long sequence.
            lls[lw.seq_index] = streaming_log_likelihood(
                params, ArraySource(scores[lw.offset : lw.offset + lw.length])
            )
        return lls

    def _viterbi_packed(  # repro: hot-path
        self,
        log_startprob: np.ndarray,
        log_transmat_T: np.ndarray,
        batch_sizes: list[int],
        log_b: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fused log-domain Viterbi over packed sequences.

        ``log_b`` holds the observation rows in packed time-major order
        (:class:`~repro.hmm.corpus.PackedPlan`): step ``t`` is
        ``batch_sizes[t]`` rows, those of the sequences still running,
        which are always the leading ranks.  Unlike forward-backward, the
        recursion has no ``logsumexp``, only max, so it runs in the log
        domain with no ``exp``, no normalization and no underflow fallback.
        A step adds the active prefix of the message against the
        pre-transposed *contiguous* ``log A^T``
        (``scores[r, j, i] = delta[r, i] + log A[i, j]``), takes the argmax
        over the contiguous last axis, gathers the winning scores through
        flat offsets instead of a second max pass, and adds the observation
        rows, all into preallocated buffers.  Every elementary operation
        matches :func:`viterbi_decode_from_log`, so paths and joint
        log-probabilities are bit-identical to the reference, ties
        included.  Backpointers are packed like the observations (step 0's
        rows stay unused), in the smallest dtype that indexes the state
        space.

        The ``(rows, K, K)`` step buffer holds one
        :data:`_VITERBI_TILE_BYTES` tile of rows at most (64 rows at
        K = 45: a default-size serving batch or a full long-sequence window
        group).  A step whose active prefix is larger runs tile by tile;
        once the prefix fits, each step runs on views of the whole prefix
        that change only when a sequence ends.

        Returns the packed path (one state per packed row) and each rank's
        joint log-probability.
        """
        offsets = list(accumulate(batch_sizes, initial=0))
        n_seq = batch_sizes[0]
        n_states = log_transmat_T.shape[0]
        delta = log_startprob[None, :] + log_b[:n_seq]
        backpointers = np.empty(
            (offsets[-1], n_states), dtype=viterbi_backpointer_dtype(n_states)
        )
        self.last_backpointer_dtype = backpointers.dtype
        self.last_backpointer_shape = backpointers.shape
        # Row tiles bound the (rows, K, K) step buffer, which would
        # otherwise grow with the corpus as n_seq * K^2.
        width = min(n_seq, max(1, _VITERBI_TILE_BYTES // (8 * n_states * n_states)))
        step_scores = np.empty((width, n_states, n_states))
        arg = np.empty((width, n_states), dtype=np.intp)
        best = np.empty(width * n_states)
        gather_idx = np.empty(width * n_states, dtype=np.intp)
        flat_offsets = np.arange(width * n_states, dtype=np.intp) * n_states
        trans = log_transmat_T[None, :, :]
        rows = 0  # the active prefix the views below cover
        for t in range(1, len(batch_sizes)):  # repro: loop-ok[inherent time recursion]
            n, lo = batch_sizes[t], offsets[t]
            if n > width:
                for r0 in range(0, n, width):  # repro: loop-ok[row tiles of one step]
                    r1 = min(r0 + width, n)
                    flat = (r1 - r0) * n_states
                    tile_scores = step_scores[: r1 - r0]
                    tile_arg = arg[: r1 - r0]
                    np.add(delta[r0:r1, None, :], trans, out=tile_scores)
                    tile_scores.argmax(axis=2, out=tile_arg)
                    np.add(flat_offsets[:flat], tile_arg.reshape(-1), out=gather_idx[:flat])
                    np.take(tile_scores.reshape(-1), gather_idx[:flat], out=best[:flat])
                    np.add(
                        best[:flat].reshape(r1 - r0, n_states),
                        log_b[lo + r0 : lo + r1],
                        out=delta[r0:r1],
                    )
                    backpointers[lo + r0 : lo + r1] = tile_arg
                continue
            if n != rows:
                # On a small prefix slicing costs about as much as the
                # step's arithmetic, so views change only when it shrinks.
                rows, flat = n, n * n_states
                sub_delta, sub_scores, sub_arg = delta[:n], step_scores[:n], arg[:n]
                sub_gather, sub_best = gather_idx[:flat], best[:flat]
                sub_offsets = flat_offsets[:flat]
                delta_3d = sub_delta[:, None, :]
                flat_scores, flat_arg = sub_scores.reshape(-1), sub_arg.reshape(-1)
                best_rows = sub_best.reshape(n, n_states)
            np.add(delta_3d, trans, out=sub_scores)
            sub_scores.argmax(axis=2, out=sub_arg)
            np.add(sub_offsets, flat_arg, out=sub_gather)
            np.take(flat_scores, sub_gather, out=sub_best)
            np.add(best_rows, log_b[lo : lo + n], out=sub_delta)
            backpointers[lo : lo + n] = sub_arg

        state = delta.argmax(axis=1)
        log_joint = delta[np.arange(n_seq), state]

        # Backtrack.  ``state`` holds each rank's state at the current step;
        # a rank whose sequence ends at step t keeps its final state until
        # then, because only the prefix still running past t is updated.
        paths = np.empty(offsets[-1], dtype=np.int64)
        flat_bp = backpointers.reshape(-1)
        rank_offsets = np.arange(n_seq, dtype=np.intp) * n_states
        last = len(batch_sizes) - 1
        paths[offsets[last] :] = state[: batch_sizes[last]]
        rows = 0
        for t in range(last - 1, -1, -1):  # repro: loop-ok[inherent backtrack recursion]
            if batch_sizes[t + 1] != rows:
                rows = batch_sizes[t + 1]
                running, running_offsets = state[:rows], rank_offsets[:rows]
            running[...] = flat_bp[running_offsets + running + offsets[t + 1] * n_states]
            paths[offsets[t] : offsets[t + 1]] = state[: batch_sizes[t]]
        return paths, log_joint

    def _viterbi_bucket(  # repro: hot-path
        self,
        log_startprob: np.ndarray,
        log_transmat_T: np.ndarray,
        windows: np.ndarray,
    ) -> list[tuple[np.ndarray, float]]:
        """A window group through :meth:`_viterbi_packed`.

        G windows of one length are a packed plan whose every step holds
        all G rows, and the time-major ``(L, G, K)`` group is already in
        that plan's packed order, so the kernel reads it in place.  The
        paths are the columns of one ``(L, G)`` array.
        """
        length, n_windows, n_states = windows.shape
        paths, log_joint = self._viterbi_packed(
            log_startprob,
            log_transmat_T,
            [n_windows] * length,
            windows.reshape(-1, n_states),
        )
        return list(zip(paths.reshape(length, n_windows).T, log_joint.tolist()))


class LogDomainBackend(InferenceBackend):
    """Reference backend: the original per-sequence log-space recursions.

    Loops over the corpus one sequence at a time (``corpus.split``) and
    runs :func:`repro.hmm.forward_backward.compute_posteriors_from_log` /
    :func:`repro.hmm.viterbi.viterbi_decode_from_log` on each, exactly as
    calling them sequence by sequence would; long sequences are decoded
    whole, never chunked.  The only difference is that ``log(pi)`` /
    ``log(A)`` come from :class:`ModelParams` (the engine keeps them across
    calls) instead of being taken once per sequence.  An emission model
    scores the concatenated corpus once.
    """

    name = "log"

    def forward_backward_corpus(
        self, params, corpus, emissions, sequence_xi=False
    ) -> CorpusPosteriors:
        tables = corpus.split(self._check_corpus(params, corpus, emissions))
        results = [
            compute_posteriors_from_log(params.log_startprob, params.log_transmat, table)
            for table in tables
        ]
        xi = np.array([r.xi_sum for r in results])
        return CorpusPosteriors(
            gamma_concat=np.concatenate([r.gamma for r in results]),
            start_counts=np.sum([r.gamma[0] for r in results], axis=0),
            xi_sum=xi.sum(axis=0),
            log_likelihoods=np.array([r.log_likelihood for r in results]),
            sequence_xi=xi if sequence_xi else None,
        )

    def viterbi_corpus(
        self, params, corpus, emissions
    ) -> list[tuple[np.ndarray, float]]:
        tables = corpus.split(self._check_corpus(params, corpus, emissions))
        return [
            viterbi_decode_from_log(params.log_startprob, params.log_transmat, table)
            for table in tables
        ]

    def log_likelihood_corpus(self, params, corpus, emissions) -> np.ndarray:
        tables = corpus.split(self._check_corpus(params, corpus, emissions))
        log_pi, log_A = params.log_startprob, params.log_transmat
        return np.array(
            [float(logsumexp(log_forward(log_pi, log_A, table)[-1])) for table in tables]
        )

    def _viterbi_bucket(
        self,
        log_startprob: np.ndarray,
        log_transmat_T: np.ndarray,
        windows: np.ndarray,
    ) -> list[tuple[np.ndarray, float]]:
        """Each window of the group decoded alone by the reference recursion."""
        log_transmat = log_transmat_T.T
        return [
            viterbi_decode_from_log(log_startprob, log_transmat, windows[:, g])
            for g in range(windows.shape[1])
        ]


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


def build_backend(name: str) -> InferenceBackend:
    """Instantiate a backend by name (``"scaled"`` or ``"log"``)."""
    try:
        cls = _BACKENDS[name]
    except KeyError:
        raise ValidationError(
            f"unknown inference backend {name!r}; available: {available_backends()}"
        ) from None
    return cls()
