"""Batched HMM inference engine with pluggable numerical backends.

:class:`InferenceEngine` is the single entry point through which the model
(:class:`~repro.hmm.model.HMM`), the EM trainer
(:class:`~repro.hmm.baum_welch.BaumWelchTrainer`), the serving executor and
the supervised classifiers run forward-backward, Viterbi decoding and
likelihood scoring.  It adds two things on top of the raw backends in
:mod:`repro.hmm.backends`:

* **One data path** — every batch runs over a
  :class:`~repro.hmm.corpus.CompiledCorpus` through the backend's corpus
  kernels.  The scaled backend walks the corpus' packed time-major layout,
  so each timestep is one ``(n_t, K) @ (K, K)`` matmul over the ``n_t``
  sequences still active, and routes sequences past
  ``InferenceConfig.long_threshold`` through the chunked long-sequence
  kernels.  The corpus entry points take the corpus' emissions as its
  ``(n_tokens, K)`` log-likelihood table or as the emission model itself;
  given the model, the scaled forward-backward kernel builds its
  probability-domain observation weights straight from it (for
  categorical emissions a gather from ``B``) and no log table exists.  The
  ``*_batch`` methods taking a list of per-sequence emission tables are
  thin adapters that compile the tables as a corpus.
* **Parameter caching** — the engine keeps one
  :class:`~repro.hmm.backends.ModelParams` (float64 copies of ``pi`` /
  ``A``, their logs and transposes, each derived on first use) for as long
  as the model parameters are unchanged, and hands it to every backend
  kernel, so repeated calls between EM iterations re-derive nothing.

Backend selection defaults to the process-wide
:class:`repro.core.config.InferenceConfig` (see
:func:`repro.core.config.set_inference_config` and the
:func:`repro.core.config.inference_backend` context manager); pass
``backend="log"`` explicitly to force the per-sequence log-domain
reference implementation.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.hmm.backends import (
    BatchedStreamingSession,
    InferenceBackend,
    ModelParams,
    build_backend,
)
from repro.hmm.corpus import CompiledCorpus, CorpusPosteriors
from repro.hmm.emissions.base import EmissionModel
from repro.hmm.forward_backward import SequencePosteriors
from repro.hmm.longseq import (
    LongDecodeResult,
    checkpointed_posteriors,
    streaming_log_likelihood,
)


class InferenceEngine:
    """Facade running batched HMM inference through a numerical backend.

    Parameters
    ----------
    backend:
        A backend name (``"scaled"`` / ``"log"``), a ready
        :class:`~repro.hmm.backends.InferenceBackend` instance, or ``None``
        to follow the process-wide default from
        :func:`repro.core.config.get_inference_config`.
    """

    def __init__(self, backend: str | InferenceBackend | None = None) -> None:
        if isinstance(backend, InferenceBackend):
            self.backend = backend
        else:
            if backend is None:
                # Imported lazily: repro.core imports the hmm layer, so a
                # top-level import here would be circular.
                from repro.core.config import get_inference_config

                backend = get_inference_config().backend
            self.backend = build_backend(backend)
        self._params: ModelParams | None = None

    @property
    def backend_name(self) -> str:
        """Name of the active backend (``"scaled"`` or ``"log"``)."""
        return self.backend.name

    # -------------------------------------------------------------- #
    def _cached(self, startprob: np.ndarray, transmat: np.ndarray) -> ModelParams:
        params = self._params
        if params is None or not params.matches(startprob, transmat):
            params = self._params = ModelParams(startprob, transmat)
        return params

    # -------------------------------------------------------------- #
    # Batched adapters over per-sequence emission tables
    # -------------------------------------------------------------- #
    def posteriors_batch(
        self,
        startprob: np.ndarray,
        transmat: np.ndarray,
        log_obs_seqs: Sequence[np.ndarray],
    ) -> list[SequencePosteriors]:
        """Forward-backward posteriors for every emission table, in order.

        Each result carries the sequence's own ``xi_sum``.  On the scaled
        backend, sequences longer than ``InferenceConfig.long_threshold``
        take the block-wise segment scan (bounded working memory) and
        the rest go through the packed kernel; the ``log`` reference runs
        every sequence whole.
        """
        if len(log_obs_seqs) == 0:
            return []
        # The concatenated tables are the corpus' own score table.
        corpus = self.compile(log_obs_seqs)
        return self.sequence_posteriors_corpus(startprob, transmat, corpus, corpus.concat)

    def viterbi_batch(
        self,
        startprob: np.ndarray,
        transmat: np.ndarray,
        log_obs_seqs: Sequence[np.ndarray],
    ) -> list[tuple[np.ndarray, float]]:
        """Most likely state path and joint log-probability per table.

        On the scaled backend, sequences longer than
        ``InferenceConfig.long_threshold`` are decoded by the chunked
        :meth:`viterbi_long` kernel instead of the packed recursion; the
        ``log`` reference decodes every sequence whole.
        """
        if len(log_obs_seqs) == 0:
            return []
        # The concatenated tables are the corpus' own score table.
        corpus = self.compile(log_obs_seqs)
        return self.viterbi_corpus(startprob, transmat, corpus, corpus.concat)

    def log_likelihood_batch(
        self,
        startprob: np.ndarray,
        transmat: np.ndarray,
        log_obs_seqs: Sequence[np.ndarray],
    ) -> np.ndarray:
        """Log marginal likelihood of every emission table (1-D array).

        On the scaled backend, sequences longer than
        ``InferenceConfig.long_threshold`` are scored by the forward-only
        streamed sweep (:meth:`log_likelihood_long`).
        """
        if len(log_obs_seqs) == 0:
            return np.empty(0)
        # The concatenated tables are the corpus' own score table.
        corpus = self.compile(log_obs_seqs)
        return self.log_likelihood_corpus(startprob, transmat, corpus, corpus.concat)

    # -------------------------------------------------------------- #
    # Long-sequence (chunked / checkpointed) entry points
    # -------------------------------------------------------------- #
    def _long_knobs(
        self, window: int | None, overlap: int | None
    ) -> tuple[int, int]:
        from repro.core.config import get_inference_config

        cfg = get_inference_config()
        window = cfg.decode_window if window is None else int(window)
        overlap = cfg.decode_overlap if overlap is None else int(overlap)
        return window, overlap

    def viterbi_long(
        self,
        startprob: np.ndarray,
        transmat: np.ndarray,
        source,
        window: int | None = None,
        overlap: int | None = None,
        group_size: int | None = None,
    ) -> LongDecodeResult:
        """Chunked Viterbi decode of one long sequence.

        ``source`` is a ``(T, K)`` emission log-likelihood table or a block
        source (:func:`repro.hmm.longseq.as_source`); knobs default to
        ``InferenceConfig.decode_window`` / ``decode_overlap`` resolved at
        call time, and ``group_size`` to
        :data:`~repro.hmm.backends.LONG_GROUP_SIZE`.  Each group of windows
        is decoded at once: by the packed Viterbi kernel on the scaled
        backend, window by window by the reference recursion on ``log``.
        Peak working memory is ``O(group_size * window * K)`` regardless of
        T; the result carries stitch diagnostics (see
        :class:`~repro.hmm.longseq.LongDecodeResult`).
        """
        window, overlap = self._long_knobs(window, overlap)
        return self.backend.viterbi_long(
            self._cached(startprob, transmat),
            source,
            window=window,
            overlap=overlap,
            group_size=group_size,
        )

    def posteriors_long(
        self,
        startprob: np.ndarray,
        transmat: np.ndarray,
        source,
        checkpoint: int | None = None,
    ) -> SequencePosteriors:
        """Exact posteriors of one long sequence by segment-parallel scan.

        Backend-independent: :func:`repro.hmm.longseq.checkpointed_posteriors`
        scans blocks of ``checkpoint`` rows (default 65 536 at K = 8, fewer
        at larger K) in about ``3 sqrt(block)`` Python steps each, holding a
        few blocks beyond the returned gamma whatever T is.  It matches the
        batched backends to floating-point reassociation (1e-8 tested); a
        forward message that vanishes is repaired with the log-domain
        reference.
        """
        return checkpointed_posteriors(
            self._cached(startprob, transmat), source, checkpoint=checkpoint
        )

    def log_likelihood_long(
        self,
        startprob: np.ndarray,
        transmat: np.ndarray,
        source,
    ) -> float:
        """Log marginal likelihood of one long sequence by segment-parallel scan.

        :func:`repro.hmm.longseq.streaming_log_likelihood` scans one fetched
        block at a time from the running forward message, so memory is one
        block whatever T is; a vanished message restarts the sweep in the
        log domain.
        """
        return streaming_log_likelihood(self._cached(startprob, transmat), source)

    # -------------------------------------------------------------- #
    # Compiled-corpus entry points
    # -------------------------------------------------------------- #
    def compile(self, sequences) -> CompiledCorpus:
        """Compile a dataset once for repeated inference through this engine.

        The corpus is concatenated and packed time-major once, so no corpus
        kernel rebuilds any index structure per call.  The result is
        emission- and parameter-agnostic: one compile serves every EM
        iteration and every decode over the same dataset.

        Sequences longer than ``InferenceConfig.long_threshold`` compile
        into window-decode plans (``corpus.long_windows``) instead of
        packed rows, so corpus-level decode/score/posterior calls route
        them through the chunked long-sequence kernels.
        """
        from repro.core.config import get_inference_config

        cfg = get_inference_config()
        return CompiledCorpus(
            sequences,
            long_threshold=cfg.long_threshold,
            decode_window=cfg.decode_window,
            decode_overlap=cfg.decode_overlap,
        )

    def posteriors_corpus(
        self,
        startprob: np.ndarray,
        transmat: np.ndarray,
        corpus: CompiledCorpus,
        emissions: np.ndarray | EmissionModel,
    ) -> CorpusPosteriors:
        """Stacked forward-backward statistics over a compiled corpus.

        ``emissions`` is the emission model, or the ``(n_tokens, K)``
        emission table from :meth:`CompiledCorpus.score`.  The scaled
        backend builds the observation weights of its packed rows in one
        pass — from a model through
        :meth:`~repro.hmm.emissions.base.EmissionModel.scaled_likelihoods`
        (categorical emissions: one gather from ``B``, no log table), from
        a table by one gather, shift and ``exp`` — and gathers the
        posteriors back into the concatenated layout with one fancy-index,
        so an EM iteration runs with zero per-sequence Python.  The ``log``
        reference scores a model into its table once.
        """
        return self.backend.forward_backward_corpus(
            self._cached(startprob, transmat), corpus, emissions
        )

    def sequence_posteriors_corpus(
        self,
        startprob: np.ndarray,
        transmat: np.ndarray,
        corpus: CompiledCorpus,
        emissions: np.ndarray | EmissionModel,
    ) -> list[SequencePosteriors]:
        """Forward-backward posteriors of every corpus sequence, in order.

        The same kernels as :meth:`posteriors_corpus`, but each result
        carries the sequence's own ``xi_sum``, which training never needs.
        """
        stats = self.backend.forward_backward_corpus(
            self._cached(startprob, transmat), corpus, emissions, sequence_xi=True
        )
        return [
            SequencePosteriors(gamma=gamma, xi_sum=xi_sum, log_likelihood=float(ll))
            for gamma, xi_sum, ll in zip(
                corpus.split(stats.gamma_concat), stats.sequence_xi, stats.log_likelihoods
            )
        ]

    def viterbi_corpus(
        self,
        startprob: np.ndarray,
        transmat: np.ndarray,
        corpus: CompiledCorpus,
        emissions: np.ndarray | EmissionModel,
    ) -> list[tuple[np.ndarray, float]]:
        """Viterbi path and joint log-probability per corpus sequence."""
        return self.backend.viterbi_corpus(
            self._cached(startprob, transmat), corpus, emissions
        )

    def log_likelihood_corpus(
        self,
        startprob: np.ndarray,
        transmat: np.ndarray,
        corpus: CompiledCorpus,
        emissions: np.ndarray | EmissionModel,
    ) -> np.ndarray:
        """Log marginal likelihood of every corpus sequence (1-D array)."""
        return self.backend.log_likelihood_corpus(
            self._cached(startprob, transmat), corpus, emissions
        )

    # -------------------------------------------------------------- #
    # Single-sequence conveniences
    # -------------------------------------------------------------- #
    def posteriors(
        self, startprob: np.ndarray, transmat: np.ndarray, log_obs: np.ndarray
    ) -> SequencePosteriors:
        """Forward-backward posteriors of one sequence."""
        return self.posteriors_batch(startprob, transmat, [log_obs])[0]

    def viterbi(
        self, startprob: np.ndarray, transmat: np.ndarray, log_obs: np.ndarray
    ) -> tuple[np.ndarray, float]:
        """Viterbi path and joint log-probability of one sequence."""
        return self.viterbi_batch(startprob, transmat, [log_obs])[0]

    def log_likelihood(
        self, startprob: np.ndarray, transmat: np.ndarray, log_obs: np.ndarray
    ) -> float:
        """Log marginal likelihood of one sequence."""
        return float(self.log_likelihood_batch(startprob, transmat, [log_obs])[0])

    # -------------------------------------------------------------- #
    # Streaming
    # -------------------------------------------------------------- #
    def start_stream_batch(
        self,
        startprob: np.ndarray,
        transmat: np.ndarray,
        lags: Sequence[int | None] = (),
    ) -> BatchedStreamingSession:
        """Open an incremental inference session for online streams.

        Each tick steps every advancing stream with one vectorized
        ``(M, K, K)`` propagation and exposes per-step filtering posteriors
        plus fixed-lag Viterbi labels (see
        :class:`~repro.hmm.backends.BatchedStreamingSession`); one online
        sequence is a session with one stream.  Streams can also be added
        after construction via ``add_stream``.  ``log(pi)`` / ``log(A)``
        come from the engine's parameter cache, so opening many sessions
        against the same model re-derives nothing.

        Parameters
        ----------
        startprob, transmat:
            Probability-domain model parameters (logs come from the
            engine's parameter cache).
        lags:
            Per-stream fixed lags for the streams opened immediately
            (``None`` entries defer all labels to ``finish``).
        """
        p = self._cached(startprob, transmat)
        return BatchedStreamingSession(p.log_startprob, p.log_transmat, lags=lags)
