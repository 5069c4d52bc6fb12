"""Micro-batching tagging service: concurrent requests, coalesced decodes.

:class:`TaggingService` turns the batched :class:`~repro.hmm.engine.InferenceEngine`
from an offline trick into a serving primitive.  Clients submit individual
tag (Viterbi) or score (log-likelihood) requests and get
:class:`concurrent.futures.Future` handles back; the scheduling core
(:class:`~repro.serving.scheduler.MicroBatchScheduler`) coalesces them
into micro-batches and this module's :class:`_ModelExecutor` compiles each
micro-batch into :class:`~repro.hmm.corpus.CompiledCorpus` form, scores
its emissions with one call and runs one corpus kernel per request kind,
where the backend's packed time-major kernels do the heavy lifting.  Per-request
decoding pays the engine's per-call Python overhead on every sequence;
micro-batching amortizes it across the batch — that gap is measured by
``benchmarks/test_bench_serving.py``.

Queueing policy — bounded-queue backpressure
(:class:`~repro.exceptions.QueueFullError`), per-request deadlines
(:class:`~repro.exceptions.DeadlineExceededError`), continuous batching
and the pluggable batch-ordering :class:`~repro.serving.scheduler.SchedulingPolicy`
(``ServingConfig.scheduling_policy``) — lives entirely in the scheduler
layer; this module contributes only the per-model compute (coalesced
engine calls with per-request failure isolation) that the multi-model
:class:`~repro.serving.router.Router` and the online
:class:`~repro.serving.streaming_service.StreamingService` share the
scheduler with.
"""

from __future__ import annotations

import time
from concurrent.futures import Future
from typing import Any, Sequence

import numpy as np

from repro.core.config import ServingConfig
from repro.serving import faults
from repro.serving.persistence import resolve_hmm
from repro.serving.scheduler import (
    _SCORE,
    _TAG,
    MicroBatchScheduler,
    Request,
    ServiceStats,
)
from repro.utils.validation import group_by_dtype_kind

__all__ = ["TaggingService", "ServiceStats"]


class _ModelExecutor:
    """Batched compute for one resolved model: coalesce, isolate failures.

    Holds the resolved :class:`~repro.hmm.model.HMM` and its engine; used
    from the single dispatcher thread only, so the engine's parameter
    cache stays single-threaded.
    """

    def __init__(self, model: Any) -> None:
        self._hmm = resolve_hmm(model)
        self._engine = self._hmm.inference_engine

    def run(
        self, batch: list[Request], stats: ServiceStats, policy: str | None = None
    ) -> None:
        """Compute one micro-batch and resolve its futures (stats first)."""
        started = time.perf_counter()
        # Fired before the isolation try-block: an injected executor fault
        # models the whole engine call hard-failing (not one bad sequence),
        # so it must propagate to the caller — the router's circuit breaker
        # or the scheduler's supervisor — instead of being re-run per
        # request.
        faults.fire(faults.EXECUTOR_RUN)
        outcomes: list[tuple[bool, Any]] = [(True, None)] * len(batch)
        # One coalesced call per dtype kind (one call for a homogeneous
        # batch): concatenating a bool request with integer ones would cast
        # it to int before the emission family's dtype check judged it.
        for idx in group_by_dtype_kind([r.sequence for r in batch]):
            part = [batch[i] for i in idx]
            try:
                part_outcomes = self._compute_coalesced(part)
            except Exception:
                # The batched call failed somewhere (typically one malformed
                # sequence poisoning the shared emission-table call).
                # Re-run each request on its own so only the offending ones
                # fail.  Control-flow exceptions (KeyboardInterrupt,
                # SystemExit) are deliberately NOT caught: they must stop
                # the dispatcher, not be swallowed into a client future.
                part_outcomes = self._compute_individually(part)
            for i, outcome in zip(idx, part_outcomes):
                outcomes[i] = outcome
        # Record stats before resolving the futures: a client unblocked by
        # its result may snapshot the stats immediately, and the batch that
        # produced that result must already be counted.
        stats.record_batch(
            n_requests=len(batch),
            n_tokens=int(sum(r.sequence.shape[0] for r in batch)),
            seconds=time.perf_counter() - started,
            key=batch[0].key,
        )
        stats.record_completed(batch, policy=policy)
        for request, (ok, value) in zip(batch, outcomes):
            future = request.future
            # A client may have cancelled while the request was queued;
            # resolving a cancelled future raises InvalidStateError, which
            # would kill the dispatcher thread — skip those requests.
            if not future.set_running_or_notify_cancel():
                continue
            if ok:
                future.set_result(value)
            else:
                future.set_exception(value)

    def _compute_coalesced(self, batch: list[Request]) -> list[tuple[bool, Any]]:
        """One emission-scoring call for the whole micro-batch, then one
        corpus kernel per request kind; results in batch order."""
        hmm, engine = self._hmm, self._engine
        groups = []
        for kind in (_TAG, _SCORE):
            idx = [i for i, r in enumerate(batch) if r.kind == kind]
            if idx:
                groups.append((kind, idx, engine.compile([batch[i].sequence for i in idx])))
        table = hmm.emissions.log_likelihoods(
            np.concatenate([corpus.concat for _, _, corpus in groups])
        )
        outcomes: list[tuple[bool, Any]] = [(True, None)] * len(batch)
        start = 0
        for kind, idx, corpus in groups:
            scores = table[start : start + corpus.n_tokens]
            start += corpus.n_tokens
            if kind == _TAG:
                decoded = engine.viterbi_corpus(
                    hmm.startprob, hmm.transmat, corpus, scores
                )
                values = [path for path, _ in decoded]
            else:
                values = engine.log_likelihood_corpus(
                    hmm.startprob, hmm.transmat, corpus, scores
                ).tolist()
            for i, value in zip(idx, values):
                outcomes[i] = (True, value)
        return outcomes

    def _compute_individually(self, batch: list[Request]) -> list[tuple[bool, Any]]:
        """Slow path: isolate failures to the requests that caused them."""
        outcomes: list[tuple[bool, Any]] = []
        for request in batch:
            try:
                outcomes += self._compute_coalesced([request])
            except Exception as exc:
                outcomes.append((False, exc))
        return outcomes


class TaggingService(MicroBatchScheduler):
    """Queue-and-coalesce front end over one model's inference engine.

    Parameters
    ----------
    model:
        An :class:`~repro.hmm.model.HMM` or a fitted estimator wrapper.
    config:
        Batching and backpressure knobs (``max_batch_size``,
        ``queue_capacity``, ``scheduling_policy``); defaults to the
        process-wide :func:`~repro.core.config.get_serving_config`.  There
        is no batching timer: a request reaching an idle dispatcher is
        computed at once, and requests that queue while it is busy form
        the next batch.

    Use as a context manager (or call :meth:`close`) so the dispatcher
    thread is joined deterministically; queued requests are still served
    during shutdown.  For serving several registry models through one
    queue see :class:`~repro.serving.router.Router`.
    """

    _thread_name = "repro-tagging-service"

    def __init__(self, model: Any, config: ServingConfig | None = None) -> None:
        super().__init__(config)
        self._executor = _ModelExecutor(model)
        self._start()

    # -------------------------------------------------------------- #
    # Client API
    # -------------------------------------------------------------- #
    def submit_tag(
        self,
        sequence: np.ndarray,
        deadline_ms: float | None = None,
        trace_id: str | None = None,
    ) -> Future:
        """Enqueue a Viterbi tagging request; resolves to the label array."""
        return self._enqueue(_TAG, sequence, deadline_ms=deadline_ms, trace_id=trace_id)

    def submit_score(
        self,
        sequence: np.ndarray,
        deadline_ms: float | None = None,
        trace_id: str | None = None,
    ) -> Future:
        """Enqueue a scoring request; resolves to the log-likelihood float."""
        return self._enqueue(
            _SCORE, sequence, deadline_ms=deadline_ms, trace_id=trace_id
        )

    def tag(self, sequence: np.ndarray) -> np.ndarray:
        """Synchronous tag: submit and wait."""
        return self.submit_tag(sequence).result()

    def score(self, sequence: np.ndarray) -> float:
        """Synchronous score: submit and wait."""
        return self.submit_score(sequence).result()

    def tag_many(self, sequences: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Submit many tagging requests at once and gather all results.

        This is the high-throughput client pattern: all requests hit the
        queue immediately, so the dispatcher drains them in near-full
        micro-batches.
        """
        futures = [self.submit_tag(seq) for seq in sequences]
        return [future.result() for future in futures]

    def score_many(self, sequences: Sequence[np.ndarray]) -> list[float]:
        """Submit many scoring requests at once and gather all results."""
        futures = [self.submit_score(seq) for seq in sequences]
        return [future.result() for future in futures]

    # -------------------------------------------------------------- #
    def _execute(self, batch: list[Request]) -> None:
        self._executor.run(batch, self.stats, policy=self.scheduling_policy)
